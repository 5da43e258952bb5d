"""The Profiler: turns scenarios into raw metric vectors (paper §4.2).

The paper deploys a daemon to every server that periodically gathers
system and microarchitectural statistics (perf, topdown, /proc) and logs
them — with the commands of the running jobs — to a relational database.
Here the Profiler derives the same counter surface from the contention
model's solution of each recorded co-location scenario, adds measurement
noise, and (optionally) persists everything to the in-memory database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.features import BASELINE, Feature
from ..cluster.scenario import Scenario, ScenarioDataset
from ..cluster.source import ScenarioSource, resolve_source_argument
from ..perfmodel.batch import (
    LaneSolution,
    ScenarioBatch,
    resolve_solver_mode,
    solve_colocation_batch,
    solve_colocation_many,
)
from ..perfmodel.contention import RunningInstance, solve_colocation
from ..perfmodel.machine import MachinePerf
from .database import Column, Database, Schema
from .kernel import N_BASE_METRICS, derive_metrics
from .metrics import (
    TEMPORAL_BASES,
    MetricLevel,
    MetricSpec,
    all_metric_specs,
    temporal_metric_name,
)
from .noise import MeasurementNoise

__all__ = [
    "ProfiledBatch",
    "ProfiledDataset",
    "Profiler",
    "format_command",
    "parse_command",
]

#: Rows per contention solve block.  Every profile path (in-memory,
#: store tables, worker tasks) blocks at this size, which bounds the
#: lane arrays' working set and keeps the paths bit-identical.
_SOLVE_BLOCK_ROWS = 4096


def format_command(instance: RunningInstance) -> str:
    """Render the container launch command the Profiler records.

    Mirrors the paper's practice of logging "the commands and
    configurations of running jobs" so a scenario can be reconstructed
    later by the Replayer.
    """
    return (
        f"docker run --cpus {instance.signature.vcpus} "
        f"--memory {instance.signature.dram_gb:g}g "
        f"--job {instance.signature.name} --load {instance.load:.4f}"
    )


def parse_command(command: str) -> tuple[str, float]:
    """Recover (job name, load) from a recorded launch command."""
    tokens = command.split()
    try:
        job = tokens[tokens.index("--job") + 1]
        load = float(tokens[tokens.index("--load") + 1])
    except (ValueError, IndexError):
        raise ValueError(f"unparseable job command: {command!r}") from None
    return job, load


@dataclass(frozen=True)
class ProfiledDataset:
    """Scenario source + its collected raw-metric matrix.

    Attributes
    ----------
    dataset:
        The scenarios (identity, recorded instances, weights) — any
        :class:`~repro.cluster.ScenarioSource`, in-memory or sharded.
    machine:
        The machine configuration the metrics were collected under.
    specs:
        Registry entries for each matrix column.
    matrix:
        ``(n_scenarios, n_metrics)`` raw counter values.
    """

    dataset: ScenarioSource
    machine: MachinePerf
    specs: tuple[MetricSpec, ...]
    matrix: np.ndarray

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    @property
    def n_scenarios(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_metrics(self) -> int:
        return self.matrix.shape[1]

    def column(self, metric: str) -> np.ndarray:
        """Values of one metric across all scenarios."""
        try:
            idx = self.metric_names.index(metric)
        except ValueError:
            raise KeyError(f"unknown metric {metric!r}") from None
        return self.matrix[:, idx].copy()


class ProfiledBatch:
    """One profiled slice of a streaming source (``Profiler.iter_profile``).

    Attributes
    ----------
    start_row:
        Global row index of the batch's first scenario.
    dataset:
        The decoded scenarios of this batch only.  Store-backed batches
        are profiled straight from the shard's columnar tables, so this
        decodes lazily from the memory-mapped shard on first access —
        consumers that only need the matrix never pay for it.
    matrix:
        ``(len(dataset), n_metrics)`` raw counter values, noise applied.
    """

    __slots__ = ("start_row", "matrix", "_dataset")

    def __init__(
        self,
        *,
        start_row: int,
        dataset,
        matrix: np.ndarray,
    ) -> None:
        self.start_row = start_row
        self.matrix = matrix
        self._dataset = dataset

    @property
    def dataset(self) -> ScenarioDataset:
        if callable(self._dataset):
            self._dataset = self._dataset()
        return self._dataset


class Profiler:
    """Collects the Figure 6 metric surface for every scenario.

    Parameters
    ----------
    noise_sigma:
        Relative measurement noise (0 disables).
    seed:
        Seed for the noise stream.
    database:
        Optional :class:`Database`; when given, scenario metadata
        (including replayable job commands) and all metric samples are
        persisted into ``scenarios`` and ``samples`` tables.
    temporal_samples:
        When > 0, the Profiler additionally observes each scenario at
        this many jittered user-demand points and appends temporal
        standard-deviation metrics (paper §4.1's "IPC: 1.4±0.5"
        enrichment) for the :data:`TEMPORAL_BASES` counters.
    temporal_jitter:
        Relative magnitude of the demand jitter.
    per_job_metrics:
        Job names to add per-job presence metrics for
        (``InstanceCount-<job>`` and ``VCPUShare-<job>``).  The paper
        notes per-job metrics "would greatly improve the estimation
        accuracy for the job" but inflate the feature space, so they are
        recommended "only when necessary" (§5.3) — hence opt-in.
    solver:
        Contention-solver path for multi-scenario collection:
        ``"scalar"``, ``"batched"``, or ``"auto"`` (batched whenever a
        call holds more than one scenario).  The paths are
        bit-identical; the knob exists to keep the scalar reference
        selectable.
    memo:
        Optional content-addressed solve memo (``"off"``/``None``,
        ``"memory"``, ``"store:<path>"``, or a live
        :class:`~repro.perfmodel.memo.SolveMemo`).  Multi-scenario
        collection consults it before solving; spec strings ship to
        executor workers, each resolving its own per-process instance.
    """

    def __init__(
        self,
        *,
        noise_sigma: float = 0.02,
        seed: int = 7,
        database: Database | None = None,
        temporal_samples: int = 0,
        temporal_jitter: float = 0.15,
        per_job_metrics: tuple[str, ...] = (),
        solver: str = "auto",
        memo=None,
    ) -> None:
        if temporal_samples < 0:
            raise ValueError("temporal_samples must be non-negative")
        resolve_solver_mode(solver, 0)  # validate eagerly
        if isinstance(memo, str):
            from ..perfmodel.memo import validate_memo_spec

            validate_memo_spec(memo)  # validate eagerly, resolve lazily
        if not 0.0 <= temporal_jitter < 1.0:
            raise ValueError("temporal_jitter must be in [0, 1)")
        if len(set(per_job_metrics)) != len(per_job_metrics):
            raise ValueError("per_job_metrics must not repeat job names")
        self.temporal_samples = temporal_samples
        self.temporal_jitter = temporal_jitter
        self.per_job_metrics = tuple(per_job_metrics)
        specs = list(all_metric_specs(include_temporal=temporal_samples > 0))
        for job in self.per_job_metrics:
            specs.append(
                MetricSpec(
                    name=f"InstanceCount-{job}",
                    base=f"InstanceCount-{job}",
                    level=None,
                    category="per-job",
                    unit="count",
                    description=f"Instances of {job} in the co-location",
                )
            )
            specs.append(
                MetricSpec(
                    name=f"VCPUShare-{job}",
                    base=f"VCPUShare-{job}",
                    level=None,
                    category="per-job",
                    unit="fraction",
                    description=f"{job}'s share of allocated vCPUs",
                )
            )
        self.specs = tuple(specs)
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.solver = solver
        self.memo = memo
        self.database = database
        if database is not None:
            self._ensure_tables(database)

    # ------------------------------------------------------------------
    def profile(
        self,
        source: ScenarioSource | None = None,
        feature: Feature = BASELINE,
        *,
        runtime=None,
        executor=None,
        dataset: ScenarioDataset | None = None,
    ) -> ProfiledDataset:
        """Collect metrics for every scenario under *feature*'s machine.

        Accepts any :class:`~repro.cluster.ScenarioSource`: an
        in-memory dataset is profiled in one piece (the historical
        path, unchanged), while a sharded store is profiled
        batch-by-batch through :meth:`iter_profile` and the rows
        assembled into one matrix.  The noise stream is consumed in
        global row order either way, so the matrix is bit-identical
        across backings, runtimes, dispatch modes and batch sizes.

        ``runtime`` optionally fans the noise-free collection out: it
        accepts a :class:`repro.runtime.RuntimeConfig`, an executor
        instance, a spec string (``"process:4"``), or an
        already-resolved runtime.  ``None`` keeps the historical inline
        path (no executor machinery, no environment lookup).
        Measurement noise is applied in the parent in row order from
        the single shared stream.  The legacy ``executor=`` and
        ``dataset=`` keywords still work with a
        :class:`DeprecationWarning`.
        """
        from ..obs import inc, span
        from .._deprecations import resolve_renamed_kwarg

        runtime = resolve_renamed_kwarg(
            runtime,
            executor,
            owner="Profiler.profile",
            old_name="executor",
            new_name="runtime",
            required=False,
        )
        source = resolve_source_argument(
            source, dataset, owner="Profiler.profile"
        )
        if not isinstance(source, ScenarioDataset):
            return self._profile_streaming(source, feature, runtime)
        dataset = source
        with span(
            "profiler.profile",
            n_scenarios=len(dataset),
            n_metrics=len(self.specs),
            feature=feature.name,
        ):
            machine = feature(dataset.shape.perf)
            noise = MeasurementNoise(
                self.noise_sigma, np.random.default_rng(self.seed)
            )
            if runtime is not None:
                from ..runtime.config import resolve_runtime

                resolved = resolve_runtime(runtime)
                try:
                    clean = self._collect_all(dataset, machine, resolved)
                finally:
                    if resolved is not runtime:
                        resolved.close()
            else:
                clean = self.collect_many(dataset.scenarios, dataset, machine)
            matrix, _ = self._finish_batch(dataset, clean, noise)
            inc("scenarios_profiled", len(dataset))
        return ProfiledDataset(
            dataset=dataset, machine=machine, specs=self.specs, matrix=matrix
        )

    def _profile_streaming(
        self, source: ScenarioSource, feature: Feature, runtime
    ) -> ProfiledDataset:
        """profile() over a non-resident source, via iter_profile."""
        from ..obs import span

        with span(
            "profiler.profile",
            n_scenarios=len(source),
            n_metrics=len(self.specs),
            feature=feature.name,
            streaming=True,
        ):
            machine = feature(source.shape.perf)
            matrix = np.empty((len(source), len(self.specs)))
            for batch in self.iter_profile(
                source, feature, runtime=runtime
            ):
                stop = batch.start_row + batch.matrix.shape[0]
                matrix[batch.start_row : stop] = batch.matrix
        return ProfiledDataset(
            dataset=source, machine=machine, specs=self.specs, matrix=matrix
        )

    def iter_profile(
        self,
        source: ScenarioSource | None = None,
        feature: Feature = BASELINE,
        *,
        runtime=None,
        executor=None,
        window: int | None = None,
        noise_offset: int = 0,
        dataset: ScenarioDataset | None = None,
    ):
        """Profile a source batch-by-batch, yielding :class:`ProfiledBatch`.

        ``noise_offset`` advances the noise stream past that many rows
        before the first batch: profiling rows ``[w, n)`` of a source
        with ``noise_offset=w`` gives each row exactly the noise a full
        profile of all ``n`` rows would — the incremental-refit hook.

        This is the streaming producer behind the out-of-core fit: at
        most a *window* of batches is resident at once, so peak memory
        is bounded by batch size rather than dataset size.  With a
        parallel *runtime* over a shard-backed store, dispatch goes
        zero-copy: workers receive :class:`~repro.runtime.ShardRef`
        row-range descriptors and memory-map the store themselves, so
        no scenario payload crosses the process boundary in either
        direction.  Other sources (or ``dispatch="pickle"``) ship each
        batch as one pickled chunk — chunks align with shards, and a
        :class:`~repro.runtime.CheckpointJournal` resumes at that
        granularity.  Both item kinds are pure content, so a resumed
        run may use a different executor or window and still hit its
        journal.

        Measurement noise is applied in the parent, in global row
        order, from the single seeded stream — yielded matrices are
        bit-identical to the in-memory path's rows under any runtime,
        worker count, dispatch mode or batch size.  The legacy
        ``executor=`` and ``dataset=`` keywords still work with a
        :class:`DeprecationWarning`.
        """
        from .._deprecations import resolve_renamed_kwarg
        from ..obs import inc, span

        runtime = resolve_renamed_kwarg(
            runtime,
            executor,
            owner="Profiler.iter_profile",
            old_name="executor",
            new_name="runtime",
            required=False,
        )
        source = resolve_source_argument(
            source, dataset, owner="Profiler.iter_profile"
        )
        machine = feature(source.shape.perf)
        noise = MeasurementNoise(
            self.noise_sigma, np.random.default_rng(self.seed)
        )
        if noise_offset < 0:
            raise ValueError("noise_offset must be non-negative")
        noise.skip(noise_offset, len(self.specs))
        start_row = 0
        if runtime is None:
            # Stores and store views hand out shard tables, profiled
            # without decoding a scenario; other sources decoded batches.
            iter_tables = getattr(source, "iter_tables", None)
            batches = iter_tables() if iter_tables else source.iter_batches()
            for batch in batches:
                with span(
                    "profiler.profile_batch",
                    n_scenarios=len(batch),
                    start_row=start_row,
                    feature=feature.name,
                ):
                    if isinstance(batch, ScenarioDataset):
                        clean = self.collect_many(
                            batch.scenarios, batch, machine
                        )
                        decoded = batch
                    else:
                        clean = self.collect_tables(
                            batch.scenario_table,
                            batch.instance_table,
                            job_names=batch.job_names,
                            signatures=batch.signatures,
                            shape=batch.shape,
                            machine=machine,
                        )
                        decoded = batch.decode
                    matrix, decoded = self._finish_batch(decoded, clean, noise)
                inc("scenarios_profiled", len(batch))
                yield ProfiledBatch(
                    start_row=start_row, dataset=decoded, matrix=matrix
                )
                start_row += len(batch)
            return

        import copy
        import time

        from ..runtime.config import record_stage_cost, resolve_runtime
        from ..runtime.dispatch import DispatchError, choose_dispatch
        from ..runtime.executor import ProcessExecutor
        from ..runtime.resilience import TaskFailure

        resolved = resolve_runtime(runtime)
        try:
            pool = resolved.executor
            config = resolved.config
            mode = choose_dispatch(
                config.dispatch,
                store_backed=(
                    hasattr(source, "shard_refs")
                    and getattr(source, "supports_shard_refs", True)
                ),
                parallel=isinstance(pool, ProcessExecutor),
                journaled=getattr(pool, "checkpoint", None) is not None,
            )
            if mode == "shm":
                if config.dispatch == "shm":
                    raise DispatchError(
                        "dispatch='shm' does not apply to streaming "
                        "profiling; use 'shardref' (for stores) or "
                        "'pickle'"
                    )
                mode = "pickle"  # auto: streaming stays on batch chunks
            if window is None:
                window = 2 * getattr(pool, "max_workers", 2)

            if mode == "shardref":
                yield from self._iter_profile_shardref(
                    source, feature, machine, noise, pool, config, window
                )
                return

            worker_profiler = copy.copy(self)
            worker_profiler.database = None
            task = _CollectBatchTask(
                profiler=worker_profiler, machine=machine
            )
            pending: list[ScenarioDataset] = []

            def drain():
                nonlocal start_row
                begin = time.perf_counter()
                cleans = pool.map(
                    task, list(pending), chunk_size=1, stage="profile"
                )
                record_stage_cost(
                    "profile",
                    time.perf_counter() - begin,
                    sum(len(batch) for batch in pending),
                )
                for batch, clean in zip(pending, cleans):
                    if isinstance(clean, TaskFailure):
                        raise RuntimeError(
                            f"profiling lost the batch at row {start_row} "
                            f"({clean.error}); a partial metric matrix "
                            "would skew every downstream stage — rerun "
                            "with a non-skipping failure policy"
                        )
                    with span(
                        "profiler.profile_batch",
                        n_scenarios=len(batch),
                        start_row=start_row,
                        feature=feature.name,
                    ):
                        matrix, _ = self._finish_batch(batch, clean, noise)
                    inc("scenarios_profiled", len(batch))
                    yield ProfiledBatch(
                        start_row=start_row, dataset=batch, matrix=matrix
                    )
                    start_row += len(batch)
                pending.clear()

            for batch in source.iter_batches():
                pending.append(batch)
                if len(pending) >= window:
                    yield from drain()
            if pending:
                yield from drain()
        finally:
            if resolved is not runtime:
                resolved.close()

    def _iter_profile_shardref(
        self, source, feature, machine, noise, pool, config, window
    ):
        """Zero-copy streaming dispatch over a shard-backed source.

        Refs are iterated in global row order (the noise stream
        requires it) and dispatched *window* refs at a time with one
        ref per chunk; refs are cost-sized, so several may cover one
        shard.  Worker matrices are reassembled into *shard-aligned*
        batches before yielding — consumers accumulate per batch, so
        batch boundaries must match the serial path's (one batch per
        shard) for the whole fit to stay bit-identical.  Workers
        return only metric matrices; the yielded batch's scenarios
        decode lazily from the parent's own shard mapping, and only
        when a consumer actually touches them (or eagerly when
        persistence needs them).
        """
        import copy
        import dataclasses
        import time

        from ..obs import inc, span
        from ..runtime.config import cost_aware_block, record_stage_cost
        from ..runtime.resilience import TaskFailure

        workers = getattr(pool, "max_workers", 1)
        if isinstance(config.chunk_size, int):
            rows_per_ref = config.chunk_size
        else:
            rows_per_ref = cost_aware_block(len(source), workers, "profile")
        refs = source.shard_refs(rows_per_ref=rows_per_ref)
        worker_profiler = copy.copy(self)
        worker_profiler.database = None
        task = _CollectShardRefTask(
            profiler=worker_profiler,
            machine=machine,
            job_names=tuple(source.job_names),
            signatures=dict(source.signatures),
            shape=source.shape,
        )
        start_row = 0
        shard_cleans: list[np.ndarray] = []
        shard_ref = None  # first ref of the shard being assembled

        def flush_shard():
            nonlocal start_row, shard_cleans, shard_ref
            clean = (
                np.concatenate(shard_cleans, axis=0)
                if len(shard_cleans) > 1
                else shard_cleans[0]
            )
            whole = dataclasses.replace(
                shard_ref,
                row_start=0,
                row_stop=shard_ref.shard_rows,
                global_row=shard_ref.global_row - shard_ref.row_start,
            )
            with span(
                "profiler.profile_batch",
                n_scenarios=clean.shape[0],
                start_row=start_row,
                feature=feature.name,
            ):
                matrix, dataset_value = self._finish_batch(
                    lambda t=task, r=whole: _decode_ref(t, r), clean, noise
                )
            inc("scenarios_profiled", clean.shape[0])
            yield ProfiledBatch(
                start_row=start_row, dataset=dataset_value, matrix=matrix
            )
            start_row += clean.shape[0]
            shard_cleans = []
            shard_ref = None

        for group_start in range(0, len(refs), window):
            group = refs[group_start : group_start + window]
            begin = time.perf_counter()
            cleans = pool.map(task, group, chunk_size=1, stage="profile")
            record_stage_cost(
                "profile",
                time.perf_counter() - begin,
                sum(ref.rows for ref in group),
            )
            for ref, clean in zip(group, cleans):
                if isinstance(clean, TaskFailure):
                    raise RuntimeError(
                        "profiling lost the shard ref at global row "
                        f"{ref.global_row} ({clean.error}); a partial "
                        "metric matrix would skew every downstream stage "
                        "— rerun with a non-skipping failure policy"
                    )
                if (
                    shard_ref is not None
                    and ref.shard_index != shard_ref.shard_index
                ):
                    yield from flush_shard()
                if shard_ref is None:
                    shard_ref = ref
                shard_cleans.append(clean)
        if shard_cleans:
            yield from flush_shard()

    def _finish_batch(self, batch, clean: np.ndarray, noise: MeasurementNoise):
        """Apply noise in row order and persist: the parent-only steps.

        *batch* is the decoded batch or a callable decoding it, which
        only persistence calls; returns ``(matrix, batch)`` with *batch*
        decoded if persistence needed it.
        """
        matrix = noise.apply(clean, self.specs)
        if self.database is not None:
            if callable(batch):
                batch = batch()
            for scenario, values in zip(batch.scenarios, matrix):
                self._persist(scenario, values)
        return matrix, batch

    def _collect_all(
        self,
        dataset: ScenarioDataset,
        machine: MachinePerf,
        resolved,
    ) -> np.ndarray:
        """Fan collection out over a resolved runtime.

        The dispatch mode decides what crosses the process boundary.
        Under ``shm`` the dataset is columnarised once in the parent
        (the store codec's tables), published through shared memory,
        and workers receive bare ``(start, stop)`` row ranges — the
        batched analogue of the historical range layout with the
        per-chunk scenario pickling removed.  ``pickle`` ships one
        pickled row range per task, for the batched solver and the
        scalar reference alike (``collect_many`` honours ``solver=``).
        Either way the row blocking is identical, so results are
        bit-identical across modes.

        The dispatched profiler copy drops the database handle (it is
        not picklable and persistence must stay in the parent anyway);
        a row range degraded to a ``TaskFailure`` by ``retry_then_skip``
        is a hard error here — a profiled matrix with missing rows
        would silently skew everything downstream.
        """
        import copy
        import time

        from ..runtime.config import cost_aware_block, record_stage_cost
        from ..runtime.dispatch import choose_dispatch
        from ..runtime.executor import ProcessExecutor

        pool = resolved.executor
        config = resolved.config
        batched = resolve_solver_mode(self.solver, len(dataset)) == "batched"
        mode = choose_dispatch(
            config.dispatch,
            store_backed=False,
            parallel=isinstance(pool, ProcessExecutor),
            journaled=getattr(pool, "checkpoint", None) is not None,
        )
        if mode == "shm" and not batched:
            mode = "pickle"  # the scalar reference keeps pickled scenarios
        signatures = None
        if mode == "shm":
            signatures = _signature_catalogue(dataset)
            if signatures is None:
                # Conflicting signatures under one job name cannot be
                # interned into the columnar tables; ship scenarios.
                mode = "pickle"

        workers = getattr(pool, "max_workers", 1)
        if isinstance(config.chunk_size, int):
            block = config.chunk_size
        else:
            block = cost_aware_block(len(dataset), workers, "profile")
        worker_profiler = copy.copy(self)
        worker_profiler.database = None
        ranges = [
            (start, min(start + block, len(dataset)))
            for start in range(0, len(dataset), block)
        ]

        if mode == "shm":
            from ..runtime.dispatch import SharedTables
            from ..store.format import encode_shard

            job_index: dict[str, int] = {}
            scenario_table, instance_table = encode_shard(
                dataset.scenarios, job_index
            )
            job_names = tuple(sorted(job_index, key=job_index.__getitem__))
            tables = SharedTables(scenario_table, instance_table)
            shared_task = _CollectSharedTask(
                profiler=worker_profiler,
                machine=machine,
                tables=tables.ref,
                job_names=job_names,
                signatures=signatures,
                shape=dataset.shape,
            )
            begin = time.perf_counter()
            try:
                blocks = pool.map(
                    shared_task, ranges, chunk_size=1, stage="profile"
                )
            finally:
                tables.release()
            record_stage_cost(
                "profile", time.perf_counter() - begin, len(dataset)
            )
            return _reassemble_blocks(ranges, blocks, len(self.specs))

        range_task = _CollectRangeTask(
            profiler=worker_profiler, dataset=dataset, machine=machine
        )
        begin = time.perf_counter()
        blocks = pool.map(range_task, ranges, chunk_size=1, stage="profile")
        record_stage_cost(
            "profile", time.perf_counter() - begin, len(dataset)
        )
        return _reassemble_blocks(ranges, blocks, len(self.specs))

    def collect(
        self,
        scenario: Scenario,
        dataset: ScenarioDataset,
        machine: MachinePerf,
    ) -> np.ndarray:
        """Noise-free metric vector for one scenario (registry order)."""
        batch = ScenarioBatch.from_instances([scenario.instances])
        lanes = LaneSolution.from_performances(
            machine, [solve_colocation(machine, list(scenario.instances))]
        )
        return self._metrics(batch, lanes, dataset.shape, [scenario])[0]

    def collect_many(
        self,
        scenarios,
        dataset: ScenarioDataset,
        machine: MachinePerf,
        *,
        block_rows: int = _SOLVE_BLOCK_ROWS,
    ) -> np.ndarray:
        """Noise-free ``(len(scenarios), n_metrics)`` matrix, batch-solved.

        Bit-identical to calling :meth:`collect` per scenario; the
        contention fixed point runs through the solver path selected by
        ``self.solver`` and large populations are processed in blocks
        of *block_rows* so the batch working set stays bounded.
        """
        clean = np.empty((len(scenarios), len(self.specs)))
        for start in range(0, len(scenarios), block_rows):
            block = scenarios[start : start + block_rows]
            instances = [scenario.instances for scenario in block]
            batch = ScenarioBatch.from_instances(instances)
            lanes = self._solve(machine, batch, instances)
            clean[start : start + len(block)] = self._metrics(
                batch, lanes, dataset.shape, block
            )
        return clean

    def collect_tables(
        self,
        scenario_table: np.ndarray,
        instance_table: np.ndarray,
        *,
        job_names,
        signatures: dict,
        shape,
        machine: MachinePerf,
    ) -> np.ndarray:
        """Noise-free metric matrix for a columnar scenario-table slice.

        The entry point of every store-backed profile: the tables arrive
        memory-mapped (the serial store path, shard refs) or
        shared-memory backed, the solver's batch is packed straight from
        them via :meth:`ScenarioBatch.from_tables`, and the metric
        kernel reads the solver's lane arrays — no scenario is decoded
        (only the opt-in temporal metrics decode their block).  The
        result is bit-identical to :meth:`collect_many` over the decoded
        slice (same ``_SOLVE_BLOCK_ROWS`` solve blocking, same float64
        loads).
        """
        from ..store.format import decode_shard

        names = list(job_names)
        clean = np.empty((len(scenario_table), len(self.specs)))
        for start in range(0, len(scenario_table), _SOLVE_BLOCK_ROWS):
            rows = scenario_table[start : start + _SOLVE_BLOCK_ROWS]
            batch = ScenarioBatch.from_tables(
                rows, instance_table, names, signatures
            )
            lanes = self._solve(machine, batch)
            clean[start : start + len(rows)] = self._metrics(
                batch,
                lanes,
                shape,
                lambda rows=rows: decode_shard(
                    rows, instance_table, names, signatures, shape
                ).scenarios,
            )
        return clean

    def _solve(
        self, machine: MachinePerf, batch: ScenarioBatch, instances=None
    ) -> LaneSolution:
        """Solve *batch* through the configured solver path and memo.

        The batched solver reads the batch's arrays directly; the scalar
        reference and the memo take instance objects (*instances*, or
        rebuilt from the batch) and their solutions are packed into the
        same lane arrays — bit-identical either way.
        """
        if (
            self.memo is None
            and resolve_solver_mode(self.solver, len(batch)) == "batched"
        ):
            return solve_colocation_batch(machine, batch)
        solutions = solve_colocation_many(
            machine,
            batch.instances() if instances is None else instances,
            solver=self.solver,
            memo=self.memo,
        )
        return LaneSolution.from_performances(machine, solutions)

    def _metrics(
        self, batch: ScenarioBatch, lanes: LaneSolution, shape, scenarios
    ) -> np.ndarray:
        """Registry-ordered noise-free rows of one solved block.

        *scenarios* (the block's scenarios, or a callable decoding them)
        is read only by the opt-in temporal metrics, whose per-row
        sampler inserts its columns between the machine-only block and
        the per-job columns.
        """
        clean = derive_metrics(
            batch, lanes, shape=shape, per_job_metrics=self.per_job_metrics
        )
        if self.temporal_samples == 0:
            return clean
        if callable(scenarios):
            scenarios = scenarios()
        n_base = N_BASE_METRICS
        column = {spec.name: i for i, spec in enumerate(self.specs[:n_base])}
        bases = [
            f"{base}-{level.value}"
            for level in (MetricLevel.MACHINE, MetricLevel.HP)
            for base in TEMPORAL_BASES
        ]
        names = [spec.name for spec in self.specs[n_base : n_base + len(bases)]]
        temporal = np.empty((len(clean), len(names)))
        for row, (scenario, values) in enumerate(zip(scenarios, clean)):
            stds = self._temporal_metrics(
                scenario,
                lanes.machine,
                {name: float(values[column[name]]) for name in bases},
            )
            temporal[row] = [stds[name] for name in names]
        return np.concatenate(
            [clean[:, :n_base], temporal, clean[:, n_base:]], axis=1
        )

    def _temporal_metrics(
        self,
        scenario: Scenario,
        machine: MachinePerf,
        base_values: dict[str, float],
    ) -> dict[str, float]:
        """Std-dev of key counters over jittered user-demand samples.

        Deterministic per (profiler seed, scenario id): load jitter uses a
        dedicated stream so temporal metrics never perturb the main noise
        sequence.

        Vectorised across samples: the jitter draw is one array call
        (``Generator.uniform(size=(S, n))`` consumes doubles in C order,
        i.e. sample-major instance-minor — the same stream as the
        historical nested scalar loop), the solves are one batch, and the
        four :data:`TEMPORAL_BASES` reduce over (sample × instance)
        counter matrices instead of building ~50 metrics per sample.
        Bit-identical to the per-sample loop kept as the test oracle
        (``temporal_metrics_scalar`` in ``tests/telemetry``): row reductions
        of a C-contiguous matrix apply the same pairwise summation as the
        per-subset 1-D arrays, and the instruction-weighted LLC-MPKI keeps
        the same 1-D BLAS dot call per row.  High-priority membership is
        a signature property, so the HP column subset is fixed across
        samples.
        """
        rng = np.random.default_rng((self.seed, scenario.scenario_id))
        n_samples = self.temporal_samples
        instances = scenario.instances
        n_inst = len(instances)

        factors = 1.0 + rng.uniform(
            -self.temporal_jitter,
            self.temporal_jitter,
            size=(n_samples, n_inst),
        )
        base_loads = np.array([inst.load for inst in instances])
        loads = np.clip(base_loads * factors, 0.05, 1.0)
        jittered_samples = [
            [
                RunningInstance(signature=inst.signature, load=float(load))
                for inst, load in zip(instances, row)
            ]
            for row in loads
        ]
        solutions = solve_colocation_many(
            machine, jittered_samples, solver=self.solver, memo=self.memo
        )

        # One extraction pass over the solved samples.
        mips = np.empty((n_samples, n_inst))
        busy = np.empty((n_samples, n_inst))
        freq = np.empty((n_samples, n_inst))
        llc_mpki = np.empty((n_samples, n_inst))
        dram_gbps = np.empty((n_samples, n_inst))
        for row, solution in enumerate(solutions):
            perf = solution.instances
            mips[row] = [p.mips for p in perf]
            busy[row] = [p.busy_threads for p in perf]
            freq[row] = [p.frequency_ghz for p in perf]
            llc_mpki[row] = [p.llc_mpki for p in perf]
            dram_gbps[row] = [p.dram_gbps for p in perf]

        def level_series(columns: np.ndarray | None) -> dict[str, np.ndarray]:
            if columns is not None and columns.size == 0:
                zeros = np.zeros(n_samples)
                return {base: zeros for base in TEMPORAL_BASES}
            if columns is None:
                m, b, f = mips, busy, freq
                llc, dram = llc_mpki, dram_gbps
            else:
                m = np.ascontiguousarray(mips[:, columns])
                b = np.ascontiguousarray(busy[:, columns])
                f = np.ascontiguousarray(freq[:, columns])
                llc = np.ascontiguousarray(llc_mpki[:, columns])
                dram = np.ascontiguousarray(dram_gbps[:, columns])
            instr_rate = m * 1e6
            total_instr = instr_rate.sum(axis=1)
            cycles = b * f * 1e9
            total_cycles = cycles.sum(axis=1)
            ipc = np.divide(
                total_instr,
                total_cycles,
                out=np.zeros(n_samples),
                where=total_cycles > 0,
            )
            weighted_mpki = np.empty(n_samples)
            for row in range(n_samples):
                w_instr = (
                    instr_rate[row] / total_instr[row]
                    if total_instr[row] > 0
                    else instr_rate[row]
                )
                weighted_mpki[row] = llc[row] @ w_instr
            return {
                "MIPS": m.sum(axis=1),
                "IPC": ipc,
                "LLC-MPKI": weighted_mpki,
                "MemTotalGBps": dram.sum(axis=1),
            }

        hp_columns = np.flatnonzero(
            [inst.signature.is_high_priority for inst in instances]
        )
        per_level = {
            MetricLevel.MACHINE: level_series(None),
            MetricLevel.HP: level_series(hp_columns),
        }
        out = {}
        series = np.empty(n_samples + 1)
        for level, values in per_level.items():
            for base in TEMPORAL_BASES:
                series[0] = base_values[f"{base}-{level.value}"]
                series[1:] = values[base]
                out[temporal_metric_name(base, level)] = float(
                    series.std(ddof=0)
                )
        return out

    # ------------------------------------------------------------------
    def _ensure_tables(self, database: Database) -> None:
        if "scenarios" not in database.table_names:
            database.create_table(
                "scenarios",
                Schema(
                    columns=(
                        Column("scenario_id", int),
                        Column("key_text", str),
                        Column("n_containers", int),
                        Column("n_occurrences", int),
                        Column("total_duration_s", float),
                        Column("commands", str),
                    ),
                    primary_key="scenario_id",
                ),
            )
        if "samples" not in database.table_names:
            database.create_table(
                "samples",
                Schema(
                    columns=(
                        Column("scenario_id", int),
                        Column("metric", str),
                        Column("value", float),
                    )
                ),
            )

    def _persist(self, scenario: Scenario, values: np.ndarray) -> None:
        assert self.database is not None
        scenarios = self.database.table("scenarios")
        try:
            scenarios.get(scenario.scenario_id)
        except KeyError:
            scenarios.insert(
                {
                    "scenario_id": scenario.scenario_id,
                    "key_text": ",".join(
                        f"{name}x{count}" for name, count in scenario.key
                    ),
                    "n_containers": len(scenario.instances),
                    "n_occurrences": scenario.n_occurrences,
                    "total_duration_s": scenario.total_duration_s,
                    "commands": ";".join(
                        format_command(inst) for inst in scenario.instances
                    ),
                }
            )
        samples = self.database.table("samples")
        samples.insert_many(
            {
                "scenario_id": scenario.scenario_id,
                "metric": spec.name,
                "value": float(value),
            }
            for spec, value in zip(self.specs, values)
        )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CollectRangeTask:
    """Picklable row-range profiling task for executor fan-out.

    The item is a ``(start, stop)`` row range; the worker solves the
    block through the profiler's solver path (one contention batch, or
    scenario by scenario under ``solver="scalar"``) and returns its
    metric matrix.
    """

    profiler: "Profiler"
    dataset: ScenarioDataset
    machine: MachinePerf

    def __call__(self, row_range: tuple[int, int]) -> np.ndarray:
        start, stop = row_range
        return self.profiler.collect_many(
            self.dataset.scenarios[start:stop], self.dataset, self.machine
        )


@dataclass(frozen=True)
class _CollectShardRefTask:
    """Picklable shard-ref profiling task: the worker reads the store.

    The item is a :class:`~repro.runtime.ShardRef`; the worker
    memory-maps (and caches) the referenced shard, slices its row
    range, and profiles it through :meth:`Profiler.collect_tables`.
    Refs are pure content, so checkpoint-journal keys and injected
    fault fates survive re-runs unchanged.
    """

    profiler: "Profiler"
    machine: MachinePerf
    job_names: tuple
    signatures: dict
    shape: object

    def __call__(self, ref) -> np.ndarray:
        from ..runtime.dispatch import shard_tables

        scenario_table, instance_table = shard_tables(ref)
        return self.profiler.collect_tables(
            scenario_table[ref.row_start : ref.row_stop],
            instance_table,
            job_names=self.job_names,
            signatures=self.signatures,
            shape=self.shape,
            machine=self.machine,
        )


@dataclass(frozen=True)
class _CollectSharedTask:
    """Picklable shared-memory profiling task for in-memory datasets.

    The dataset's columnar tables live in the parent's shared-memory
    segments (``tables`` names them); the item is a bare
    ``(start, stop)`` row range, so the per-chunk payload is a few
    hundred bytes regardless of scenario count.
    """

    profiler: "Profiler"
    machine: MachinePerf
    tables: object
    job_names: tuple
    signatures: dict
    shape: object

    def __call__(self, row_range: tuple[int, int]) -> np.ndarray:
        from ..runtime.dispatch import attach_shared_tables

        start, stop = row_range
        scenario_table, instance_table = attach_shared_tables(self.tables)
        return self.profiler.collect_tables(
            scenario_table[start:stop],
            instance_table,
            job_names=self.job_names,
            signatures=self.signatures,
            shape=self.shape,
            machine=self.machine,
        )


def _decode_ref(task: _CollectShardRefTask, ref) -> ScenarioDataset:
    """Decode one ref's scenarios from the parent's own shard mapping."""
    from ..runtime.dispatch import shard_tables
    from ..store.format import decode_shard

    scenario_table, instance_table = shard_tables(ref)
    return decode_shard(
        scenario_table[ref.row_start : ref.row_stop],
        instance_table,
        list(task.job_names),
        task.signatures,
        task.shape,
    )


def _signature_catalogue(dataset: ScenarioDataset) -> dict | None:
    """Job-name → signature map, or ``None`` if any name is ambiguous."""
    signatures: dict = {}
    for scenario in dataset.scenarios:
        for instance in scenario.instances:
            name = instance.signature.name
            existing = signatures.get(name)
            if existing is None:
                signatures[name] = instance.signature
            elif existing != instance.signature:
                return None
    return signatures


def _reassemble_blocks(ranges, blocks, n_metrics: int) -> np.ndarray:
    """Stack per-range worker matrices back into one matrix."""
    from ..runtime.resilience import TaskFailure

    lost_ranges = [
        row_range
        for row_range, block in zip(ranges, blocks)
        if isinstance(block, TaskFailure)
    ]
    if lost_ranges:
        raise RuntimeError(
            f"profiling lost {len(lost_ranges)} row range(s) "
            f"({lost_ranges[:5]}{'…' if len(lost_ranges) > 5 else ''}); "
            "a partial metric matrix would skew every downstream "
            "stage — rerun with a non-skipping failure policy"
        )
    if not blocks:
        return np.empty((0, n_metrics))
    return np.concatenate(blocks, axis=0)


@dataclass(frozen=True)
class _CollectBatchTask:
    """Picklable per-batch profiling task for streaming fan-out.

    The item *is* the batch dataset, so a checkpoint journal keys each
    chunk by batch content — independent of how batches were grouped
    into dispatch windows.  Each shard is solved as one contention
    batch through the profiler's solver knob (``collect_many`` falls
    back to per-scenario scalar solves when so configured).
    """

    profiler: "Profiler"
    machine: MachinePerf

    def __call__(self, batch: ScenarioDataset) -> np.ndarray:
        return self.profiler.collect_many(batch.scenarios, batch, self.machine)
