"""The Profiler: turns scenarios into raw metric vectors (paper §4.2).

The paper deploys a daemon to every server that periodically gathers
system and microarchitectural statistics (perf, topdown, /proc) and logs
them — with the commands of the running jobs — to a relational database.
Here the Profiler derives the same counter surface from the contention
model's solution of each recorded co-location scenario, adds measurement
noise, and (optionally) persists everything to the in-memory database.
"""

from __future__ import annotations

import copy
import itertools
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..cluster.features import BASELINE, Feature
from ..cluster.scenario import Scenario, ScenarioDataset
from ..cluster.source import ScenarioSource, resolve_source_argument
from ..perfmodel.batch import (
    LaneSolution,
    ScenarioBatch,
    solve_colocation_batch,
    solve_colocation_many,
)
from ..perfmodel.contention import RunningInstance
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
        memo=None,
    ) -> None:
        if temporal_samples < 0:
            raise ValueError("temporal_samples must be non-negative")
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
        batch's own columnar rows as one chunk — a store's are copied
        from its shard tables without decoding a scenario, an in-memory
        batch is encoded in the parent.  Chunks align with shards, and
        a :class:`~repro.runtime.CheckpointJournal` resumes at that
        granularity.  Either way one task profiles the rows
        (:class:`_CollectTask`), and both item kinds are pure content.

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

        from ..runtime.config import resolve_runtime
        from ..runtime.dispatch import DispatchError, choose_dispatch
        from ..runtime.executor import ProcessExecutor

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
                mode = "pickle"  # auto: streaming ships per-batch tables
            if window is None:
                window = 2 * getattr(pool, "max_workers", 2)
            if mode == "shardref":
                units, job_names, signatures = _shard_ref_units(
                    source, getattr(pool, "max_workers", 1), config.chunk_size
                )
            else:
                units, job_names, signatures = _table_units(source)
            task = self._task(machine, job_names, signatures, source.shape)
            yield from self._dispatch_units(
                units, task, pool, window, feature, noise
            )
        finally:
            if resolved is not runtime:
                resolved.close()

    def _task(self, machine, job_names, signatures, shape) -> "_CollectTask":
        """The worker task; its profiler copy drops the database handle
        (not picklable, and persistence stays in the parent)."""
        worker_profiler = copy.copy(self)
        worker_profiler.database = None
        return _CollectTask(
            profiler=worker_profiler,
            machine=machine,
            job_names=tuple(job_names),
            signatures=dict(signatures),
            shape=shape,
        )

    def _dispatch_units(self, units, task, pool, window, feature, noise):
        """Run streaming *units* on *pool*, yielding shard-aligned batches.

        Units arrive in global row order (the noise stream requires it)
        and are dispatched *window* at a time, one unit per chunk.  A
        shard may be split into several cost-sized units; their
        matrices are reassembled into one batch per shard before
        yielding — consumers accumulate per batch, so batch boundaries
        must match the serial path's for the whole fit to stay
        bit-identical.  Workers return only metric matrices; a batch's
        scenarios decode lazily in the parent, when a consumer (or
        persistence) touches them.
        """
        from ..obs import inc, span
        from ..runtime.config import record_stage_cost
        from ..runtime.resilience import TaskFailure

        start_row = 0
        parts: list[np.ndarray] = []
        units = iter(units)
        while group := list(itertools.islice(units, window)):
            begin = time.perf_counter()
            cleans = pool.map(
                task, [unit.item for unit in group], chunk_size=1, stage="profile"
            )
            record_stage_cost(
                "profile",
                time.perf_counter() - begin,
                sum(unit.rows for unit in group),
            )
            for unit, clean in zip(group, cleans):
                if isinstance(clean, TaskFailure):
                    raise RuntimeError(
                        f"profiling lost rows of the batch at row {start_row} "
                        f"({clean.error}); a partial metric matrix would "
                        "skew every downstream stage — rerun with a "
                        "non-skipping failure policy"
                    )
                parts.append(clean)
                if not unit.last:
                    continue
                clean = np.concatenate(parts) if len(parts) > 1 else parts[0]
                parts = []
                with span(
                    "profiler.profile_batch",
                    n_scenarios=clean.shape[0],
                    start_row=start_row,
                    feature=feature.name,
                ):
                    matrix, dataset = self._finish_batch(
                        unit.dataset, clean, noise
                    )
                inc("scenarios_profiled", clean.shape[0])
                yield ProfiledBatch(
                    start_row=start_row, dataset=dataset, matrix=matrix
                )
                start_row += clean.shape[0]

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
        """Fan an in-memory dataset's collection out over a runtime.

        The dataset is columnarised once in the parent (the store
        codec's tables) and cut into row ranges.  The dispatch mode
        decides only where a range's rows live: under ``shm`` the
        tables are published through shared memory and each item is a
        ``(SharedTableRef, start, stop)`` range; under ``pickle`` each
        item carries its own rows.  The row blocking is identical
        either way, so results are bit-identical across modes.

        A row range degraded to a ``TaskFailure`` by ``retry_then_skip``
        is a hard error here — a profiled matrix with missing rows
        would silently skew everything downstream.
        """
        from ..runtime.config import cost_aware_block, record_stage_cost
        from ..runtime.dispatch import SharedTables, choose_dispatch
        from ..runtime.executor import ProcessExecutor

        pool = resolved.executor
        config = resolved.config
        mode = choose_dispatch(
            config.dispatch,
            store_backed=False,
            parallel=isinstance(pool, ProcessExecutor),
            journaled=getattr(pool, "checkpoint", None) is not None,
        )
        signatures = dataset.signatures
        scenario_table, instance_table = _encode(dataset.scenarios, signatures)
        workers = getattr(pool, "max_workers", 1)
        if isinstance(config.chunk_size, int):
            block = config.chunk_size
        else:
            block = cost_aware_block(len(dataset), workers, "profile")
        ranges = [
            (start, min(start + block, len(dataset)))
            for start in range(0, len(dataset), block)
        ]
        task = self._task(
            machine, tuple(signatures), signatures, dataset.shape
        )
        shared = None
        if mode == "shm":
            shared = SharedTables(scenario_table, instance_table)
            items = [(shared.ref, start, stop) for start, stop in ranges]
        else:
            items = [
                _own_rows(scenario_table[start:stop], instance_table)
                for start, stop in ranges
            ]
        begin = time.perf_counter()
        try:
            blocks = pool.map(task, items, chunk_size=1, stage="profile")
        finally:
            if shared is not None:
                shared.release()
        record_stage_cost(
            "profile", time.perf_counter() - begin, len(dataset)
        )
        return _reassemble_blocks(ranges, blocks, len(self.specs))

    def collect_many(
        self,
        scenarios,
        dataset: ScenarioDataset,
        machine: MachinePerf,
        *,
        block_rows: int = _SOLVE_BLOCK_ROWS,
    ) -> np.ndarray:
        """Noise-free ``(len(scenarios), n_metrics)`` matrix, batch-solved.

        Bit-identical to solving and deriving each scenario alone; large
        populations are processed in blocks of *block_rows* so the batch
        working set stays bounded.
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

        The entry point of every store-backed and every fanned-out
        profile: the tables arrive memory-mapped (the serial store path,
        shard refs), shared-memory backed or pickled with the task item
        (:class:`_CollectTask`), the solver's batch is packed straight from
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
        """Solve *batch*, through the solve memo when one is set.

        Without a memo, a multi-row batch goes to the batched solver,
        which reads the batch's arrays directly.  Otherwise
        :func:`solve_colocation_many` takes instance objects
        (*instances*, or rebuilt from the batch) and its solutions are
        packed into the same lane arrays — bit-identical either way.
        """
        if self.memo is None and len(batch) > 1:
            return solve_colocation_batch(machine, batch)
        solutions = solve_colocation_many(
            machine,
            batch.instances() if instances is None else instances,
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
            machine, jittered_samples, memo=self.memo
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
class _CollectTask:
    """Picklable profiling task: one columnar row range per item.

    Every transport ships the same work — open a row range of the
    columnar scenario tables and profile it through
    :meth:`Profiler.collect_tables` — and differs only in where the
    rows live (see :func:`_open_rows`).  Items are pure content, so
    checkpoint-journal keys and injected fault fates survive re-runs;
    shared-memory names are per run, which is why journaled runs
    pickle.
    """

    profiler: "Profiler"
    machine: MachinePerf
    job_names: tuple
    signatures: dict
    shape: object

    def __call__(self, item) -> np.ndarray:
        scenario_rows, instance_table = _open_rows(item)
        return self.profiler.collect_tables(
            scenario_rows,
            instance_table,
            job_names=self.job_names,
            signatures=self.signatures,
            shape=self.shape,
            machine=self.machine,
        )


def _open_rows(item) -> tuple[np.ndarray, np.ndarray]:
    """A task item's (scenario rows, instance table), wherever they live.

    * a :class:`~repro.runtime.ShardRef` (``shardref``): the worker
      memory-maps (and caches) the store shard itself;
    * ``(SharedTableRef, start, stop)`` (``shm``): the rows sit in the
      parent's shared-memory tables;
    * ``(scenario_rows, instance_rows)`` (``pickle``): the item carries
      its own rows (see :func:`_own_rows`).
    """
    from ..runtime.dispatch import (
        ShardRef,
        SharedTableRef,
        attach_shared_tables,
        shard_tables,
    )

    if isinstance(item, ShardRef):
        scenario_table, instance_table = shard_tables(item)
        return scenario_table[item.row_start : item.row_stop], instance_table
    if isinstance(item[0], SharedTableRef):
        tables, start, stop = item
        scenario_table, instance_table = attach_shared_tables(tables)
        return scenario_table[start:stop], instance_table
    return item


class _Unit(NamedTuple):
    """One streaming work item and the batch bookkeeping around it."""

    item: Any
    rows: int
    #: Whether this unit closes its batch (one batch per shard).
    last: bool
    #: The batch's scenarios, or a callable decoding them.
    dataset: Any


def _shard_ref_units(source, workers: int, chunk_size):
    """``shardref`` units of a store: cost-sized refs, several per shard.

    Returns ``(units, job_names, signatures)``.
    """
    from functools import partial

    from ..runtime.config import cost_aware_block

    if isinstance(chunk_size, int):
        rows_per_ref = chunk_size
    else:
        rows_per_ref = cost_aware_block(len(source), workers, "profile")
    job_names = tuple(source.job_names)
    signatures = dict(source.signatures)
    units = (
        _Unit(
            item=ref,
            rows=ref.rows,
            last=ref.row_stop == ref.shard_rows,
            dataset=partial(
                _decode_shard, ref, job_names, signatures, source.shape
            ),
        )
        for ref in source.shard_refs(rows_per_ref=rows_per_ref)
    )
    return units, job_names, signatures


def _table_units(source):
    """``pickle`` units of a streaming source: each batch's own rows.

    Store-backed sources hand out per-shard tables (``iter_tables``),
    whose rows are copied out without decoding a scenario; other
    sources' in-memory batches are encoded in the parent.  Returns
    ``(units, job_names, signatures)``.
    """
    iter_tables = getattr(source, "iter_tables", None)
    if iter_tables is None:
        signatures = dict(source.signatures)
        units = (
            _Unit(_encode(batch.scenarios, signatures), len(batch), True, batch)
            for batch in source.iter_batches()
        )
        return units, tuple(signatures), signatures
    tables = iter_tables()
    first = next(tables, None)
    if first is None:
        return iter(()), (), {}
    units = (
        _Unit(
            _own_rows(batch.scenario_table, batch.instance_table),
            len(batch),
            True,
            batch.decode,
        )
        for batch in itertools.chain([first], tables)
    )
    return units, tuple(first.job_names), dict(first.signatures)


def _decode_shard(ref, job_names, signatures, shape) -> ScenarioDataset:
    """Decode *ref*'s whole shard from the parent's own shard mapping."""
    from ..runtime.dispatch import shard_tables
    from ..store.format import decode_shard

    scenario_table, instance_table = shard_tables(ref)
    return decode_shard(
        scenario_table, instance_table, list(job_names), signatures, shape
    )


def _encode(scenarios, signatures: dict) -> tuple[np.ndarray, np.ndarray]:
    """Columnar tables of in-memory *scenarios*, jobs in catalogue order.

    The tables intern one signature per job name, so a name that maps
    to two signatures is an error rather than a silent merge.
    """
    from ..store.format import encode_shard

    for scenario in scenarios:
        for instance in scenario.instances:
            known = signatures[instance.signature.name]
            if known is not instance.signature and known != instance.signature:
                raise ValueError(
                    "conflicting signatures for job "
                    f"{instance.signature.name!r}"
                )
    job_index = {name: index for index, name in enumerate(signatures)}
    return encode_shard(scenarios, job_index)


def _own_rows(
    scenario_rows: np.ndarray, instance_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh copies of *scenario_rows* and just the instance rows they
    use, offsets rebased — a pickled item carries only its own rows."""
    scenario_rows = np.array(scenario_rows)
    if len(scenario_rows) == 0:
        return scenario_rows, np.array(instance_table[:0])
    first = int(scenario_rows["inst_offset"][0])
    stop = int(scenario_rows["inst_offset"][-1]) + int(
        scenario_rows["inst_count"][-1]
    )
    scenario_rows["inst_offset"] -= first
    return scenario_rows, np.array(instance_table[first:stop])


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
