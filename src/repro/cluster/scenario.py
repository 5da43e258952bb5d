"""Job co-location scenarios: FLARE's basic unit of evaluation.

Every new combination of jobs on a machine defines a scenario (paper §4.1,
Figure 5).  The recorder watches each machine's composition over simulated
time; whenever it changes, the elapsed interval is credited to the scenario
that just ended.  A scenario's *weight* is the total machine-time it was
observed, which is the probability mass FLARE and the baselines use.

For each scenario we keep the concrete instances (job + load) of its first
observation — the analogue of the paper logging "the commands and
configurations of running jobs" so the Replayer can reconstruct the
co-location later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from ..perfmodel.contention import RunningInstance
from .machine import Machine, MachineShape
from .source import JobCountTable, ScenarioContentHasher, scenario_schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perfmodel.signatures import JobSignature

__all__ = ["ScenarioKey", "Scenario", "ScenarioRecorder", "ScenarioDataset"]

#: Canonical identity of a co-location: sorted (job name, instance count).
ScenarioKey = tuple[tuple[str, int], ...]


def _key_of(machine: Machine) -> ScenarioKey:
    counts: dict[str, int] = {}
    for inst in machine.instances:
        counts[inst.job_name] = counts.get(inst.job_name, 0) + 1
    return tuple(sorted(counts.items()))


@dataclass
class Scenario:
    """One observed job co-location.

    Attributes
    ----------
    scenario_id:
        Dense index in observation order (the figures' "scenario #").
    key:
        Job mix identity.
    instances:
        The concrete containers recorded at first observation, replayable
        by the contention model / Replayer.
    n_occurrences:
        How many distinct intervals showed this mix.
    total_duration_s:
        Total machine-time the mix was observed (the scenario weight).
    """

    scenario_id: int
    key: ScenarioKey
    instances: tuple[RunningInstance, ...]
    n_occurrences: int = 0
    total_duration_s: float = 0.0

    @property
    def total_vcpus(self) -> int:
        return sum(inst.signature.vcpus for inst in self.instances)

    @property
    def hp_vcpus(self) -> int:
        return sum(
            inst.signature.vcpus
            for inst in self.instances
            if inst.signature.is_high_priority
        )

    @property
    def lp_vcpus(self) -> int:
        return self.total_vcpus - self.hp_vcpus

    @property
    def hp_instances(self) -> tuple[RunningInstance, ...]:
        return tuple(
            inst for inst in self.instances if inst.signature.is_high_priority
        )

    def occupancy(self, shape: MachineShape) -> float:
        """Fraction of the machine's vCPUs the mix allocates."""
        return self.total_vcpus / shape.vcpus

    def job_names(self) -> tuple[str, ...]:
        """Distinct job names in the mix."""
        return tuple(name for name, _ in self.key)

    def count_of(self, job_name: str) -> int:
        """Instance count of *job_name* in this mix (0 if absent)."""
        for name, count in self.key:
            if name == job_name:
                return count
        return 0


class ScenarioRecorder:
    """Tracks machine compositions and accumulates scenario statistics.

    ``id_offset`` continues a dense scenario-id sequence across several
    recorder instances — the segmented simulation mode drains and
    replaces its recorder at each segment boundary, and ids must stay
    unique (and monotone) across the whole emitted stream.
    """

    def __init__(self, shape: MachineShape, *, id_offset: int = 0) -> None:
        self.shape = shape
        self.id_offset = id_offset
        self._scenarios: dict[ScenarioKey, Scenario] = {}
        # machine_id -> (key at interval start, interval start time)
        self._open_intervals: dict[int, tuple[ScenarioKey, float]] = {}

    # ------------------------------------------------------------------
    @property
    def n_unique(self) -> int:
        return len(self._scenarios)

    def on_composition_change(self, machine: Machine, now: float) -> None:
        """Notify that *machine*'s job mix just changed (at time *now*).

        Must be called *after* the placement/removal is applied.  The
        interval that just ended is credited to its scenario; a new
        interval opens for the new (possibly empty) mix.
        """
        self._close_interval(machine.machine_id, now)
        key = _key_of(machine)
        if key:
            self._register(key, machine)
            self._open_intervals[machine.machine_id] = (key, now)

    def finalize(self, now: float) -> None:
        """Close all open intervals at simulation end."""
        for machine_id in list(self._open_intervals):
            self._close_interval(machine_id, now)

    def dataset(self) -> "ScenarioDataset":
        """Snapshot the recorded scenarios as an immutable dataset."""
        ordered = sorted(self._scenarios.values(), key=lambda s: s.scenario_id)
        return ScenarioDataset(shape=self.shape, scenarios=tuple(ordered))

    def drain_to(self, sink) -> int:
        """Append every recorded scenario to *sink* in id order.

        *sink* is anything with an ``append(scenario)`` method — in
        practice a :class:`repro.store.StoreWriter`, which flushes full
        shards to disk as they fill, so draining never builds a second
        in-memory copy of the dataset.  Returns the number drained.
        """
        ordered = sorted(self._scenarios.values(), key=lambda s: s.scenario_id)
        for scenario in ordered:
            sink.append(scenario)
        return len(ordered)

    # ------------------------------------------------------------------
    def _register(self, key: ScenarioKey, machine: Machine) -> None:
        if key in self._scenarios:
            return
        instances = tuple(
            RunningInstance(
                signature=inst.request.signature, load=inst.request.load
            )
            for inst in sorted(
                machine.instances, key=lambda i: (i.job_name, i.instance_id)
            )
        )
        self._scenarios[key] = Scenario(
            scenario_id=self.id_offset + len(self._scenarios),
            key=key,
            instances=instances,
        )

    def _close_interval(self, machine_id: int, now: float) -> None:
        open_interval = self._open_intervals.pop(machine_id, None)
        if open_interval is None:
            return
        key, start = open_interval
        duration = now - start
        if duration <= 0.0:
            return
        scenario = self._scenarios[key]
        scenario.n_occurrences += 1
        scenario.total_duration_s += duration


def normalized_weights(durations: np.ndarray) -> np.ndarray:
    """Observation-time weights, normalised to sum to 1.

    Scenarios that were only glimpsed in zero-length transition states
    (possible when the simulation is finalised mid-change) get a small
    uniform epsilon so no scenario is silently unrepresentable.  Shared
    by the in-memory dataset and the sharded store so both backings
    weigh identical durations identically.
    """
    raw = np.asarray(durations, dtype=np.float64)
    if raw.size == 0:
        return raw
    if raw.sum() <= 0.0:
        return np.full(raw.size, 1.0 / raw.size)
    floor = raw[raw > 0].min() * 1e-3
    raw = np.maximum(raw, floor)
    return raw / raw.sum()


@dataclass(frozen=True)
class ScenarioDataset:
    """All distinct scenarios observed in one datacenter, with weights.

    Satisfies the :class:`~repro.cluster.source.ScenarioSource`
    protocol; derived quantities (weights, signatures, the content
    digest) are computed once and cached — profiling and clustering
    call them per scenario group, which used to rebuild the weight
    vector from scratch each time.
    """

    shape: MachineShape
    scenarios: tuple[Scenario, ...]

    def __len__(self) -> int:
        return len(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    def weights(self) -> np.ndarray:
        """Normalised observation-time weights (cached; do not mutate)."""
        cached = getattr(self, "_weights_cache", None)
        if cached is None:
            cached = normalized_weights(self.durations())
            object.__setattr__(self, "_weights_cache", cached)
        return cached

    def durations(self) -> np.ndarray:
        """Raw per-scenario observed durations, in scenario order.

        The un-normalised companion of :meth:`weights`, matching the
        sharded store's column of the same name — consumers that
        accumulate mass across batches (the drift monitor) need raw
        seconds, since per-batch normalised weights do not add.
        """
        return np.array(
            [s.total_duration_s for s in self.scenarios], dtype=np.float64
        )

    def iter_batches(
        self, batch_size: int | None = None
    ) -> Iterator["ScenarioDataset"]:
        """Yield the scenarios as in-memory slices of *batch_size*.

        ``None`` means the natural granularity of the backing — here,
        the whole dataset in one batch (no copy).
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 or None")
        if batch_size is None or batch_size >= len(self.scenarios):
            yield self
            return
        for start in range(0, len(self.scenarios), batch_size):
            yield ScenarioDataset(
                shape=self.shape,
                scenarios=self.scenarios[start : start + batch_size],
            )

    def schema(self) -> dict[str, Any]:
        """Logical record layout (ScenarioSource protocol)."""
        return scenario_schema()

    def digest(self) -> str:
        """Logical content digest (cached; see ScenarioContentHasher)."""
        cached = getattr(self, "_digest_cache", None)
        if cached is None:
            hasher = ScenarioContentHasher(self.shape)
            for scenario in self.scenarios:
                hasher.update(scenario)
            cached = hasher.hexdigest()
            object.__setattr__(self, "_digest_cache", cached)
        return cached

    @property
    def signatures(self) -> dict[str, "JobSignature"]:
        """Job name -> signature, in first-appearance order (cached)."""
        cached = getattr(self, "_signatures_cache", None)
        if cached is None:
            cached = {}
            for scenario in self.scenarios:
                for instance in scenario.instances:
                    cached.setdefault(
                        instance.signature.name, instance.signature
                    )
            object.__setattr__(self, "_signatures_cache", cached)
        return cached

    def job_count_table(self):
        """Per-scenario job instance counts (see
        :class:`~repro.cluster.source.JobCountTable`), from the keys."""
        signatures = self.signatures
        index = {name: j for j, name in enumerate(signatures)}
        counts = np.zeros((len(self.scenarios), len(index)), dtype=np.int64)
        for row, scenario in enumerate(self.scenarios):
            for name, count in scenario.key:
                counts[row, index[name]] = count
        return JobCountTable.from_columns(list(index), counts, signatures)

    def with_weights_from(
        self, durations: dict[ScenarioKey, float]
    ) -> "ScenarioDataset":
        """Copy of the dataset re-weighted by external observation times.

        Supports the §5.6 scheduler-change flow: a new scheduler shifts how
        often each co-location occurs; FLARE restarts from clustering
        (step 3) with new weights instead of re-collecting metrics.
        """
        reweighted = []
        for scenario in self.scenarios:
            duration = durations.get(scenario.key, 0.0)
            reweighted.append(
                Scenario(
                    scenario_id=scenario.scenario_id,
                    key=scenario.key,
                    instances=scenario.instances,
                    n_occurrences=scenario.n_occurrences,
                    total_duration_s=duration,
                )
            )
        return ScenarioDataset(shape=self.shape, scenarios=tuple(reweighted))

    def scenarios_with_job(self, job_name: str) -> list[Scenario]:
        """Scenarios whose mix includes *job_name*."""
        return [s for s in self.scenarios if s.count_of(job_name) > 0]
