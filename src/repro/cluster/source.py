"""The ScenarioSource protocol: one dataset abstraction, many backings.

FLARE's consumers — ``Profiler.profile``, ``Flare.fit``, the baselines —
historically took a concrete in-memory :class:`ScenarioDataset`.  The
sharded scenario store (``repro.store``) adds a second backing that does
not fit that type, so the pipeline now programs against this protocol
instead: anything that can report its machine shape, count and weigh its
scenarios, hand out batches, and identify its content satisfies it.
Both :class:`~repro.cluster.ScenarioDataset` and
:class:`~repro.store.ShardedScenarioStore` do.

The content digest is *logical*: it covers the scenarios, the job
signatures and the machine shape, not the bytes of any particular
encoding — so a dataset and the store written from it report the same
digest, which is how a saved model checks the population it references
and how cache keys stay stable across representations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

import numpy as np

from .._deprecations import resolve_renamed_kwarg
from .machine import MachineShape

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.store import ShardTables
    from .scenario import Scenario, ScenarioDataset

__all__ = [
    "ScenarioSource",
    "ScenarioContentHasher",
    "JobCountTable",
    "job_count_table",
    "scenario_schema",
    "ensure_dataset",
    "resolve_source_argument",
]

#: Version of the logical scenario record layout described by
#: :func:`scenario_schema` and hashed by :class:`ScenarioContentHasher`.
SCHEMA_VERSION = 1


def scenario_schema() -> dict[str, Any]:
    """The logical record layout every :class:`ScenarioSource` serves."""
    return {
        "version": SCHEMA_VERSION,
        "record": "scenario",
        "fields": [
            {"name": "scenario_id", "type": "int64"},
            {"name": "n_occurrences", "type": "int64"},
            {"name": "total_duration_s", "type": "float64"},
            {"name": "instances", "type": "list[{job: str, load: float64}]"},
        ],
    }


@runtime_checkable
class ScenarioSource(Protocol):
    """Anything that can feed scenarios to the FLARE pipeline.

    ``iter_batches`` yields in-memory :class:`ScenarioDataset` slices in
    scenario order; with ``batch_size=None`` the backing chooses its
    natural granularity (the whole dataset in memory, one shard from a
    store).  ``digest`` identifies the logical content independent of
    the backing (see module docstring).
    """

    @property
    def shape(self) -> MachineShape: ...

    def __len__(self) -> int: ...

    def __getitem__(self, index: int) -> "Scenario": ...

    def iter_batches(
        self, batch_size: int | None = None
    ) -> Iterator["ScenarioDataset"]: ...

    def weights(self) -> np.ndarray: ...

    def schema(self) -> dict[str, Any]: ...

    def digest(self) -> str: ...


class ScenarioContentHasher:
    """Incremental logical digest over a scenario stream.

    Scenario records are folded in arrival order; job signatures are
    collected as they appear and folded *sorted by name* at the end, so
    the digest does not depend on discovery order.  Floats are hashed
    via ``float.hex()`` — exact, so any representation that round-trips
    float64 values (JSON, npy shards, live objects) hashes identically.
    """

    def __init__(self, shape: MachineShape) -> None:
        self._shape = shape
        self._scenario_hash = hashlib.sha256()
        self._signatures: dict[str, str] = {}
        #: id(signature) -> (signature kept alive, its repr).  Streams
        #: reuse a handful of interned signature objects across millions
        #: of instances; caching by identity drops the dataclass-repr
        #: cost from per-instance to per-object without changing a byte
        #: of the hashed stream (the cached repr is the same string).
        self._reprs: dict[int, tuple[Any, str]] = {}
        #: float value -> its hex string.  Real streams draw loads from
        #: a small discrete set, so this collapses the per-instance
        #: ``float.hex()`` cost.  ``0.0`` is never cached: ``-0.0``
        #: aliases it under dict equality but hexes differently.
        self._hex_cache: dict[float, str] = {}
        self.n_scenarios = 0

    def _signature_repr(self, signature) -> str:
        cached = self._reprs.get(id(signature))
        if cached is not None:
            return cached[1]
        encoded = repr(signature)
        known = self._signatures.setdefault(signature.name, encoded)
        if known != encoded:
            raise ValueError(
                f"conflicting signatures for job {signature.name!r}"
            )
        self._reprs[id(signature)] = (signature, encoded)
        return encoded

    def _float_hex(self, value: float) -> str:
        if value == 0.0:
            return float(value).hex()
        cached = self._hex_cache.get(value)
        if cached is None:
            cached = float(value).hex()
            self._hex_cache[value] = cached
        return cached

    def update(self, scenario: "Scenario") -> None:
        self.update_many((scenario,))

    def update_many(self, scenarios) -> None:
        """Fold a batch of scenarios in order, in one hash update.

        Byte-equivalent to calling :meth:`update` per scenario — sha256
        over the concatenation of the per-scenario lines — but the hash
        state is touched once per batch, which is what lets the store
        writer hash whole shards at a time.
        """
        chunks: list[str] = []
        for scenario in scenarios:
            parts = [
                str(scenario.scenario_id),
                str(scenario.n_occurrences),
                float(scenario.total_duration_s).hex(),
            ]
            for instance in scenario.instances:
                # The conflict check (same job name, different signature)
                # lives in the repr-cache miss path: any new object is a
                # cache miss, so coverage is unchanged while the per-
                # instance cost drops to one dict probe.
                self._signature_repr(instance.signature)
                parts.append(instance.signature.name)
                parts.append(self._float_hex(instance.load))
            chunks.append("|".join(parts))
            chunks.append("\n")
        self._scenario_hash.update("".join(chunks).encode())
        self.n_scenarios += len(chunks) // 2

    def update_tables(self, tables: "ShardTables") -> None:
        """Fold columnar store rows without decoding them.

        Byte-equivalent to :meth:`update_many` over the decoded
        scenarios of *tables* (a :class:`~repro.store.store.ShardTables`):
        the same ``id|occurrences|duration hex|name|load hex…`` line per
        row, built from the columns, and the same conflict check over the
        signatures of the jobs that occur in these rows — and only those.
        """
        rows = tables.scenario_table
        if len(rows) == 0:
            return
        offsets = np.asarray(rows["inst_offset"], dtype=np.int64)
        ends = offsets + np.asarray(rows["inst_count"], dtype=np.int64)
        low = int(offsets.min())
        instances = tables.instance_table[low : int(ends.max())]
        jobs = instances["job"].tolist()
        names = tables.job_names
        for job in sorted(set(jobs)):
            self._signature_repr(tables.signatures[names[job]])
        float_hex = self._float_hex
        tokens = [
            f"{names[job]}|{float_hex(load)}"
            for job, load in zip(jobs, instances["load"].tolist())
        ]
        chunks: list[str] = []
        for scenario_id, occurrences, duration, start, stop in zip(
            rows["scenario_id"].tolist(),
            rows["n_occurrences"].tolist(),
            rows["total_duration_s"].tolist(),
            (offsets - low).tolist(),
            (ends - low).tolist(),
        ):
            chunks.append(
                "|".join(
                    [str(scenario_id), str(occurrences), duration.hex()]
                    + tokens[start:stop]
                )
            )
            chunks.append("\n")
        self._scenario_hash.update("".join(chunks).encode())
        self.n_scenarios += len(rows)

    def signature_objects(self) -> dict[str, Any]:
        """The live signature objects folded so far, keyed by job name."""
        objects: dict[str, Any] = {}
        for signature, _ in self._reprs.values():
            objects.setdefault(signature.name, signature)
        return objects

    def hexdigest(self) -> str:
        signature_hash = hashlib.sha256()
        for name in sorted(self._signatures):
            signature_hash.update(name.encode())
            signature_hash.update(self._signatures[name].encode())
        final = hashlib.sha256()
        final.update(f"scenario-source-v{SCHEMA_VERSION}".encode())
        final.update(repr(self._shape).encode())
        final.update(signature_hash.digest())
        final.update(self._scenario_hash.digest())
        return final.hexdigest()


@dataclass(frozen=True)
class JobCountTable:
    """Per-scenario instance count of every job a source hosts.

    The columnar view member lookups are answered from: ``counts`` is
    ``(n_scenarios, n_jobs)``, column *j* counting job ``names[j]``;
    ``high_priority[j]`` flags HP jobs.  Only jobs with at least one
    instance are listed, sorted by name, so the table does not depend
    on how a backing interns job names.
    """

    names: tuple[str, ...]
    counts: np.ndarray
    high_priority: np.ndarray

    @classmethod
    def from_columns(
        cls, names, counts: np.ndarray, signatures: dict
    ) -> "JobCountTable":
        """Canonical table from count columns in *names* order."""
        counts = np.asarray(counts, dtype=np.int64)
        present = counts.any(axis=0)
        order = sorted(
            (name, j) for j, name in enumerate(names) if present[j]
        )
        columns = [j for _, j in order]
        return cls(
            names=tuple(name for name, _ in order),
            counts=counts[:, columns],
            high_priority=np.array(
                [signatures[name].is_high_priority for name, _ in order],
                dtype=bool,
            ),
        )

    def hp_presence(self) -> np.ndarray:
        """Per-scenario "hosts any HP instance" flag."""
        return (self.counts[:, self.high_priority] > 0).any(axis=1)


def job_count_table(source: ScenarioSource) -> JobCountTable:
    """The :class:`JobCountTable` of any source.

    Backings that keep columns (the in-memory dataset, the sharded
    store and its views) answer directly; anything else is materialised
    first.
    """
    direct = getattr(source, "job_count_table", None)
    if direct is None:
        return ensure_dataset(source).job_count_table()
    return direct()


def ensure_dataset(source: ScenarioSource) -> "ScenarioDataset":
    """Materialise *source* as an in-memory :class:`ScenarioDataset`.

    The identity path is free; a sharded store is decoded in full, so
    only use this where the consumer genuinely needs every scenario
    resident (e.g. the full-datacenter ground-truth baselines).
    """
    from .scenario import ScenarioDataset

    if isinstance(source, ScenarioDataset):
        return source
    to_dataset = getattr(source, "to_dataset", None)
    if to_dataset is not None:
        return to_dataset()
    scenarios: list["Scenario"] = []
    for batch in source.iter_batches():
        scenarios.extend(batch.scenarios)
    return ScenarioDataset(shape=source.shape, scenarios=tuple(scenarios))


def resolve_source_argument(
    source, dataset, *, owner: str
) -> ScenarioSource:
    """Support the renamed ``dataset=`` -> ``source=`` keyword.

    The positional/``source=`` spelling is canonical; passing the legacy
    ``dataset=`` keyword still works but warns (via the shared shim in
    :mod:`repro._deprecations`).
    """
    return resolve_renamed_kwarg(
        source,
        dataset,
        owner=owner,
        old_name="dataset",
        new_name="source",
        stacklevel=3,
    )
