"""Zero-copy scenario dispatch for the process backend.

The process executor's historical transport pickles task payloads into
every chunk.  For scenario profiling that meant shipping the scenarios
themselves — after the batched solver made compute ~10x cheaper,
serialization dominated and the parallel backend *lost* to serial.
This module provides two payload-free transports:

``shardref``
    The input already lives in a sharded store, so workers read their
    own data: the parent ships tiny :class:`ShardRef` row-range
    descriptors and each worker memory-maps the referenced shard
    (digest-verified, cached per process) and packs solver arrays
    straight from the mapped tables.  Refs are pure content
    (path + digests + row range), so checkpoint-journal keys and
    fault-injection fates stay stable across runs and transports.

``shm``
    In-memory datasets are packed once in the parent into the store's
    columnar tables and published via ``multiprocessing.shared_memory``;
    workers attach and slice.  Segments are refcounted
    (:class:`SharedTables`) and unlinked by the owning parent when the
    count drops to zero — success, failure and pool-respawn paths all
    release through the same ``finally``.

``pickle``
    Each chunk carries its own rows (for profiling: the columnar table
    rows of its range, never decoded scenarios).  The right call for
    serial execution (no copy happens anyway) and whenever payload
    content must itself be the checkpoint-journal key (in-memory
    sources under a :class:`~repro.runtime.cache.CheckpointJournal` —
    shared-memory segment names are per-run, so they would break key
    stability).

:func:`choose_dispatch` encodes those rules for ``dispatch="auto"``.

Python 3.11 wart, handled in :func:`_untrack`: attaching to an existing
segment (``create=False``) *also* registers it with the process's
``resource_tracker``, so a worker exiting would unlink a segment the
parent still owns (or warn about it).  Workers therefore unregister
segments they merely attach; creators keep their registration and
unlink explicitly.
"""

from __future__ import annotations

import pathlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import inc
from .config import DISPATCH_MODES

__all__ = [
    "DispatchError",
    "ShardRef",
    "SharedTableRef",
    "SharedTables",
    "shard_tables",
    "attach_shared_tables",
    "active_shared_segments",
    "choose_dispatch",
]


class DispatchError(ValueError):
    """A dispatch mode cannot apply to the given source/executor."""


def choose_dispatch(
    mode: str,
    *,
    store_backed: bool,
    parallel: bool,
    journaled: bool,
) -> str:
    """Resolve a configured dispatch *mode* to a concrete transport.

    Explicit modes are honoured (erroring when impossible); ``"auto"``
    picks the cheapest transport that preserves the checkpoint-journal
    and bit-identity guarantees — see the module docstring.
    """
    if mode not in DISPATCH_MODES:
        raise DispatchError(
            f"unknown dispatch mode {mode!r}; expected one of "
            f"{list(DISPATCH_MODES)}"
        )
    if mode == "shardref" and not store_backed:
        raise DispatchError(
            "dispatch='shardref' needs a shard-backed source "
            "(one exposing shard_refs()); use 'shm' or 'auto' for "
            "in-memory datasets"
        )
    if mode != "auto":
        return mode
    if not parallel:
        return "pickle"
    if store_backed:
        return "shardref"
    if journaled:
        return "pickle"
    return "shm"


# ----------------------------------------------------------------------
# shardref transport
@dataclass(frozen=True)
class ShardRef:
    """Row-range descriptor into one shard of a scenario store.

    Pure content: the store path, the shard's manifest identity
    (name, row/instance counts, digests) and a half-open scenario row
    range.  Pickles in ~200 bytes regardless of how many scenarios it
    covers, and two runs over the same store produce byte-identical
    refs — which keeps checkpoint keys and injected-fault fates stable.
    """

    store_path: str
    shard: str
    shard_index: int
    row_start: int
    row_stop: int
    global_row: int
    shard_rows: int
    shard_instances: int
    scenarios_digest: str
    instances_digest: str

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start


#: Worker-side cache of verified, memory-mapped shard tables.  Keyed by
#: content digest, so a store rewritten in place can never serve stale
#: maps.  A worker's refs cluster within a few shards at a time; four
#: slots cover the access pattern.
_SHARD_TABLE_CACHE: "OrderedDict[tuple, tuple[np.ndarray, np.ndarray]]" = (
    OrderedDict()
)
_SHARD_CACHE_SLOTS = 4


def shard_tables(ref: ShardRef) -> tuple[np.ndarray, np.ndarray]:
    """The (scenario table, instance table) of *ref*'s whole shard.

    Memory-mapped and digest-verified on first touch in this process,
    then served from the per-process cache — so a worker profiling many
    row ranges of one shard verifies and maps it once.
    """
    key = (ref.store_path, ref.shard, ref.scenarios_digest)
    hit = _SHARD_TABLE_CACHE.get(key)
    if hit is not None:
        _SHARD_TABLE_CACHE.move_to_end(key)
        return hit
    from ..store.format import read_shard_array

    base = pathlib.Path(ref.store_path)
    scenario_table = read_shard_array(
        base / f"{ref.shard}.scenarios.npy",
        mmap=True,
        expected_rows=ref.shard_rows,
        expected_digest=ref.scenarios_digest,
    )
    instance_table = read_shard_array(
        base / f"{ref.shard}.instances.npy",
        mmap=True,
        expected_rows=ref.shard_instances,
        expected_digest=ref.instances_digest,
    )
    while len(_SHARD_TABLE_CACHE) >= _SHARD_CACHE_SLOTS:
        _SHARD_TABLE_CACHE.popitem(last=False)
    _SHARD_TABLE_CACHE[key] = (scenario_table, instance_table)
    inc("dispatch_shard_loads_total")
    return scenario_table, instance_table


# ----------------------------------------------------------------------
# shm transport
@dataclass(frozen=True)
class SharedTableRef:
    """Picklable handle to a published pair of shared-memory tables."""

    scenarios_name: str
    instances_name: str
    n_scenarios: int
    n_instances: int


#: Segments created by this process that are not yet unlinked.  The
#: leak tests (and the bench's leak gate) assert this drains to empty.
_ACTIVE_SEGMENTS: dict[str, object] = {}


def active_shared_segments() -> tuple[str, ...]:
    """Names of shared-memory segments this process still owns."""
    return tuple(sorted(_ACTIVE_SEGMENTS))


def _untrack(segment) -> None:
    """Drop a merely-attached segment from the resource tracker.

    See the module docstring: on Python < 3.13 ``create=False`` also
    registers the segment.  That matters only in *spawn*-started
    workers, whose fresh resource tracker would unlink the parent's
    memory when the worker exits; fork-started workers and same-process
    attaches share the creator's tracker, where the duplicate
    registration collapses into the creator's own entry (and
    unregistering here would instead clobber it).
    """
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return
    try:
        if multiprocessing.get_start_method() != "spawn":
            return
    except Exception:
        pass
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


class SharedTables:
    """Parent-owned shared-memory copies of one pair of packed tables.

    Refcounted: the creating scope holds the initial reference; nested
    users :meth:`acquire` / :meth:`release`, and the segments are
    unlinked exactly once, when the count reaches zero.  ``release`` in
    a ``finally`` makes success, failure and pool-respawn paths all
    converge on the same cleanup.
    """

    def __init__(
        self, scenario_table: np.ndarray, instance_table: np.ndarray
    ) -> None:
        from multiprocessing import shared_memory

        self._segments: list = []
        names: list[str] = []
        try:
            for array in (scenario_table, instance_table):
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                if array.nbytes:
                    view = np.ndarray(
                        array.shape,
                        dtype=array.dtype,
                        buffer=segment.buf[: array.nbytes],
                    )
                    view[:] = array
                    del view  # release the exported buffer before any close
                names.append(segment.name)
        except Exception:
            self._count = 1
            self.release()
            raise
        self.ref = SharedTableRef(
            scenarios_name=names[0],
            instances_name=names[1],
            n_scenarios=int(scenario_table.shape[0]),
            n_instances=int(instance_table.shape[0]),
        )
        self._count = 1
        for segment in self._segments:
            _ACTIVE_SEGMENTS[segment.name] = segment
        inc("shm_segments_created_total", len(self._segments))

    def acquire(self) -> "SharedTables":
        if self._count <= 0:
            raise RuntimeError("SharedTables already released")
        self._count += 1
        return self

    def release(self) -> None:
        self._count -= 1
        if self._count > 0:
            return
        segments, self._segments = self._segments, []
        for segment in segments:
            _ACTIVE_SEGMENTS.pop(segment.name, None)
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # already gone (double release race)
                pass
            inc("shm_segments_unlinked_total")

    def __enter__(self) -> "SharedTables":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


#: Worker-side cache of attached segments.  Entries are evicted by
#: dropping references (arrays handed to earlier tasks may still view
#: the buffer, so the mapping is closed by garbage collection, not
#: eagerly).
_ATTACHED_TABLES: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACH_CACHE_SLOTS = 4


def _attach_array(name: str, dtype: np.dtype, count: int) -> np.ndarray:
    cached = _ATTACHED_TABLES.get(name)
    if cached is not None:
        _ATTACHED_TABLES.move_to_end(name)
        return cached[1]
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name, create=False)
    _untrack(segment)
    # The mapping may be page-rounded past the payload; slice to the
    # exact byte length before viewing, or the row count would be off.
    array = np.ndarray(
        (count,), dtype=dtype, buffer=segment.buf[: dtype.itemsize * count]
    )
    while len(_ATTACHED_TABLES) >= _ATTACH_CACHE_SLOTS:
        _ATTACHED_TABLES.popitem(last=False)
    _ATTACHED_TABLES[name] = (segment, array)
    return array


def attach_shared_tables(
    ref: SharedTableRef,
) -> tuple[np.ndarray, np.ndarray]:
    """Attach to a published table pair (cached per process)."""
    from ..store.format import INSTANCE_DTYPE, SCENARIO_DTYPE

    scenario_table = _attach_array(
        ref.scenarios_name, SCENARIO_DTYPE, ref.n_scenarios
    )
    instance_table = _attach_array(
        ref.instances_name, INSTANCE_DTYPE, ref.n_instances
    )
    return scenario_table, instance_table
