"""Batched structure-of-arrays contention solving.

:func:`repro.perfmodel.contention.solve_colocation` iterates one
scenario at a time with per-instance Python work inside the fixed-point
loop.  Every hot caller — the Profiler, the Replayer, the
full-datacenter baseline — holds *many* scenarios that all want solving
under the same machine, so this module batches them:

* :class:`ScenarioBatch` packs a scenario population into a
  structure-of-arrays layout: a signature table deduplicated by job
  signature (in practice: by job name, since the catalogue maps each
  name to one signature), per-scenario instance index arrays padded
  into dense ``(n_scenarios, max_instances)`` matrices, and a validity
  mask marking real lanes.
* :func:`solve_colocation_batch` runs the same damped fixed point as
  the scalar solver — LLC shares, miss ratios, bandwidth pressure, CPI
  stacks, instruction rates — as whole-matrix numpy ops over every
  scenario simultaneously, with an active-scenario convergence mask so
  converged rows freeze while stragglers iterate.
* :class:`LaneSolution` is what it returns: the solver's per-lane
  arrays (rates, cache shares, miss ratios, traffic, the CPI stack) and
  per-row summaries, which columnar consumers read directly, behind a
  lazy ``Sequence[ColocationPerformance]`` for everyone else.

**Bit-identity contract.**  The batched solver reproduces the scalar
solver's outputs bit for bit, not merely approximately.  That holds
because every arithmetic step mirrors the scalar expression's exact
association order using only elementwise IEEE-754 ops (``+ - * /
minimum``), the single transcendental (the MRC ``pow``) goes through
the shared :func:`repro.perfmodel.mrc.hyperbolic_miss_ratio` helper on
ndarrays in both paths, and per-scenario reductions sum rows of exactly
the scenario's lane count, gathered by width into fresh C-contiguous
arrays (never padded lanes, whose different lengths could change
numpy's pairwise-summation tree).  The
differential suite in ``tests/perfmodel/test_batch_equivalence.py``
enforces the contract on hypothesis-generated populations and golden
fixtures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .contention import (
    _BRANCH_PENALTY_CYCLES,
    _BW_CONGESTION_GAIN,
    _BW_UTIL_CAP,
    _CACHE_LINE_BYTES,
    _DAMPING,
    _L2_BLOCKING,
    _LLC_HIT_BLOCKING,
    _MAX_ITERATIONS,
    _RELATIVE_TOLERANCE,
    _SOLVE_CACHE,
    _SolveCache,
    _core_throughput_factor,
    ColocationPerformance,
    InstancePerformance,
    RunningInstance,
    solve_colocation,
    solve_colocation_cached,
)
from .cpistack import CPIStack
from .machine import MachinePerf
from .mrc import hyperbolic_miss_ratio
from .signatures import JobSignature

__all__ = [
    "LaneSolution",
    "ScenarioBatch",
    "solve_colocation_batch",
    "solve_colocation_many",
]

# Indices into ScenarioBatch.sig_params rows.
_P_LLC_APKI = 0
_P_L2_APKI = 1
_P_BRANCH_MPKI = 2
_P_BASE_CPI = 3
_P_FRONTEND_CPI = 4
_P_WRITE_FRACTION = 5
_P_MEM_BLOCKING = 6
_P_MRC_HALF = 7
_P_MRC_SHAPE = 8
_P_MRC_FLOOR = 9
_P_BUSY_BASE = 10
_N_PARAMS = 11


@dataclass(eq=False)
class ScenarioBatch:
    """Structure-of-arrays packing of a scenario population.

    Attributes
    ----------
    signatures:
        Deduplicated signature table.  Lanes reference it through
        ``sig_index``; a signature co-located in fifty scenarios is
        stored once.
    sig_params:
        ``(_N_PARAMS, n_signatures)`` float matrix of the solver-facing
        parameters of each table entry (APKIs, CPI components, MRC
        shape, ``vcpus * active_fraction`` busy base, ...).
    sig_index:
        ``(n_scenarios, max_instances)`` int lane -> table index.
        Padded lanes hold 0 (any valid index; they are masked out).
    loads:
        ``(n_scenarios, max_instances)`` per-lane load; 0.0 in padding.
    mask:
        ``(n_scenarios, max_instances)`` bool validity mask.
    counts:
        ``(n_scenarios,)`` instance count per scenario (may be 0).
    """

    signatures: tuple[JobSignature, ...]
    sig_params: np.ndarray
    sig_index: np.ndarray
    loads: np.ndarray
    mask: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_instances(
        cls,
        scenarios: Sequence[Sequence[RunningInstance]],
    ) -> "ScenarioBatch":
        """Pack *scenarios* (each a sequence of instances) into a batch."""
        n_scenarios = len(scenarios)
        counts = np.array(
            [len(instances) for instances in scenarios], dtype=np.intp
        )
        max_instances = int(counts.max()) if n_scenarios else 0

        table: dict[JobSignature, int] = {}
        signatures: list[JobSignature] = []
        sig_index = np.zeros((n_scenarios, max_instances), dtype=np.intp)
        loads = np.zeros((n_scenarios, max_instances))
        mask = np.zeros((n_scenarios, max_instances), dtype=bool)
        for row, instances in enumerate(scenarios):
            for lane, inst in enumerate(instances):
                sig = inst.signature
                idx = table.get(sig)
                if idx is None:
                    idx = table[sig] = len(signatures)
                    signatures.append(sig)
                sig_index[row, lane] = idx
                loads[row, lane] = inst.load
                mask[row, lane] = True

        return cls(
            signatures=tuple(signatures),
            sig_params=_pack_sig_params(signatures),
            sig_index=sig_index,
            loads=loads,
            mask=mask,
            counts=counts,
        )

    @classmethod
    def from_tables(
        cls,
        scenario_table: np.ndarray,
        instance_table: np.ndarray,
        job_names: Sequence[str],
        signatures_by_job: dict[str, JobSignature],
    ) -> "ScenarioBatch":
        """Pack a batch straight from the store's columnar tables.

        *scenario_table* / *instance_table* are (slices of) the arrays
        the shard codec writes (:mod:`repro.store.format`) — typically
        memory-mapped or shared-memory backed, which is the zero-copy
        dispatch path: no :class:`RunningInstance` objects are
        materialised.  ``inst_offset`` values are absolute into
        *instance_table*, so any scenario-row slice pairs with the full
        instance table.

        Bit-identical to decoding the slice and calling
        :meth:`from_instances`: the signature table dedupes by interned
        job index in first-encounter lane order, which matches
        dedupe-by-signature because the catalogue maps each job name to
        exactly one signature (and signature equality includes the
        name); loads are the same float64 values either way.
        """
        counts = np.asarray(scenario_table["inst_count"]).astype(np.intp)
        offsets = np.asarray(scenario_table["inst_offset"]).astype(np.intp)
        n_scenarios = len(counts)
        max_instances = int(counts.max()) if n_scenarios else 0

        mask = np.arange(max_instances)[None, :] < counts[:, None]
        positions = np.where(mask, offsets[:, None] + np.arange(max_instances), 0)
        if mask.any():
            # Gather, then cast: the table may hold the whole dataset,
            # so casting a full column first would cost O(all instances).
            jobs = np.asarray(instance_table["job"])[positions].astype(np.intp)
            loads = np.where(
                mask,
                np.asarray(instance_table["load"])[positions].astype(np.float64),
                0.0,
            )
        else:
            jobs = np.zeros(mask.shape, dtype=np.intp)
            loads = np.zeros(mask.shape)
        # Row-major over the valid lanes is first-encounter lane order.
        seen, first = np.unique(jobs[mask], return_index=True)
        table_jobs = seen[np.argsort(first, kind="stable")]
        # Sized for every gathered index: padded lanes read instance 0,
        # whose job need not occur in this slice's rows.
        lookup = np.zeros(int(jobs.max()) + 1 if jobs.size else 1, np.intp)
        lookup[table_jobs] = np.arange(len(table_jobs))
        signatures = [
            signatures_by_job[job_names[job]] for job in table_jobs.tolist()
        ]
        return cls(
            signatures=tuple(signatures),
            sig_params=_pack_sig_params(signatures),
            sig_index=np.where(mask, lookup[jobs], 0),
            loads=loads,
            mask=mask,
            counts=counts,
        )

    def instances(self) -> list[tuple[RunningInstance, ...]]:
        """The packed scenarios as :class:`RunningInstance` tuples.

        The inverse of :meth:`from_instances` (same signatures, same
        float64 loads), for the solver paths that take objects:
        single-scenario solves and the solve memo.
        """
        signatures = self.signatures
        sig_index = self.sig_index.tolist()
        loads = self.loads.tolist()
        return [
            tuple(
                RunningInstance(signature=signatures[idx], load=load)
                for idx, load in zip(sig_index[row][:count], loads[row][:count])
            )
            for row, count in enumerate(self.counts.tolist())
        ]

    def __len__(self) -> int:
        return len(self.counts)


#: Per-lane arrays of a :class:`LaneSolution` -> the
#: :class:`InstancePerformance` field each holds.
INSTANCE_FIELDS = (
    ("mips", "mips"),
    ("ipc", "ipc"),
    ("busy", "busy_threads"),
    ("cache_share", "cache_share_mb"),
    ("miss_ratio", "llc_miss_ratio"),
    ("mpki", "llc_mpki"),
    ("dram_gbps", "dram_gbps"),
    ("network_gbps", "network_gbps"),
    ("disk_mbps", "disk_mbps"),
)
#: Per-lane arrays of a :class:`LaneSolution` -> the :class:`CPIStack`
#: component each holds, in the stack's field order.
STACK_FIELDS = (
    ("cpi_base", "base"),
    ("cpi_frontend", "frontend"),
    ("cpi_branch", "branch"),
    ("cpi_l2", "l2"),
    ("cpi_llc_hit", "llc_hit"),
    ("cpi_dram", "dram"),
    ("cpi_smt", "smt"),
)
LANE_FIELDS = tuple(name for name, _ in INSTANCE_FIELDS + STACK_FIELDS)
#: Per-row arrays of a :class:`LaneSolution` -> the
#: :class:`ColocationPerformance` field each holds; ``frequency`` is
#: every lane's ``frequency_ghz``.
_ROW_FIELDS = (
    ("cpu_utilization", "cpu_utilization"),
    ("mem_bw_utilization", "mem_bw_utilization"),
    ("mem_latency", "mem_latency_ns"),
    ("converged", "converged"),
    ("iterations", "iterations"),
)
ROW_FIELDS = ("frequency", *(name for name, _ in _ROW_FIELDS))


class LaneSolution(Sequence):
    """Solved scenarios as ``(rows, lanes)`` arrays.

    Lane ``j`` of row ``i`` is instance ``j`` of scenario ``i``, laid
    out like the :class:`ScenarioBatch` it was solved from; padded
    lanes hold 0.0.  :data:`LANE_FIELDS` name the per-lane arrays (the
    :class:`InstancePerformance` fields and the seven CPI-stack
    components), :data:`ROW_FIELDS` the per-row ones.  Every value is
    the exact double the matching object field holds, so columnar
    consumers such as the Profiler's metric kernel read the arrays and
    never build objects.

    It is also a read-only ``Sequence[ColocationPerformance]``: indexing
    builds row *i*'s objects on demand, bit-identical to the scalar
    solver's.
    """

    def __init__(
        self,
        machine: MachinePerf,
        counts: np.ndarray,
        lanes: dict[str, np.ndarray],
        rows: dict[str, np.ndarray],
        *,
        signatures: tuple[JobSignature, ...] = (),
        sig_index: np.ndarray | None = None,
        objects: Sequence[ColocationPerformance] | None = None,
    ) -> None:
        self.machine = machine
        self.counts = counts
        for name in LANE_FIELDS:
            setattr(self, name, lanes[name])
        for name in ROW_FIELDS:
            setattr(self, name, rows[name])
        self._signatures = signatures
        self._sig_index = sig_index
        self._objects = objects

    @classmethod
    def from_performances(
        cls,
        machine: MachinePerf,
        solutions: Sequence[ColocationPerformance],
    ) -> "LaneSolution":
        """Pack solved objects (scalar solver, memo hits) into lane arrays."""
        if isinstance(solutions, LaneSolution):
            return solutions
        solutions = list(solutions)
        counts = np.array(
            [len(solution.instances) for solution in solutions], dtype=np.intp
        )
        width = int(counts.max()) if len(solutions) else 0
        lanes = {
            name: np.zeros((len(solutions), width)) for name in LANE_FIELDS
        }
        rows = {
            name: np.array([getattr(s, field) for s in solutions])
            for name, field in _ROW_FIELDS
        }
        rows["frequency"] = np.zeros(len(solutions))
        for row, solution in enumerate(solutions):
            for lane, perf in enumerate(solution.instances):
                for name, field in INSTANCE_FIELDS:
                    lanes[name][row, lane] = getattr(perf, field)
                for name, part in STACK_FIELDS:
                    lanes[name][row, lane] = getattr(perf.cpi_stack, part)
                rows["frequency"][row] = perf.frequency_ghz
        return cls(machine, counts, lanes, rows, objects=solutions)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"row {index} out of range")
        if self._objects is not None:
            return self._objects[index]
        return self._build(index)

    def _build(self, row: int) -> ColocationPerformance:
        """Row *row*'s objects, field for field the solver's values."""

        def value(name: str) -> float:
            return float(getattr(self, name)[row, lane])

        frequency = float(self.frequency[row])
        perf = []
        for lane in range(int(self.counts[row])):
            sig = self._signatures[self._sig_index[row, lane]]
            perf.append(
                InstancePerformance(
                    job_name=sig.name,
                    priority=sig.priority,
                    # The signature's own floats, as the scalar solver
                    # shares them: equal values, no per-object copies.
                    cpi_stack=CPIStack(
                        base=sig.base_cpi,
                        frontend=sig.frontend_cpi,
                        **{
                            part: value(name)
                            for name, part in STACK_FIELDS[2:]
                        },
                    ),
                    frequency_ghz=frequency,
                    **{field: value(name) for name, field in INSTANCE_FIELDS},
                )
            )
        return ColocationPerformance(
            machine=self.machine,
            instances=tuple(perf),
            cpu_utilization=float(self.cpu_utilization[row]),
            mem_bw_utilization=float(self.mem_bw_utilization[row]),
            mem_latency_ns=float(self.mem_latency[row]),
            converged=bool(self.converged[row]),
            iterations=int(self.iterations[row]),
        )


def _pack_sig_params(signatures: Sequence[JobSignature]) -> np.ndarray:
    """The ``(_N_PARAMS, n_signatures)`` solver-parameter matrix."""
    sig_params = np.empty((_N_PARAMS, len(signatures)))
    for col, sig in enumerate(signatures):
        sig_params[_P_LLC_APKI, col] = sig.llc_apki
        sig_params[_P_L2_APKI, col] = sig.l2_apki
        sig_params[_P_BRANCH_MPKI, col] = sig.branch_mpki
        sig_params[_P_BASE_CPI, col] = sig.base_cpi
        sig_params[_P_FRONTEND_CPI, col] = sig.frontend_cpi
        sig_params[_P_WRITE_FRACTION, col] = sig.write_fraction
        sig_params[_P_MEM_BLOCKING, col] = sig.mem_blocking_factor
        sig_params[_P_MRC_HALF, col] = sig.mrc.half_capacity_mb
        sig_params[_P_MRC_SHAPE, col] = sig.mrc.shape
        sig_params[_P_MRC_FLOOR, col] = sig.mrc.floor
        # Same association order as RunningInstance.busy_threads:
        # (vcpus * active_fraction) * load, with the first product
        # taken here in plain Python floats.
        sig_params[_P_BUSY_BASE, col] = sig.vcpus * sig.active_fraction
    return sig_params


def width_groups(counts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(width, rows)`` for every distinct lane count in *counts*.

    The exact-width grouping behind every bit-identical row reduction
    here and in the Profiler's metric kernel.
    """
    return [
        (width, np.flatnonzero(counts == width))
        for width in np.flatnonzero(np.bincount(counts)).tolist()
    ]


def _row_sums(
    matrix: np.ndarray, groups: list[tuple[int, np.ndarray]]
) -> np.ndarray:
    """Per-row sums over each row's first ``width`` lanes.

    Rows of one width are gathered into a fresh C-contiguous
    ``(rows, width)`` array and reduced along the lanes: numpy applies
    its pairwise summation to each row exactly as to a fresh 1-D array
    of that length, so the sums equal the scalar solver's bit for bit
    (summing whole padded rows would change the pairwise tree).
    """
    out = np.empty(sum(len(rows) for _, rows in groups))
    for width, rows in groups:
        out[rows] = np.ascontiguousarray(matrix[rows, :width]).sum(axis=1)
    return out


def solve_colocation_batch(
    machine: MachinePerf,
    batch: ScenarioBatch | Sequence[Sequence[RunningInstance]],
) -> LaneSolution:
    """Solve every scenario in *batch* on *machine* simultaneously.

    Returns a :class:`LaneSolution` in batch order: the solver's lane
    arrays, readable as a sequence of :class:`ColocationPerformance`
    bit-identical to calling the scalar
    :func:`~repro.perfmodel.contention.solve_colocation` per scenario.
    The result is not a list: compare it with one through ``list(...)``
    or by index, since ``==`` on the whole object is identity.
    """
    if not isinstance(batch, ScenarioBatch):
        batch = ScenarioBatch.from_instances(batch)
    n_total = len(batch)
    width = batch.sig_index.shape[1]
    lanes = {name: np.zeros((n_total, width)) for name in LANE_FIELDS}
    rows = {
        "frequency": np.zeros(n_total),
        "cpu_utilization": np.zeros(n_total),
        "mem_bw_utilization": np.zeros(n_total),
        "mem_latency": np.full(n_total, machine.mem_latency_ns),
        "converged": np.ones(n_total, dtype=bool),
        "iterations": np.zeros(n_total, dtype=np.intp),
    }
    solution = LaneSolution(
        machine,
        batch.counts,
        lanes,
        rows,
        signatures=batch.signatures,
        sig_index=batch.sig_index,
    )
    nonempty = np.flatnonzero(batch.counts > 0)
    if nonempty.size == 0:
        return solution

    counts = batch.counts[nonempty]
    all_rows = width_groups(counts)
    sig_index = batch.sig_index[nonempty]
    loads = batch.loads[nonempty]
    lane_mask = batch.mask[nonempty]
    params = batch.sig_params

    # Per-lane parameter matrices, gathered once (constant across the
    # fixed-point iterations).  Padded lanes carry signature 0's
    # parameters with load 0 — every derived quantity there is finite
    # and excluded from the per-scenario reductions below.
    llc_apki = params[_P_LLC_APKI][sig_index]
    l2_apki = params[_P_L2_APKI][sig_index]
    branch_mpki = params[_P_BRANCH_MPKI][sig_index]
    base_cpi = params[_P_BASE_CPI][sig_index]
    frontend_cpi = params[_P_FRONTEND_CPI][sig_index]
    write_fraction = params[_P_WRITE_FRACTION][sig_index]
    mem_blocking = params[_P_MEM_BLOCKING][sig_index]
    mrc_half = params[_P_MRC_HALF][sig_index]
    mrc_shape = params[_P_MRC_SHAPE][sig_index]
    mrc_floor = params[_P_MRC_FLOOR][sig_index]
    busy = params[_P_BUSY_BASE][sig_index] * loads

    # Frequency and core sharing depend only on the (fixed) total busy
    # threads — one exact scalar computation per scenario, reusing the
    # same Python-level helpers as the scalar path.
    total_busy = _row_sums(busy, all_rows)
    freq = np.empty(len(nonempty))
    core_factor = np.empty(len(nonempty))
    for i in range(len(nonempty)):
        busy_i = float(total_busy[i])
        freq[i] = machine.effective_frequency_ghz(busy_i)
        core_factor[i] = _core_throughput_factor(machine, busy_i)
    freq_col = freq[:, None]

    # Mutable fixed-point state.
    rate = np.where(lane_mask, 1e9, 0.0)
    counts_f = counts.astype(float)
    shares = np.where(lane_mask, (machine.llc_mb / counts_f)[:, None], 0.0)
    converged = np.zeros(len(nonempty), dtype=bool)
    iterations = np.full(len(nonempty), _MAX_ITERATIONS, dtype=np.intp)
    active = np.arange(len(nonempty))

    def _stack_totals(sub, miss_ratio, mem_latency_col, freq_sub_col, cf_sub):
        """CPI-stack component matrices for the row subset *sub*.

        Every expression mirrors ``contention._build_stack`` and
        ``CPIStack.total`` association order exactly.
        """
        branch = branch_mpki[sub] / 1000.0 * _BRANCH_PENALTY_CYCLES
        l2_stall = l2_apki[sub] / 1000.0 * _L2_BLOCKING * machine.l2_hit_cycles
        llc_hits_pki = llc_apki[sub] * (1.0 - miss_ratio)
        llc_hit_stall = (
            llc_hits_pki / 1000.0 * _LLC_HIT_BLOCKING * machine.llc_hit_cycles
        )
        dram_stall = (
            llc_apki[sub]
            * miss_ratio
            / 1000.0
            * mem_latency_col
            * freq_sub_col
            * mem_blocking[sub]
        )
        core_side = (
            base_cpi[sub] + frontend_cpi[sub] + branch + l2_stall + llc_hit_stall
        )
        smt_factor = 1.0 / cf_sub - 1.0
        smt_penalty = np.where(
            (cf_sub < 1.0)[:, None], core_side * smt_factor[:, None], 0.0
        )
        total = core_side + dram_stall + smt_penalty
        return branch, l2_stall, llc_hit_stall, dram_stall, smt_penalty, total

    for iteration in range(1, _MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        act_rows = width_groups(counts[active])
        r = rate[active]

        # --- LLC partitioning: proportional to access rate -------------
        access_rate = r * llc_apki[active] / 1000.0
        total_access = _row_sums(access_rate, act_rows)
        has_access = total_access > 0.0
        safe_total = np.where(has_access, total_access, 1.0)
        target_shares = np.where(
            has_access[:, None],
            machine.llc_mb * access_rate / safe_total[:, None],
            (machine.llc_mb / counts_f[active])[:, None],
        )
        sh = _DAMPING * shares[active] + (1.0 - _DAMPING) * target_shares
        shares[active] = sh

        miss_ratio = hyperbolic_miss_ratio(
            sh, mrc_half[active], mrc_shape[active], mrc_floor[active]
        )
        mpki = llc_apki[active] * miss_ratio

        # --- DRAM bandwidth congestion ----------------------------------
        bytes_per_instr = (
            mpki / 1000.0 * _CACHE_LINE_BYTES * (1.0 + write_fraction[active])
        )
        traffic_gbps = r * bytes_per_instr / 1e9
        util = np.minimum(
            _row_sums(traffic_gbps, act_rows) / machine.mem_bw_gbps,
            _BW_UTIL_CAP,
        )
        mem_latency = machine.mem_latency_ns * (
            1.0 + _BW_CONGESTION_GAIN * util * util / (1.0 - util)
        )

        # --- CPI stacks and instruction rates ---------------------------
        *_, total_cpi = _stack_totals(
            active,
            miss_ratio,
            mem_latency[:, None],
            freq_col[active],
            core_factor[active],
        )
        new_rate = busy[active] * freq_col[active] * 1e9 / total_cpi

        # Convergence per row, mirroring np.allclose(new, old, rtol, atol=1)
        # elementwise; padded lanes compare 0 against 0 and never block.
        close = np.abs(new_rate - r) <= 1.0 + _RELATIVE_TOLERANCE * np.abs(r)
        row_converged = close.all(axis=1)

        conv_rows = active[row_converged]
        if conv_rows.size:
            # Scalar break semantics: the converging iteration assigns the
            # *undamped* rate and stops updating that scenario.
            rate[conv_rows] = new_rate[row_converged]
            converged[conv_rows] = True
            iterations[conv_rows] = iteration
        live = ~row_converged
        live_rows = active[live]
        if live_rows.size:
            rate[live_rows] = (
                _DAMPING * r[live] + (1.0 - _DAMPING) * new_rate[live]
            )
        active = live_rows

    # Final consistent pass with the converged rates, over all rows.
    access_rate = rate * llc_apki / 1000.0
    total_access = _row_sums(access_rate, all_rows)
    has_access = total_access > 0.0
    safe_total = np.where(has_access, total_access, 1.0)
    shares = np.where(
        has_access[:, None],
        machine.llc_mb * access_rate / safe_total[:, None],
        shares,
    )
    miss_ratio = hyperbolic_miss_ratio(shares, mrc_half, mrc_shape, mrc_floor)
    mpki = llc_apki * miss_ratio
    bytes_per_instr = (
        mpki / 1000.0 * _CACHE_LINE_BYTES * (1.0 + write_fraction)
    )
    traffic_gbps = rate * bytes_per_instr / 1e9
    raw_util = _row_sums(traffic_gbps, all_rows) / machine.mem_bw_gbps
    util = np.minimum(raw_util, _BW_UTIL_CAP)
    mem_latency = machine.mem_latency_ns * (
        1.0 + _BW_CONGESTION_GAIN * util * util / (1.0 - util)
    )
    branch, l2_stall, llc_hit_stall, dram_stall, smt_penalty, total_cpi = (
        _stack_totals(
            slice(None), miss_ratio, mem_latency[:, None], freq_col, core_factor
        )
    )
    final_rate = busy * freq_col * 1e9 / total_cpi

    # Per-lane outputs, each the exact expression the scalar solver
    # assigns to the matching InstancePerformance / CPIStack field.
    network_bpi = np.array(
        [sig.network_bytes_per_instr for sig in batch.signatures]
    )[sig_index]
    disk_bpi = np.array(
        [sig.disk_bytes_per_instr for sig in batch.signatures]
    )[sig_index]
    for name, values in (
        ("mips", final_rate / 1e6),
        ("ipc", 1.0 / total_cpi),
        ("busy", busy),
        ("cache_share", shares),
        ("miss_ratio", miss_ratio),
        ("mpki", mpki),
        ("dram_gbps", final_rate * bytes_per_instr / 1e9),
        ("network_gbps", final_rate * network_bpi * 8.0 / 1e9),
        ("disk_mbps", final_rate * disk_bpi / 1e6),
        ("cpi_base", base_cpi),
        ("cpi_frontend", frontend_cpi),
        ("cpi_branch", branch),
        ("cpi_l2", l2_stall),
        ("cpi_llc_hit", llc_hit_stall),
        ("cpi_dram", dram_stall),
        ("cpi_smt", smt_penalty),
    ):
        lanes[name][nonempty] = np.where(lane_mask, values, 0.0)
    rows["frequency"][nonempty] = freq
    rows["cpu_utilization"][nonempty] = np.minimum(
        total_busy / machine.hardware_threads, 1.0
    )
    rows["mem_bw_utilization"][nonempty] = raw_util
    rows["mem_latency"][nonempty] = mem_latency
    rows["converged"][nonempty] = converged
    rows["iterations"][nonempty] = iterations
    return solution


def solve_colocation_many(
    machine: MachinePerf,
    scenarios: Sequence[Sequence[RunningInstance]],
    *,
    cached: bool = False,
    memo=None,
) -> Sequence[ColocationPerformance]:
    """Solve many scenarios: batched when there is more than one.

    Two or more scenarios go through :func:`solve_colocation_batch`; a
    single scenario gains nothing from the batch layout, so it goes
    through :func:`solve_colocation`.  The two are bit-identical.

    The result is a read-only sequence: a list on the single-scenario,
    cached and memo paths, a :class:`LaneSolution` on the batched
    uncached path.  Compare it with a list through ``list(...)`` (a
    ``LaneSolution`` never equals a list) and copy it before appending.

    With ``cached=True`` the shared solve memo is consulted per
    scenario: hits are returned directly, misses are solved as one
    batch (deduplicated within the batch) and written back, so mixing
    batched and scalar callers keeps a single coherent cache.

    ``memo`` accepts a :class:`~repro.perfmodel.memo.SolveMemo`, a memo
    spec string (``"memory"``/``"store:<path>"``), or ``None``/``"off"``.
    When active it supersedes ``cached=``: lookups go through the
    content-addressed two-tier memo (so hits survive across processes
    and runs), misses are solved by this same size rule and recorded
    back into both tiers.
    """
    if memo is not None:
        from .memo import resolve_memo

        live = resolve_memo(memo)
        if live is not None:
            return _solve_many_memoised(machine, scenarios, live)
    if len(scenarios) <= 1:
        if cached:
            return [
                solve_colocation_cached(machine, tuple(instances))
                for instances in scenarios
            ]
        return [solve_colocation(machine, instances) for instances in scenarios]

    if not cached:
        return solve_colocation_batch(machine, scenarios)

    results: list[ColocationPerformance | None] = [None] * len(scenarios)
    pending: dict[tuple, list[int]] = {}
    miss_scenarios: list[tuple[RunningInstance, ...]] = []
    for i, instances in enumerate(scenarios):
        key = _SolveCache.make_key(machine, tuple(instances))
        hit = _SOLVE_CACHE.lookup(key)
        if hit is not None:
            results[i] = hit
            continue
        rows = pending.get(key)
        if rows is None:
            pending[key] = [i]
            miss_scenarios.append(tuple(instances))
        else:
            rows.append(i)
    if miss_scenarios:
        solved = solve_colocation_batch(machine, miss_scenarios)
        for (key, rows), solution in zip(pending.items(), solved):
            _SOLVE_CACHE.store(key, solution)
            for row in rows:
                results[row] = solution
    return results  # type: ignore[return-value]


def _solve_many_memoised(
    machine: MachinePerf,
    scenarios: Sequence[Sequence[RunningInstance]],
    memo,
) -> list[ColocationPerformance]:
    """Memo-first solve: hits from the memo, misses solved in one call.

    Mirrors the ``cached=True`` pending-dict shape, but keyed on the
    content digest so hits carry across batches, processes, and runs.
    Misses solved here are recorded and flushed at the end of the call
    — one segment append per batch, which keeps concurrent writers to
    coarse atomic appends rather than per-solve churn.
    """
    results: list[ColocationPerformance | None] = [None] * len(scenarios)
    pending: dict[str, list[int]] = {}
    miss_scenarios: list[tuple[RunningInstance, ...]] = []
    for i, raw in enumerate(scenarios):
        instances = tuple(raw)
        key = memo.key_for(machine, instances)
        hit = memo.lookup(key, machine, instances)
        if hit is not None:
            results[i] = hit
            continue
        rows = pending.get(key)
        if rows is None:
            pending[key] = [i]
            miss_scenarios.append(instances)
        else:
            rows.append(i)
    if miss_scenarios:
        solved = solve_colocation_many(machine, miss_scenarios)
        for (key, rows), solution in zip(pending.items(), solved):
            memo.record(key, solution)
            for row in rows:
                results[row] = solution
        memo.flush()
    return results  # type: ignore[return-value]
