"""The columnar metric kernel: lane arrays in, metric matrix out.

:func:`derive_metrics` turns a solved :class:`~repro.perfmodel.ScenarioBatch`
(its :class:`~repro.perfmodel.LaneSolution`) into the Profiler's noise-free
``(rows, n_metrics)`` matrix — the two-level Figure 6 surface, the
machine-only counters and the optional per-job columns — with whole-batch
numpy work instead of per-scenario objects.

**Bit-identity contract.**  The matrix equals, bit for bit, the
per-scenario derivation the metric surface was defined by (kept as the
test oracle in ``tests/telemetry/metric_oracle.py``).  That holds because
every reduction is computed the way the definition computes it, on arrays
of exactly the same length and layout:

* rows are grouped by exact lane count (per scope: all lanes for the
  machine scope; HP lanes packed to the left in their original order for
  the HP scope), and each group is gathered into fresh C-contiguous
  ``(m, c)`` arrays — so ``.sum(axis=1)`` runs numpy's pairwise summation
  over ``c`` doubles per row, the same tree as a fresh 1-D ``.sum()``
  (padding to a common width would change the tree);
* instruction- and cycle-weighted means are one stacked
  ``(m, 1, c) @ (m, c, 1)`` matmul per metric, which takes the same BLAS
  ``ddot`` per row as the 1-D ``values @ weights``;
* the definition's Python ``sum()`` sites accumulate one lane at a time
  in lane order;
* topdown fractions divide by the CPI stack's total summed in
  :attr:`~repro.perfmodel.CPIStack.total`'s association order, and the
  ``CPIStack`` / ``TopdownBreakdown`` validations run on the arrays with
  their bounds and ``ValueError`` messages.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..perfmodel.batch import (
    STACK_FIELDS,
    LaneSolution,
    ScenarioBatch,
    width_groups,
)
from .metrics import MACHINE_ONLY_METRICS, PER_LEVEL_METRICS

__all__ = ["N_BASE_METRICS", "derive_metrics"]

_LEVEL_BASES = tuple(base for base, *_ in PER_LEVEL_METRICS)
_LEVEL_COLUMN = {base: i for i, base in enumerate(_LEVEL_BASES)}
_N_LEVEL = len(_LEVEL_BASES)
#: Columns of the registry without temporal or per-job metrics.
N_BASE_METRICS = 2 * _N_LEVEL + len(MACHINE_ONLY_METRICS)

#: Lane arrays gathered per group: the solution's fields used by the
#: level metrics, then the topdown fractions derived from the stack.
_LANE_GROUP = (
    "mips",
    "busy",
    "mpki",
    "dram_gbps",
    "cpi_base",
    "cpi_frontend",
    "cpi_branch",
    "cpi_l2",
    "cpi_llc_hit",
    "cpi_dram",
    "cpi_smt",
)
_TOPDOWN = (
    "Topdown-Retiring",
    "Topdown-FrontendBound",
    "Topdown-BadSpeculation",
    "Topdown-BackendBound",
    "Topdown-MemoryBound",
    "Topdown-CoreBound",
)
_GROUPED = (*_LANE_GROUP, *_TOPDOWN)
#: Signature attributes gathered per group (per-signature table rows).
_SIG_GROUP = (
    "spin_fraction",
    "l1i_apki",
    "l1d_apki",
    "l2_apki",
    "llc_apki",
    "branch_mpki",
    "write_fraction",
    "vcpus",
)
#: Instruction-weighted level metrics: base name -> gathered field.
_INSTR_WEIGHTED = (
    ("SpinPct", "spin_fraction"),
    ("L1I-APKI", "l1i_apki"),
    ("L1D-APKI", "l1d_apki"),
    ("L1D-MPKI", "l2_apki"),
    ("L2-APKI", "l2_apki"),
    ("L2-MPKI", "llc_apki"),
    ("LLC-APKI", "llc_apki"),
    ("LLC-MPKI", "mpki"),
    ("Branch-MPKI", "branch_mpki"),
    ("CPIStack-Base", "cpi_base"),
    ("CPIStack-Frontend", "cpi_frontend"),
    ("CPIStack-Branch", "cpi_branch"),
    ("CPIStack-L2", "cpi_l2"),
    ("CPIStack-LLCHit", "cpi_llc_hit"),
    ("CPIStack-DRAM", "cpi_dram"),
    ("CPIStack-SMT", "cpi_smt"),
)


def derive_metrics(
    batch: ScenarioBatch,
    lanes: LaneSolution,
    *,
    shape,
    per_job_metrics: Sequence[str] = (),
) -> np.ndarray:
    """The noise-free metric matrix of a solved batch.

    Columns follow the registry (:func:`~repro.telemetry.all_metric_specs`
    without temporal metrics): the machine-scope block, the HP-scope
    block, the machine-only counters, then ``InstanceCount-<job>`` and
    ``VCPUShare-<job>`` for each of *per_job_metrics*.  *shape* supplies
    the schedulable vCPUs and DRAM the utilisation counters divide by;
    the machine comes from *lanes*.
    """
    n_rows = len(batch)
    out = np.zeros((n_rows, N_BASE_METRICS + 2 * len(per_job_metrics)))
    if n_rows == 0:
        return out
    machine = lanes.machine
    mask = batch.mask
    signatures = batch.signatures
    sig_table = {
        name: np.array(
            [float(getattr(sig, name)) for sig in signatures], dtype=np.float64
        )
        for name in (*_SIG_GROUP, "dram_gb")
    }
    is_hp = np.array([sig.is_high_priority for sig in signatures], dtype=bool)
    lane_hp = mask & is_hp[batch.sig_index]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lane_values = {name: getattr(lanes, name) for name in _LANE_GROUP}
        lane_values.update(_topdown_lanes(lane_values, mask))
        stacked = np.stack([lane_values[name] for name in _GROUPED])
        sig_stacked = np.stack([sig_table[name] for name in _SIG_GROUP])
        lane_dram_gb = sig_table["dram_gb"][batch.sig_index]
        for offset, select in ((0, mask), (_N_LEVEL, lane_hp)):
            block = out[:, offset : offset + _N_LEVEL]
            _scope_block(
                block, select, stacked, sig_stacked, batch.sig_index, lanes, shape
            )
            # The definition's Python ``sum()`` sites, one lane at a time.
            block[:, _LEVEL_COLUMN["DRAMUsedGB"]] = _lane_sum(lane_dram_gb, select)
            block[:, _LEVEL_COLUMN["DRAMUtil"]] = (
                block[:, _LEVEL_COLUMN["DRAMUsedGB"]] / shape.dram_gb
            )
            cache = _lane_sum(lanes.cache_share, select)
            network = _lane_sum(lanes.network_gbps, select)
            disk = _lane_sum(lanes.disk_mbps, select)
            block[:, _LEVEL_COLUMN["CacheOccupancyMB"]] = cache
            block[:, _LEVEL_COLUMN["NetworkGbps"]] = network
            block[:, _LEVEL_COLUMN["NetworkUtil"]] = np.minimum(
                network / machine.network_gbps, 1.0
            )
            block[:, _LEVEL_COLUMN["DiskMBps"]] = disk
            block[:, _LEVEL_COLUMN["DiskUtil"]] = np.minimum(
                disk / machine.disk_mbps, 1.0
            )
            empty = ~select.any(axis=1)
            block[empty] = 0.0

        vcpus = np.where(mask, sig_table["vcpus"][batch.sig_index], 0.0)
        allocated = vcpus.sum(axis=1)  # small integers: exact in any order
        hp_allocated = np.where(lane_hp, vcpus, 0.0).sum(axis=1)
        containers = batch.counts.astype(np.float64)
        busy = _lane_sum(lanes.busy, mask)
        dram_gbps = _lane_sum(lanes.dram_gbps, mask)
        machine_only = {
            "MemLatencyNs": lanes.mem_latency,
            "MemFreeGB": shape.dram_gb - _lane_sum(lane_dram_gb, mask),
            "FreeVCPUs": shape.vcpus - allocated,
            "HPVCPUShare": np.where(allocated > 0, hp_allocated / allocated, 0.0),
            "LoadAverage": busy,
            "ContextSwitchesPerSec": 120.0 * busy + 40.0 * containers,
            "PageFaultsPerSec": 900.0 * dram_gbps + 30.0 * containers,
            "ProcessCount": 60.0 + 12.0 * containers,
        }
        for i, (base, *_) in enumerate(MACHINE_ONLY_METRICS):
            out[:, 2 * _N_LEVEL + i] = machine_only[base]

        names = np.array([sig.name for sig in signatures], dtype=object)
        for j, job in enumerate(per_job_metrics):
            hosts = mask & (names == job)[batch.sig_index]
            count = hosts.sum(axis=1).astype(np.float64)
            out[:, N_BASE_METRICS + 2 * j] = count
            out[:, N_BASE_METRICS + 2 * j + 1] = np.where(
                allocated > 0, count * 4.0 / allocated, 0.0
            )
    return out


def _topdown_lanes(values: dict, mask: np.ndarray) -> dict[str, np.ndarray]:
    """Per-lane topdown fractions, after the CPI-stack validations."""
    for name, part in STACK_FIELDS:
        if (values[name][mask] < 0.0).any():
            raise ValueError(f"CPI component {part} must be non-negative")
    if (values["cpi_base"][mask] <= 0.0).any():
        raise ValueError("base CPI must be positive")
    total = (
        values["cpi_base"]
        + values["cpi_frontend"]
        + values["cpi_branch"]
        + values["cpi_l2"]
        + values["cpi_llc_hit"]
        + values["cpi_dram"]
        + values["cpi_smt"]
    )
    memory = values["cpi_l2"] + values["cpi_llc_hit"] + values["cpi_dram"]
    retiring = values["cpi_base"] / total
    frontend = values["cpi_frontend"] / total
    bad_speculation = values["cpi_branch"] / total
    backend = (memory + values["cpi_smt"]) / total
    memory_bound = memory / total
    core_bound = values["cpi_smt"] / total
    level1 = retiring + frontend + bad_speculation + backend
    bad = mask & (np.abs(level1 - 1.0) > 1e-6)
    if bad.any():
        raise ValueError(
            f"level-1 topdown slots must sum to 1, got {level1[bad][0]}"
        )
    if (mask & (np.abs(memory_bound + core_bound - backend) > 1e-6)).any():
        raise ValueError("memory_bound + core_bound must equal backend_bound")
    fractions = (
        retiring,
        frontend,
        bad_speculation,
        backend,
        memory_bound,
        core_bound,
    )
    return {
        name: np.where(mask, value, 0.0)
        for name, value in zip(_TOPDOWN, fractions)
    }


def _lane_sum(values: np.ndarray, select: np.ndarray) -> np.ndarray:
    """Left-to-right sum of the selected lanes (a Python ``sum()``).

    Unselected lanes add ``0.0``, which leaves every non-negative
    running total unchanged, so the result equals summing only the
    selected values in lane order.
    """
    total = np.zeros(values.shape[0])
    for lane in range(values.shape[1]):
        total = total + np.where(select[:, lane], values[:, lane], 0.0)
    return total


def _scope_block(block, select, stacked, sig_stacked, sig_index, lanes, shape):
    """Fill one scope's level metrics, one exact-width group at a time.

    *stacked* holds the :data:`_GROUPED` lane arrays, *sig_stacked* the
    :data:`_SIG_GROUP` signature table; *select* marks the scope's lanes.
    """
    machine = lanes.machine
    counts = select.sum(axis=1)
    # Selected lanes first, in their original order.
    order = np.argsort(~select, axis=1, kind="stable")
    for width, rows in width_groups(counts):
        if width == 0:
            continue
        row_at = rows[:, None]
        lanes_at = order[rows, :width]
        # Fresh C-contiguous (m, width) slabs: see the module docstring.
        g = dict(
            zip(_GROUPED, np.ascontiguousarray(stacked[:, row_at, lanes_at]))
        )
        g.update(
            zip(
                _SIG_GROUP,
                np.ascontiguousarray(sig_stacked[:, sig_index[row_at, lanes_at]]),
            )
        )

        instr_rate = g["mips"] * 1e6
        total_instr = instr_rate.sum(axis=1)
        cycles = g["busy"] * lanes.frequency[rows][:, None] * 1e9
        total_cycles = cycles.sum(axis=1)
        w_instr = _weights(instr_rate, total_instr)
        w_cycles = _weights(cycles, total_cycles)

        total_mips = g["mips"].sum(axis=1)
        busy = g["busy"].sum(axis=1)
        allocated = g["vcpus"].sum(axis=1)
        ipc = np.where(total_cycles > 0, total_instr / total_cycles, 0.0)
        access_rate = instr_rate * g["llc_apki"] / 1000.0
        miss_rate = instr_rate * g["mpki"] / 1000.0
        total_access = access_rate.sum(axis=1)
        misses = miss_rate.sum(axis=1)
        miss_ratio = np.where(total_access > 0, misses / total_access, 0.0)
        read_gbps = (g["dram_gbps"] / (1.0 + g["write_fraction"])).sum(axis=1)
        total_gbps = g["dram_gbps"].sum(axis=1)

        values = {
            "MIPS": total_mips,
            "IPC": ipc,
            "CPI": np.where(ipc > 0, 1.0 / ipc, 0.0),
            "MIPSPerThread": np.where(busy > 0, total_mips / busy, 0.0),
            "MIPSPerVCPU": np.where(allocated > 0, total_mips / allocated, 0.0),
            "BusyThreads": busy,
            "CPUUtil": np.minimum(busy / machine.hardware_threads, 1.0),
            "AllocatedVCPUs": allocated,
            "VCPUUtil": allocated / shape.vcpus,
            "ContainerCount": np.full(len(rows), float(width)),
            "LLC-MissRatio": miss_ratio,
            "LLC-HitRatio": np.where(total_access > 0, 1.0 - miss_ratio, 0.0),
            "LLC-MissesPerSec": misses * 1000.0,
            "MemReadGBps": read_gbps,
            "MemWriteGBps": total_gbps - read_gbps,
            "MemTotalGBps": total_gbps,
            "MemTotalBytesPerSec": total_gbps * 1e9,
            "MemBWUtil": np.minimum(total_gbps / machine.mem_bw_gbps, 1.0),
        }
        for base, field in _INSTR_WEIGHTED:
            values[base] = _weighted(g[field], w_instr)
        for base in _TOPDOWN:
            values[base] = _weighted(g[base], w_cycles)
        for base, value in values.items():
            block[rows, _LEVEL_COLUMN[base]] = value


def _weights(values: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``values / total`` per row where the total is positive, else
    the values themselves."""
    weights = values.copy()
    np.divide(values, totals[:, None], out=weights, where=(totals > 0)[:, None])
    return weights


def _weighted(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise ``values[i] @ weights[i]``, one ``ddot`` per row."""
    return np.matmul(values[:, None, :], weights[:, :, None])[:, 0, 0]
