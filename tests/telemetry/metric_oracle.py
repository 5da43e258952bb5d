"""Per-scenario metric derivation: the oracle for the columnar kernel.

The Profiler's historical derivation, written the obvious way: one
scenario at a time, over the solver's :class:`InstancePerformance`
objects, with 1-D numpy reductions and Python ``sum()`` exactly as the
metric surface was first defined.  The library derives the same matrix
from lane arrays in :func:`repro.telemetry.kernel.derive_metrics`; the
differential tests check the two bit for bit, and
``test_metric_golden.py`` regenerates its fixture from here.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.contention import RunningInstance
from repro.telemetry.metrics import (
    PER_LEVEL_METRICS,
    TEMPORAL_BASES,
    MetricLevel,
    temporal_metric_name,
)

from ..perfmodel.solver_oracle import solve_many_scalar


def vector_from_solution(profiler, scenario, dataset, machine, solution):
    """Registry-ordered metric vector of one solved scenario."""
    shape = dataset.shape
    values: dict[str, float] = {}

    pairs = list(zip(scenario.instances, solution.instances))
    for level, selector in (
        (MetricLevel.MACHINE, lambda _: True),
        (MetricLevel.HP, lambda perf: perf.is_high_priority),
    ):
        subset = [(ri, pi) for ri, pi in pairs if selector(pi)]
        level_values = level_metrics(subset, shape.vcpus, shape.dram_gb, machine)
        for base, value in level_values.items():
            values[f"{base}-{level.value}"] = value

    values.update(
        machine_only_metrics(pairs, shape.vcpus, shape.dram_gb, solution)
    )
    if profiler.temporal_samples > 0:
        values.update(
            temporal_metrics_scalar(profiler, scenario, machine, values)
        )
    for job in profiler.per_job_metrics:
        count = scenario.count_of(job)
        allocated = scenario.total_vcpus
        values[f"InstanceCount-{job}"] = float(count)
        values[f"VCPUShare-{job}"] = (
            count * 4.0 / allocated if allocated else 0.0
        )

    return np.array([values[spec.name] for spec in profiler.specs])


def oracle_matrix(profiler, dataset, machine) -> np.ndarray:
    """Noise-free matrix of *dataset*, one scalar solve per scenario."""
    from repro.perfmodel import solve_colocation

    rows = [
        vector_from_solution(
            profiler,
            scenario,
            dataset,
            machine,
            solve_colocation(machine, list(scenario.instances)),
        )
        for scenario in dataset.scenarios
    ]
    return np.stack(rows) if rows else np.empty((0, len(profiler.specs)))


def level_metrics(subset, shape_vcpus, shape_dram_gb, machine):
    """Aggregate one scope's counters over the selected instances."""
    if not subset:
        return {base: 0.0 for base, *_ in PER_LEVEL_METRICS}

    perf = [pi for _, pi in subset]
    sigs = [ri.signature for ri, _ in subset]

    mips = np.array([p.mips for p in perf])
    instr_rate = mips * 1e6
    total_instr = float(instr_rate.sum())
    busy = np.array([p.busy_threads for p in perf])
    cycles = busy * np.array([p.frequency_ghz for p in perf]) * 1e9
    total_cycles = float(cycles.sum())
    w_instr = instr_rate / total_instr if total_instr > 0 else instr_rate
    w_cycles = cycles / total_cycles if total_cycles > 0 else cycles

    def instrw(values) -> float:
        return float(np.asarray(values, dtype=np.float64) @ w_instr)

    def cyclew(values) -> float:
        return float(np.asarray(values, dtype=np.float64) @ w_cycles)

    allocated = float(sum(s.vcpus for s in sigs))
    dram_used = float(sum(s.dram_gb for s in sigs))
    total_mips = float(mips.sum())
    ipc = total_instr / total_cycles if total_cycles > 0 else 0.0

    llc_apki = np.array([s.llc_apki for s in sigs])
    llc_mpki = np.array([p.llc_mpki for p in perf])
    access_rate = instr_rate * llc_apki / 1000.0
    miss_rate = instr_rate * llc_mpki / 1000.0
    total_access = float(access_rate.sum())
    miss_ratio = float(miss_rate.sum()) / total_access if total_access > 0 else 0.0

    write_frac = np.array([s.write_fraction for s in sigs])
    dram_gbps = np.array([p.dram_gbps for p in perf])
    read_gbps = float((dram_gbps / (1.0 + write_frac)).sum())
    total_gbps = float(dram_gbps.sum())
    write_gbps = total_gbps - read_gbps

    network = float(sum(p.network_gbps for p in perf))
    disk = float(sum(p.disk_mbps for p in perf))

    stacks = [p.cpi_stack for p in perf]
    topdowns = [s.topdown() for s in stacks]

    return {
        "MIPS": total_mips,
        "IPC": ipc,
        "CPI": 1.0 / ipc if ipc > 0 else 0.0,
        "MIPSPerThread": total_mips / float(busy.sum()) if busy.sum() > 0 else 0.0,
        "MIPSPerVCPU": total_mips / allocated if allocated > 0 else 0.0,
        "SpinPct": instrw([s.spin_fraction for s in sigs]),
        "BusyThreads": float(busy.sum()),
        "CPUUtil": min(float(busy.sum()) / machine.hardware_threads, 1.0),
        "AllocatedVCPUs": allocated,
        "VCPUUtil": allocated / shape_vcpus,
        "ContainerCount": float(len(subset)),
        "DRAMUsedGB": dram_used,
        "DRAMUtil": dram_used / shape_dram_gb,
        "L1I-APKI": instrw([s.l1i_apki for s in sigs]),
        "L1D-APKI": instrw([s.l1d_apki for s in sigs]),
        "L1D-MPKI": instrw([s.l2_apki for s in sigs]),
        "L2-APKI": instrw([s.l2_apki for s in sigs]),
        "L2-MPKI": instrw(llc_apki),
        "LLC-APKI": instrw(llc_apki),
        "LLC-MPKI": instrw(llc_mpki),
        "LLC-MissRatio": miss_ratio,
        "LLC-HitRatio": 1.0 - miss_ratio if total_access > 0 else 0.0,
        "LLC-MissesPerSec": float(miss_rate.sum()) * 1000.0,
        "CacheOccupancyMB": float(sum(p.cache_share_mb for p in perf)),
        "Branch-MPKI": instrw([s.branch_mpki for s in sigs]),
        "Topdown-Retiring": cyclew([t.retiring for t in topdowns]),
        "Topdown-FrontendBound": cyclew([t.frontend_bound for t in topdowns]),
        "Topdown-BadSpeculation": cyclew([t.bad_speculation for t in topdowns]),
        "Topdown-BackendBound": cyclew([t.backend_bound for t in topdowns]),
        "Topdown-MemoryBound": cyclew([t.memory_bound for t in topdowns]),
        "Topdown-CoreBound": cyclew([t.core_bound for t in topdowns]),
        "CPIStack-Base": instrw([s.base for s in stacks]),
        "CPIStack-Frontend": instrw([s.frontend for s in stacks]),
        "CPIStack-Branch": instrw([s.branch for s in stacks]),
        "CPIStack-L2": instrw([s.l2 for s in stacks]),
        "CPIStack-LLCHit": instrw([s.llc_hit for s in stacks]),
        "CPIStack-DRAM": instrw([s.dram for s in stacks]),
        "CPIStack-SMT": instrw([s.smt for s in stacks]),
        "MemReadGBps": read_gbps,
        "MemWriteGBps": write_gbps,
        "MemTotalGBps": total_gbps,
        "MemTotalBytesPerSec": total_gbps * 1e9,
        "MemBWUtil": min(total_gbps / machine.mem_bw_gbps, 1.0),
        "NetworkGbps": network,
        "NetworkUtil": min(network / machine.network_gbps, 1.0),
        "DiskMBps": disk,
        "DiskUtil": min(disk / machine.disk_mbps, 1.0),
    }


def machine_only_metrics(pairs, shape_vcpus, shape_dram_gb, solution):
    """Environment/OS-level counters that exist only at machine scope."""
    allocated = sum(ri.signature.vcpus for ri, _ in pairs)
    hp_allocated = sum(
        ri.signature.vcpus for ri, pi in pairs if pi.is_high_priority
    )
    dram_used = sum(ri.signature.dram_gb for ri, _ in pairs)
    busy = sum(pi.busy_threads for _, pi in pairs)
    containers = len(pairs)
    dram_gbps = sum(pi.dram_gbps for _, pi in pairs)
    return {
        "MemLatencyNs": solution.mem_latency_ns,
        "MemFreeGB": shape_dram_gb - dram_used,
        "FreeVCPUs": float(shape_vcpus - allocated),
        "HPVCPUShare": hp_allocated / allocated if allocated else 0.0,
        "LoadAverage": busy,
        "ContextSwitchesPerSec": 120.0 * busy + 40.0 * containers,
        "PageFaultsPerSec": 900.0 * dram_gbps + 30.0 * containers,
        "ProcessCount": 60.0 + 12.0 * containers,
    }


def temporal_metrics_scalar(profiler, scenario, machine, base_values):
    """Std-dev of key counters over jittered user-demand samples.

    The historical per-sample loop over :func:`level_metrics`, the
    ground truth the Profiler's vectorised sampler must match.
    """
    rng = np.random.default_rng((profiler.seed, scenario.scenario_id))
    samples: dict[str, list[float]] = {}
    for level in (MetricLevel.MACHINE, MetricLevel.HP):
        for base in TEMPORAL_BASES:
            name = f"{base}-{level.value}"
            samples[name] = [base_values[name]]

    jittered_samples: list[list[RunningInstance]] = []
    for _ in range(profiler.temporal_samples):
        jittered = []
        for inst in scenario.instances:
            factor = 1.0 + rng.uniform(
                -profiler.temporal_jitter, profiler.temporal_jitter
            )
            load = float(np.clip(inst.load * factor, 0.05, 1.0))
            jittered.append(
                RunningInstance(signature=inst.signature, load=load)
            )
        jittered_samples.append(jittered)
    solutions = solve_many_scalar(machine, jittered_samples)
    for jittered, solution in zip(jittered_samples, solutions):
        pairs = list(zip(jittered, solution.instances))
        for level, selector in (
            (MetricLevel.MACHINE, lambda _: True),
            (MetricLevel.HP, lambda perf: perf.is_high_priority),
        ):
            subset = [(ri, pi) for ri, pi in pairs if selector(pi)]
            level_values = level_metrics(
                subset,
                scenario.total_vcpus,
                1.0,
                machine,
            )
            for base in TEMPORAL_BASES:
                samples[f"{base}-{level.value}"].append(level_values[base])

    out = {}
    for level in (MetricLevel.MACHINE, MetricLevel.HP):
        for base in TEMPORAL_BASES:
            series = np.asarray(samples[f"{base}-{level.value}"])
            out[temporal_metric_name(base, level)] = float(series.std(ddof=0))
    return out
