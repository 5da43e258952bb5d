"""Differential battery: the columnar metric kernel vs the oracle.

:func:`repro.telemetry.kernel.derive_metrics` promises the matrix the
per-scenario derivation in ``metric_oracle.py`` computes, bit for bit.
Every profile path feeds the kernel differently — object-packed batches
(in-memory), shard tables (serial store, ``StoreSlice``, worker row
ranges of every transport), object solutions packed into lanes
(one-row batches, solve memo) — so each path is checked against the
oracle here, on the hypothesis populations of
``tests/perfmodel/test_batch_equivalence.py``.  The oracle solves one
scenario at a time with the scalar solver.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.features import BASELINE, PAPER_FEATURES
from repro.cluster.machine import DEFAULT_SHAPE
from repro.cluster.scenario import Scenario, ScenarioDataset
from repro.perfmodel import (
    CPIStack,
    LaneSolution,
    ScenarioBatch,
    solve_colocation,
    solve_colocation_batch,
)
from repro.store import StoreSlice, TailingSource, write_store
from repro.telemetry import Profiler
from repro.telemetry.kernel import derive_metrics

from ..perfmodel.test_batch_equivalence import build, machines, populations
from .metric_oracle import oracle_matrix, vector_from_solution

PER_JOB = ("DA", "WSC", "mcf")
features = st.sampled_from((BASELINE, *PAPER_FEATURES))


def as_dataset(population) -> ScenarioDataset:
    scenarios = []
    for scenario_id, mix in enumerate(population):
        instances = tuple(build(mix))
        counts: dict[str, int] = {}
        for inst in instances:
            name = inst.signature.name
            counts[name] = counts.get(name, 0) + 1
        scenarios.append(
            Scenario(
                scenario_id=scenario_id,
                key=tuple(sorted(counts.items())),
                instances=instances,
                n_occurrences=1,
                total_duration_s=600.0 + scenario_id,
            )
        )
    return ScenarioDataset(shape=DEFAULT_SHAPE, scenarios=tuple(scenarios))


def assert_bitwise(actual: np.ndarray, expected: np.ndarray):
    assert actual.shape == expected.shape
    differ = np.argwhere(actual.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, [
        (int(r), int(c), actual[r, c], expected[r, c]) for r, c in differ[:5]
    ]


def oracle(profiler, dataset, feature=BASELINE):
    return oracle_matrix(profiler, dataset, feature(dataset.shape.perf))


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(machines, populations)
    def test_kernel_equals_oracle_on_any_machine(self, machine, population):
        dataset = as_dataset(population)
        profiler = Profiler(noise_sigma=0.0, per_job_metrics=PER_JOB)
        batch = ScenarioBatch.from_instances(
            [s.instances for s in dataset.scenarios]
        )
        matrix = derive_metrics(
            batch,
            solve_colocation_batch(machine, batch),
            shape=dataset.shape,
            per_job_metrics=PER_JOB,
        )
        assert_bitwise(matrix, oracle_matrix(profiler, dataset, machine))

    def test_zero_rows_and_empty_rows(self):
        empty = ScenarioBatch.from_instances([])
        lanes = solve_colocation_batch(BASELINE(DEFAULT_SHAPE.perf), empty)
        matrix = derive_metrics(empty, lanes, shape=DEFAULT_SHAPE)
        assert matrix.shape == (0, 102)
        dataset = as_dataset([[], [("DA", 1.0)], []])
        profiler = Profiler(noise_sigma=0.0, per_job_metrics=PER_JOB)
        assert_bitwise(
            profiler.profile(dataset).matrix, oracle(profiler, dataset)
        )

    def test_invalid_stack_raises_the_object_error(self):
        machine = BASELINE(DEFAULT_SHAPE.perf)
        batch = ScenarioBatch.from_instances([build([("DA", 1.0)])])
        lanes = solve_colocation_batch(machine, batch)
        lanes.cpi_l2[0, 0] = -1.0
        with pytest.raises(ValueError, match="CPI component l2"):
            derive_metrics(batch, lanes, shape=DEFAULT_SHAPE)
        lanes = solve_colocation_batch(machine, batch)
        lanes.cpi_base[0, 0] = lanes.cpi_frontend[0, 0] = 1e308
        with pytest.raises(ValueError) as from_object:
            CPIStack(1e308, 1e308, 0.0, 0.0, 0.0, 0.0).topdown()
        with pytest.raises(ValueError) as from_kernel:
            derive_metrics(batch, lanes, shape=DEFAULT_SHAPE)
        assert str(from_kernel.value) == str(from_object.value)


class TestLaneSolution:
    @settings(max_examples=25, deadline=None)
    @given(machines, populations)
    def test_packed_objects_equal_solver_lanes(self, machine, population):
        instances = [build(mix) for mix in population]
        lanes = solve_colocation_batch(machine, instances)
        packed = LaneSolution.from_performances(
            machine, [solve_colocation(machine, row) for row in instances]
        )
        for name in ("mips", "ipc", "busy", "cpi_dram", "cpi_smt", "disk_mbps"):
            assert_bitwise(getattr(packed, name), getattr(lanes, name))
        for name in ("frequency", "mem_latency", "mem_bw_utilization"):
            assert np.array_equal(getattr(packed, name), getattr(lanes, name))

    def test_sequence_protocol(self):
        machine = BASELINE(DEFAULT_SHAPE.perf)
        instances = [build([("DA", 1.0)]), [], build([("mcf", 0.5)] * 3)]
        lanes = solve_colocation_batch(machine, instances)
        assert len(lanes) == 3
        assert lanes[-1] == lanes[2]
        assert lanes[1:] == [lanes[1], lanes[2]]
        assert [len(s.instances) for s in lanes] == [1, 0, 3]
        with pytest.raises(IndexError):
            lanes[3]


class TestProfilePaths:
    @settings(max_examples=25, deadline=None)
    @given(populations, features)
    def test_in_memory(self, population, feature):
        dataset = as_dataset(population)
        profiler = Profiler(noise_sigma=0.0, per_job_metrics=PER_JOB)
        assert_bitwise(
            profiler.profile(dataset, feature).matrix,
            oracle(profiler, dataset, feature),
        )

    @settings(max_examples=15, deadline=None)
    @given(populations, features, st.data())
    def test_serial_store_and_slices(self, population, feature, data):
        dataset = as_dataset(population)
        profiler = Profiler(noise_sigma=0.0, per_job_metrics=PER_JOB)
        expected = oracle(profiler, dataset, feature)
        start = data.draw(st.integers(0, len(dataset)))
        stop = data.draw(st.integers(start, len(dataset)))
        with tempfile.TemporaryDirectory() as tmp:
            store = write_store(dataset, Path(tmp) / "s", shard_size=3)
            for source, rows in (
                (store, slice(None)),
                (TailingSource(store), slice(None)),
                (StoreSlice(store, start, stop), slice(start, stop)),
            ):
                assert_bitwise(
                    profiler.profile(source, feature).matrix, expected[rows]
                )

    @settings(max_examples=15, deadline=None)
    @given(populations, features)
    def test_scalar_solver_and_memo(self, population, feature):
        # One-row blocks take the scalar solver; the memo packs objects.
        dataset = as_dataset(population)
        profiler = Profiler(noise_sigma=0.0)
        expected = oracle(profiler, dataset, feature)
        machine = feature(dataset.shape.perf)
        one_row_blocks = profiler.collect_many(
            dataset.scenarios, dataset, machine, block_rows=1
        )
        assert_bitwise(one_row_blocks, expected)
        memoised = Profiler(noise_sigma=0.0, memo="memory")
        assert_bitwise(memoised.profile(dataset, feature).matrix, expected)

    def test_memo_and_scalar_from_store_tables(self, tmp_path):
        dataset = as_dataset(
            [[("DA", 1.0), ("mcf", 0.6)], [("WSC", 0.8)], [("GA", 0.4)] * 3]
        )
        store = write_store(dataset, tmp_path / "s", shard_size=2)
        expected = oracle(Profiler(noise_sigma=0.0), dataset)
        profiler = Profiler(noise_sigma=0.0, memo="memory")
        assert_bitwise(profiler.profile(store).matrix, expected)
        # A one-row shard's table batch takes the scalar solver.
        single = write_store(dataset, tmp_path / "one", shard_size=1)
        plain = Profiler(noise_sigma=0.0)
        assert_bitwise(plain.profile(single).matrix, expected)

    @pytest.fixture(scope="class")
    def pool(self):
        from repro.runtime import ProcessExecutor

        with ProcessExecutor(max_workers=2) as pool:
            yield pool

    def test_shard_refs_under_process_pool(self, pool):
        # Workers profile their shard refs through collect_tables.
        @settings(max_examples=6, deadline=None)
        @given(populations, features)
        def check(population, feature):
            dataset = as_dataset(population * 3)
            profiler = Profiler(noise_sigma=0.0, per_job_metrics=PER_JOB)
            with tempfile.TemporaryDirectory() as tmp:
                store = write_store(dataset, Path(tmp) / "s", shard_size=4)
                matrix = profiler.profile(store, feature, runtime=pool).matrix
            assert_bitwise(matrix, oracle(profiler, dataset, feature))

        check()

    def test_scalar_solver_row_ranges_under_process_pool(self, pool):
        # In-memory row ranges, shared or pickled, match the scalar
        # oracle; chunk_size=1 gives one-row ranges (scalar solves).
        from repro.runtime import RuntimeConfig

        dataset = as_dataset(
            [[("DA", 1.0), ("mcf", 0.6)], [("WSC", 0.8)], [], [("GA", 0.4)] * 3]
            * 2
        )
        profiler = Profiler(noise_sigma=0.0, per_job_metrics=PER_JOB)
        expected = oracle(profiler, dataset)
        for dispatch in ("shm", "pickle"):
            for chunk_size in (1, 3):
                runtime = RuntimeConfig(
                    executor=pool, dispatch=dispatch, chunk_size=chunk_size
                )
                assert_bitwise(
                    profiler.profile(dataset, runtime=runtime).matrix,
                    expected,
                )

    def test_one_collect_task(self):
        import repro.telemetry.profiler as profiler_module

        tasks = [name for name in vars(profiler_module) if "Collect" in name]
        assert tasks == ["_CollectTask"]

    def test_temporal_columns_on_every_backing(self, tmp_path):
        dataset = as_dataset(
            [[("DA", 1.0), ("mcf", 0.6)], [("sjeng", 0.9)], [], [("WSC", 0.8)]]
        )
        profiler = Profiler(
            noise_sigma=0.0, temporal_samples=3, per_job_metrics=PER_JOB
        )
        machine = dataset.shape.perf
        expected = np.stack(
            [
                vector_from_solution(
                    profiler,
                    scenario,
                    dataset,
                    machine,
                    solve_colocation(machine, list(scenario.instances)),
                )
                for scenario in dataset.scenarios
            ]
        )
        store = write_store(dataset, tmp_path / "s", shard_size=3)
        for source in (dataset, store):
            assert_bitwise(profiler.profile(source).matrix, expected)

    def test_store_profile_decodes_no_scenario(self, tmp_path, monkeypatch):
        import repro.store.format as store_format

        dataset = as_dataset([[("DA", 1.0)], [("mcf", 0.5), ("GA", 0.9)]] * 4)
        store = write_store(dataset, tmp_path / "s", shard_size=3)

        def refuse(*args, **kwargs):
            raise AssertionError("the profile path decoded a scenario")

        monkeypatch.setattr(store_format, "_decode_row", refuse)
        batches = list(Profiler().iter_profile(StoreSlice(store, 1, 7)))
        assert [b.start_row for b in batches] == [0, 2, 5]
        monkeypatch.undo()
        ids = [s.scenario_id for b in batches for s in b.dataset.scenarios]
        assert ids == [1, 2, 3, 4, 5, 6]

    def test_pickled_store_profile_decodes_no_scenario(
        self, tmp_path, monkeypatch, pool
    ):
        # Pickled items are the shard tables' own rows, not scenarios.
        import repro.store.format as store_format
        from repro.runtime import RuntimeConfig, SerialExecutor

        dataset = as_dataset([[("DA", 1.0)], [("mcf", 0.5), ("GA", 0.9)]] * 4)
        store = write_store(dataset, tmp_path / "s", shard_size=3)
        profiler = Profiler(noise_sigma=0.0)
        expected = oracle(profiler, dataset)

        def refuse(*args, **kwargs):
            raise AssertionError("the profile path decoded a scenario")

        monkeypatch.setattr(store_format, "_decode_row", refuse)
        for executor in (pool, SerialExecutor()):
            runtime = RuntimeConfig(executor=executor, dispatch="pickle")
            for source, rows, sizes in (
                (store, slice(None), [3, 3, 2]),
                (StoreSlice(store, 1, 7), slice(1, 7), [2, 3, 1]),
            ):
                batches = list(profiler.iter_profile(source, runtime=runtime))
                assert [len(b.matrix) for b in batches] == sizes
                assert_bitwise(
                    np.concatenate([b.matrix for b in batches]), expected[rows]
                )
