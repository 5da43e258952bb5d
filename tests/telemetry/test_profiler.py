"""Unit tests for the Profiler (metric collection)."""

import numpy as np
import pytest

from repro.cluster import FEATURE_1_CACHE
from repro.perfmodel import solve_colocation
from repro.telemetry import Database, Profiler, format_command, parse_command


@pytest.fixture()
def profiler():
    return Profiler(noise_sigma=0.0, seed=1)


class TestCommands:
    def test_round_trip(self, tiny_dataset):
        inst = tiny_dataset[0].instances[0]
        job, load = parse_command(format_command(inst))
        assert job == inst.signature.name
        assert load == pytest.approx(inst.load, abs=1e-4)

    def test_command_mentions_resources(self, tiny_dataset):
        cmd = format_command(tiny_dataset[0].instances[0])
        assert "--cpus 4" in cmd
        assert "docker run" in cmd

    def test_unparseable_command_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_command("docker run --cpus 4")


class TestCollect:
    def test_machine_metrics_cover_all_jobs(self, profiler, tiny_dataset):
        scenario = tiny_dataset[1]  # DC + mcf
        machine = tiny_dataset.shape.perf
        values = profiler.collect_many((scenario,), tiny_dataset, machine)[0]
        by_name = dict(zip(profiler.specs, values))
        named = {s.name: v for s, v in by_name.items()}
        sol = solve_colocation(machine, list(scenario.instances))
        assert named["MIPS-Machine"] == pytest.approx(sol.total_mips, rel=1e-6)
        assert named["MIPS-HP"] == pytest.approx(sol.hp_mips, rel=1e-6)
        assert named["MIPS-HP"] < named["MIPS-Machine"]

    def test_hp_metrics_zero_for_lp_only_scenario(self, profiler, tiny_dataset):
        scenario = tiny_dataset[3]  # sjeng + libquantum
        values = profiler.collect_many(
            (scenario,), tiny_dataset, tiny_dataset.shape.perf
        )[0]
        named = {s.name: v for s, v in zip(profiler.specs, values)}
        assert named["MIPS-HP"] == 0.0
        assert named["ContainerCount-HP"] == 0.0
        assert named["MIPS-Machine"] > 0.0

    def test_container_and_vcpu_accounting(self, profiler, tiny_dataset):
        scenario = tiny_dataset[4]  # IA + MS + DS + omnetpp
        values = profiler.collect_many(
            (scenario,), tiny_dataset, tiny_dataset.shape.perf
        )[0]
        named = {s.name: v for s, v in zip(profiler.specs, values)}
        assert named["ContainerCount-Machine"] == 4.0
        assert named["ContainerCount-HP"] == 3.0
        assert named["AllocatedVCPUs-Machine"] == 16.0
        assert named["FreeVCPUs"] == 32.0
        assert named["HPVCPUShare"] == pytest.approx(12.0 / 16.0)

    def test_fraction_metrics_in_unit_interval(self, profiler, tiny_dataset):
        for scenario in tiny_dataset.scenarios:
            values = profiler.collect_many(
                (scenario,), tiny_dataset, tiny_dataset.shape.perf
            )[0]
            for spec, value in zip(profiler.specs, values):
                if spec.is_fraction:
                    assert 0.0 <= value <= 1.0 + 1e-9, spec.name

    def test_redundant_metrics_consistent(self, profiler, tiny_dataset):
        scenario = tiny_dataset[0]
        values = profiler.collect_many(
            (scenario,), tiny_dataset, tiny_dataset.shape.perf
        )[0]
        named = {s.name: v for s, v in zip(profiler.specs, values)}
        assert named["MemTotalBytesPerSec-Machine"] == pytest.approx(
            named["MemTotalGBps-Machine"] * 1e9
        )
        assert named["LLC-HitRatio-HP"] == pytest.approx(
            1.0 - named["LLC-MissRatio-HP"]
        )
        assert named["CPI-Machine"] == pytest.approx(
            1.0 / named["IPC-Machine"]
        )


class TestProfile:
    def test_matrix_shape(self, profiler, tiny_dataset):
        profiled = profiler.profile(tiny_dataset)
        assert profiled.matrix.shape == (6, len(profiler.specs))
        assert profiled.n_scenarios == 6

    def test_all_finite(self, profiler, tiny_dataset):
        profiled = profiler.profile(tiny_dataset)
        assert np.isfinite(profiled.matrix).all()

    def test_feature_changes_metrics(self, tiny_dataset):
        profiler = Profiler(noise_sigma=0.0, seed=1)
        base = profiler.profile(tiny_dataset)
        small_cache = profiler.profile(tiny_dataset, feature=FEATURE_1_CACHE)
        assert (
            small_cache.column("LLC-MPKI-HP").sum()
            > base.column("LLC-MPKI-HP").sum()
        )

    def test_noise_reproducible(self, tiny_dataset):
        a = Profiler(noise_sigma=0.02, seed=9).profile(tiny_dataset)
        b = Profiler(noise_sigma=0.02, seed=9).profile(tiny_dataset)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_column_lookup(self, profiler, tiny_dataset):
        profiled = profiler.profile(tiny_dataset)
        col = profiled.column("MIPS-HP")
        assert col.shape == (6,)
        with pytest.raises(KeyError):
            profiled.column("NotAMetric")


class TestPersistence:
    def test_database_records_scenarios_and_samples(self, tiny_dataset):
        db = Database()
        profiler = Profiler(noise_sigma=0.0, seed=1, database=db)
        profiler.profile(tiny_dataset)
        scenarios = db.table("scenarios")
        samples = db.table("samples")
        assert len(scenarios) == 6
        assert len(samples) == 6 * len(profiler.specs)

    def test_recorded_commands_are_replayable(self, tiny_dataset):
        db = Database()
        Profiler(noise_sigma=0.0, seed=1, database=db).profile(tiny_dataset)
        row = db.table("scenarios").get(1)  # DC + mcf
        commands = row["commands"].split(";")
        parsed = [parse_command(c) for c in commands]
        assert ("DC", pytest.approx(0.85, abs=1e-3)) in [
            (j, pytest.approx(l, abs=1e-3)) for j, l in parsed
        ] or any(j == "DC" for j, _ in parsed)
        assert any(j == "mcf" for j, _ in parsed)

    def test_reprofiling_does_not_duplicate_scenarios(self, tiny_dataset):
        db = Database()
        profiler = Profiler(noise_sigma=0.0, seed=1, database=db)
        profiler.profile(tiny_dataset)
        profiler.profile(tiny_dataset)
        assert len(db.table("scenarios")) == 6
