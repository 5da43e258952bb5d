"""Zero-copy dispatch: transport equivalence and shared-memory hygiene.

The dispatch modes are pure transports — serial, pickled chunks,
shard-ref descriptors and shared-memory tables must all produce the
bit-identical metric matrix, with or without injected faults, and the
``shm`` mode must never leak a segment whatever the run's outcome.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.runtime import (
    FaultSpec,
    ProcessExecutor,
    ResilienceConfig,
    RetryPolicy,
    RuntimeConfig,
    SerialExecutor,
    active_shared_segments,
)
from repro.telemetry import Profiler


def _fast_retry(max_retries: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_retries=max_retries, backoff_base_s=0.0, backoff_jitter=0.0
    )


def _journaled_profile(source, tmp_path) -> np.ndarray:
    """Profile under a journaled 2-worker pool (auto dispatch: pickle
    for in-memory sources, shardref for stores)."""
    from repro.runtime.cache import CheckpointJournal

    journal = CheckpointJournal(tmp_path / "journal", "profile")
    with ProcessExecutor(max_workers=2, checkpoint=journal) as pool:
        matrix = Profiler().profile(source, runtime=pool).matrix
    assert len(journal) > 0
    return matrix


class TestDispatchEquivalence:
    def test_store_transports_bit_identical(self, shared_store, tmp_path):
        serial = Profiler().profile(shared_store).matrix

        with SerialExecutor() as pool:  # serial executor: pickle chunks
            pickled = Profiler().profile(shared_store, runtime=pool).matrix
        with ProcessExecutor(max_workers=2) as pool:  # auto: shardref
            auto = Profiler().profile(shared_store, runtime=pool).matrix
        explicit = Profiler().profile(
            shared_store,
            runtime=RuntimeConfig(executor="process:2", dispatch="shardref"),
        ).matrix
        parallel_pickled = Profiler().profile(
            shared_store,
            runtime=RuntimeConfig(executor="process:2", dispatch="pickle"),
        ).matrix

        np.testing.assert_array_equal(serial, pickled)
        np.testing.assert_array_equal(serial, auto)
        np.testing.assert_array_equal(serial, explicit)
        np.testing.assert_array_equal(serial, parallel_pickled)
        np.testing.assert_array_equal(
            serial, _journaled_profile(shared_store, tmp_path)
        )

    def test_in_memory_transports_bit_identical(self, store_dataset, tmp_path):
        inline = Profiler().profile(store_dataset).matrix
        shm = Profiler().profile(
            store_dataset,
            runtime=RuntimeConfig(executor="process:2", dispatch="shm"),
        ).matrix
        pickled = Profiler().profile(
            store_dataset,
            runtime=RuntimeConfig(executor="process:2", dispatch="pickle"),
        ).matrix

        np.testing.assert_array_equal(inline, shm)
        np.testing.assert_array_equal(inline, pickled)
        np.testing.assert_array_equal(
            inline, _journaled_profile(store_dataset, tmp_path)
        )

    @pytest.mark.parametrize("dispatch", ["pickle", "shm"])
    def test_conflicting_signatures_are_rejected(self, dispatch):
        import dataclasses

        from repro.cluster.machine import DEFAULT_SHAPE
        from repro.cluster.scenario import Scenario, ScenarioDataset
        from repro.perfmodel import RunningInstance
        from repro.workloads import get_job

        job = get_job("DA")
        twin = dataclasses.replace(job, base_cpi=job.base_cpi * 1.5)
        scenarios = tuple(
            Scenario(
                scenario_id=i,
                key=(("DA", 1),),
                instances=(RunningInstance(signature=signature, load=0.8),),
                n_occurrences=1,
                total_duration_s=60.0,
            )
            for i, signature in enumerate((job, twin))
        )
        dataset = ScenarioDataset(shape=DEFAULT_SHAPE, scenarios=scenarios)
        runtime = RuntimeConfig(executor="process:2", dispatch=dispatch)
        with pytest.raises(ValueError, match="conflicting signatures for job"):
            Profiler().profile(dataset, runtime=runtime)
        assert active_shared_segments() == ()

    def test_chunk_size_does_not_change_results(self, shared_store):
        serial = Profiler().profile(shared_store).matrix
        chunked = Profiler().profile(
            shared_store,
            runtime=RuntimeConfig(executor="process:2", chunk_size=3),
        ).matrix
        np.testing.assert_array_equal(serial, chunked)

    def test_shardref_equivalent_under_fault_injection(self, shared_store):
        clean = Profiler().profile(shared_store).matrix
        res = ResilienceConfig(
            policy="retry_then_raise",
            retry=_fast_retry(),
            faults=FaultSpec(exception_rate=0.25, seed=13),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as pool:
            chaotic = Profiler().profile(shared_store, runtime=pool).matrix
        np.testing.assert_array_equal(clean, chaotic)

    def test_shm_equivalent_under_fault_injection(self, store_dataset):
        clean = Profiler().profile(store_dataset).matrix
        res = ResilienceConfig(
            policy="retry_then_raise",
            retry=_fast_retry(),
            faults=FaultSpec(exception_rate=0.25, seed=17),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as pool:
            chaotic = Profiler().profile(
                store_dataset,
                runtime=RuntimeConfig(executor=pool, dispatch="shm"),
            ).matrix
        np.testing.assert_array_equal(clean, chaotic)
        assert active_shared_segments() == ()


class TestSharedMemoryHygiene:
    def test_success_path_unlinks_segments(self, store_dataset):
        Profiler().profile(
            store_dataset,
            runtime=RuntimeConfig(executor="process:2", dispatch="shm"),
        )
        assert active_shared_segments() == ()

    def test_failure_path_unlinks_segments(self, store_dataset):
        res = ResilienceConfig(
            policy="fail_fast",
            faults=FaultSpec(exception_rate=1.0, seed=3),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as pool:
            with pytest.raises(Exception):
                Profiler().profile(
                    store_dataset,
                    runtime=RuntimeConfig(executor=pool, dispatch="shm"),
                )
        assert active_shared_segments() == ()

    def test_pool_respawn_unlinks_segments(self, store_dataset):
        clean = Profiler().profile(store_dataset).matrix
        res = ResilienceConfig(
            policy="retry_then_raise",
            retry=_fast_retry(),
            faults=FaultSpec(crash_rate=0.10, seed=29),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as pool:
            survived = Profiler().profile(
                store_dataset,
                runtime=RuntimeConfig(executor=pool, dispatch="shm"),
            ).matrix
        np.testing.assert_array_equal(clean, survived)
        assert active_shared_segments() == ()

    def test_shared_tables_refcount(self):
        from repro.runtime.dispatch import (
            SharedTables,
            attach_shared_tables,
        )
        from repro.store.format import INSTANCE_DTYPE, SCENARIO_DTYPE

        scenario_table = np.zeros(3, dtype=SCENARIO_DTYPE)
        instance_table = np.zeros(5, dtype=INSTANCE_DTYPE)
        instance_table["load"] = np.linspace(0.1, 0.9, 5)
        tables = SharedTables(scenario_table, instance_table)
        assert len(active_shared_segments()) == 2
        tables.acquire()
        tables.release()  # nested user: segments must survive
        assert len(active_shared_segments()) == 2

        attached_scn, attached_inst = attach_shared_tables(tables.ref)
        np.testing.assert_array_equal(attached_inst["load"], instance_table["load"])
        assert attached_scn.shape == scenario_table.shape

        tables.release()  # owner: now everything unlinks
        assert active_shared_segments() == ()
        with pytest.raises(RuntimeError):
            tables.acquire()


SRC_DIR = str(pathlib.Path(__file__).resolve().parents[2] / "src")


@pytest.mark.slow
class TestShardRefResume:
    """A parallel shard-ref profile killed mid-run resumes identically.

    Shard refs are pure content, so a resumed run rebuilds the same
    journal keys and restores the windows the killed run completed —
    through the zero-copy transport, not the pickle path test_resume
    exercises.
    """

    def _run(self, store_path, journal_root, kill_after: int, out_path):
        script = textwrap.dedent(
            f"""
            import hashlib, json, os, signal, sys
            sys.path.insert(0, {SRC_DIR!r})
            from repro.obs import get_metrics
            from repro.runtime import ProcessExecutor, RuntimeConfig
            from repro.store import open_store
            from repro.telemetry import Profiler

            kill_after = int(sys.argv[1])
            windows = [0]
            original = ProcessExecutor.map
            def dying(self, fn, items, **kwargs):
                out = original(self, fn, items, **kwargs)
                if kwargs.get("stage") == "profile":
                    windows[0] += 1
                    if 0 <= kill_after <= windows[0]:
                        # Completed chunks are journaled; die like a
                        # preempted job (workers first, no cleanup).
                        self._kill_pool()
                        os.kill(os.getpid(), signal.SIGKILL)
                return out
            ProcessExecutor.map = dying

            store = open_store({str(store_path)!r})
            runtime = RuntimeConfig(
                executor="process:2",
                dispatch="shardref",
                chunk_size=8,
                checkpoint_dir={str(journal_root)!r},
                resume=bool(int(sys.argv[3])),
            )
            profiled = Profiler().profile(store, runtime=runtime)
            hits = get_metrics().snapshot()["counters"].get(
                "checkpoint_hits_total", 0
            )
            json.dump(
                {{
                    "digest": hashlib.sha256(
                        profiled.matrix.tobytes()
                    ).hexdigest(),
                    "hits": int(hits),
                }},
                open(sys.argv[2], "w"),
            )
            """
        )
        return subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(kill_after),
                str(out_path),
                "1" if kill_after < 0 else "0",
            ],
            capture_output=True,
            text=True,
        )

    def test_sigkill_mid_profile_then_resume(self, shared_store, tmp_path):
        control = hashlib.sha256(
            Profiler().profile(shared_store).matrix.tobytes()
        ).hexdigest()
        journal_root = tmp_path / "journal"

        # First run dies after the first dispatch window (4 refs of 8
        # rows journaled out of 8).
        proc = self._run(
            shared_store.path, journal_root, 1, tmp_path / "dead.json"
        )
        assert proc.returncode == -9, proc.stderr
        journaled = list(journal_root.glob("*/chunk-*.pkl"))
        assert len(journaled) == 4

        # The resumed run restores those refs and completes.
        proc = self._run(
            shared_store.path, journal_root, -1, tmp_path / "resumed.json"
        )
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed["hits"] == 4
        assert resumed["digest"] == control
