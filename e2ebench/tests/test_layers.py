"""Safety of the benchmark's tracing and of what it may call.

Run with ``PYTHONPATH=src python -m pytest e2ebench/tests`` from the
repository root.

* Every wrapper target resolves, so a renamed public entry point fails
  here instead of silently reporting a zero layer.
* A traced session answers bit-identically to an untraced one, on every
  workload (at reduced sizes).
* The untraced end-to-end run names none of the private knobs and
  registries the ROADMAP plans to delete, so later changes can be
  measured by the unchanged benchmark.
"""

from __future__ import annotations

import inspect
import pathlib
import re

import numpy as np
import pytest

import layers
import run
import session as session_module
import workloads
from repro.core.streaming_fit import DEFAULT_SAMPLE_CAPACITY
from repro.stats.kmeans import StreamingKMeans

BENCH = pathlib.Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"


@pytest.mark.parametrize(
    "target",
    [target for targets in layers.LAYERS.values() for target in targets],
    ids=lambda target: f"{target[0]}:{target[1]}",
)
def test_wrapper_target_resolves(target):
    owner, name, function = layers.resolve(*target)
    assert getattr(owner, name) is function


def test_counted_parameters_exist():
    targets = {t for targets in layers.LAYERS.values() for t in targets}
    for target, parameter in layers.COUNTED_PARAMETERS.items():
        assert target in targets
        parameters = inspect.signature(layers.resolve(*target)[2]).parameters
        assert parameter in parameters
        if target[1].startswith("Replayer."):
            assert "feature" in parameters


def test_registry_counters_still_incremented():
    source = "\n".join(p.read_text() for p in SRC.rglob("*.py"))
    for counter in layers.REGISTRY_COUNTERS:
        assert f'inc("{counter}"' in source


def test_installed_restores_every_entry_point():
    originals = {
        target: layers.resolve(*target)[2]
        for targets in layers.LAYERS.values()
        for target in targets
    }
    with layers.installed(layers.LayerTracer()):
        for target, function in originals.items():
            owner, name = layers.resolve(*target)[:2]
            assert getattr(owner, name) is not function
    for target, function in originals.items():
        assert layers.resolve(*target)[2] is function


def run_workload(name, seed, work, tracer):
    """Build and query sessions in-process; returns both results."""
    workload = workloads.WORKLOADS[name]
    work.mkdir()
    results = []
    for role in ("build", "query"):
        session = session_module.Session(work, 0.0, tracer)
        getattr(workload, role)(session, seed)
        assert "aborted" not in session.result
        assert not session.result["checks"]
        assert all(op["ok"] for op in session.result["ops"])
        results.append(session.result)
    return results


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_SCENARIOS", 160)
    monkeypatch.setattr(workloads, "QUESTIONS_SCENARIOS", 240)
    monkeypatch.setattr(workloads, "FLEET_SCENARIOS", 320)
    monkeypatch.setattr(workloads, "FLEET_SEGMENT_DAYS", 0.005)
    monkeypatch.setattr(workloads, "GENERATIONS_PER_RUN", 2)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_answers_match_untraced(name, small_workloads, tmp_path):
    plain = run_workload(name, 5, tmp_path / "plain", None)
    tracer = layers.LayerTracer()
    with layers.installed(tracer):
        traced = run_workload(name, 5, tmp_path / "traced", tracer)
    for before, after in zip(plain, traced):
        for key in ("answers", "reference", "truth", "inputs"):
            assert before.get(key) == after.get(key), key
    metrics = tracer.metrics()
    assert metrics["telemetry.profile_s"] > 0
    assert metrics["perfmodel.scenarios_solved"] > 0
    assert metrics["core.replays_distinct"] > 0
    if name != "paper":
        assert metrics["store.write_s"] > 0
        assert metrics["store.decode_s"] > 0
        assert metrics["store.rows_read"] > 0
    if name == "questions":
        assert metrics["store.lookups"] > 0
    if name == "fleet":
        assert metrics["core.refit_s"] > 0
        assert metrics["obs.monitor_s"] > 0


def test_kmeans_pass_counter_forwards_the_source():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(600, 3))

    def batches():
        for start in range(0, len(rows), 100):
            yield rows[start : start + 100]

    def fit():
        return StreamingKMeans(n_clusters=4, seed=1).fit(
            batches, n_total=len(rows), sample=rows[::10]
        )

    plain = fit()
    tracer = layers.LayerTracer()
    with layers.installed(tracer), tracer.step("fit"):
        traced = fit()
    assert np.array_equal(plain.centroids, traced.centroids)
    assert np.array_equal(plain.labels, traced.labels)
    assert tracer.counts["stats.kmeans_passes"] > 0


def test_store_workloads_take_the_sampled_path():
    assert workloads.QUESTIONS_SCENARIOS > DEFAULT_SAMPLE_CAPACITY
    assert workloads.FLEET_SCENARIOS > DEFAULT_SAMPLE_CAPACITY


#: Private names ROADMAP items 1-5 plan to delete.
PLANNED_DELETIONS = (
    r"RUNTIME_STATS",
    r"_Collect\w*Task",
    r"_vector_from_solution",
    r"\bsolver\s*=",
)


@pytest.mark.parametrize("module", [run, session_module, workloads])
def test_untraced_run_avoids_planned_deletions(module):
    source = pathlib.Path(module.__file__).read_text()
    for pattern in PLANNED_DELETIONS:
        assert not re.search(pattern, source), pattern
