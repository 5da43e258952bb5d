"""The v2 model artefact: the fitted state, read back without re-fitting.

Every model kind the format writes — in-memory, store-backed, refit
lineage, reweighted by durations and by classification — must

* give estimates byte-equal to the in-process model (all three Table-4
  features, all-job and per HP job), with its source store present and
  after it is deleted;
* pass :func:`verify_model` (re-fit from the population, same state);
* re-save to the identical bytes.

Tampering with the state fails ``load_model(verify=True)``; a forgery
whose checksum was recomputed still fails ``verify_model``.  A
hand-built version-1 payload still loads through the re-fit.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.api import HP_JOB_NAMES
from repro.cluster import PAPER_FEATURES, run_simulation
from repro.cluster.simulation import DatacenterConfig
from repro.core import Flare, FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.core.refit import refit
from repro.io import (
    config_to_dict,
    dataset_to_dict,
    fitted_digest,
    load_model,
    save_model,
    state_sha256,
    verify_model,
)
from repro.store import write_store
from repro.store.live import StoreSlice

from ..core.member_oracle import assert_table_matches_walk

CONFIG = FlareConfig(analyzer=AnalyzerConfig(n_clusters=6, seed=3))
KINDS = ("memory", "store", "lineage", "reweighted", "classified")


def answers(model) -> dict:
    """``repr`` of every estimate the benchmark asks for."""
    out = {}
    for feature in PAPER_FEATURES:
        out[feature.name] = repr(model.evaluate(feature).reduction_pct)
        for job in HP_JOB_NAMES:
            try:
                value = repr(model.evaluate_job(feature, job).reduction_pct)
            except ValueError:
                value = "absent"
            out[f"{feature.name}:{job}"] = value
    return out


def build(kind: str, dataset, store_dir):
    """A fitted model of *kind* (and the store it references, if any)."""
    if kind == "memory":
        return Flare(CONFIG).fit(dataset), None
    store = write_store(dataset, store_dir, shard_size=32)
    if kind == "store":
        return Flare(CONFIG).fit(store), store
    if kind == "lineage":
        spill = store_dir.parent / f"{store_dir.name}-spill"
        first = refit(StoreSlice(store, 0, 80), CONFIG, spill_dir=spill)
        grown = refit(
            store,
            prev=first,
            spill_dir=spill,
            trigger="drift:warn",
            max_scaler_drift=10.0,
        )
        assert grown._refit_plan["init"] is not None
        return grown, store
    base = Flare(CONFIG).fit(dataset)
    if kind == "reweighted":
        durations = {
            s.key: s.total_duration_s * (3.0 if i % 3 == 0 else 0.5)
            for i, s in enumerate(dataset.scenarios)
        }
        return base.reweight(durations), None
    new = run_simulation(
        DatacenterConfig(seed=43, target_unique_scenarios=40)
    ).dataset
    return base.reweight_by_classification(new), None


@pytest.fixture(scope="module", params=KINDS)
def saved(request, small_sim, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    model, store = build(request.param, small_sim.dataset, root / "store")
    path = root / "model.json"
    save_model(model, path)
    return request.param, model, store, path, answers(model)


class TestEveryKind:
    def test_loaded_estimates_are_byte_equal(self, saved):
        _, _, _, path, expected = saved
        assert answers(load_model(path)) == expected

    def test_verify_model_passes(self, saved):
        _, model, _, path, _ = saved
        assert fitted_digest(verify_model(path)) == fitted_digest(model)

    def test_resave_is_byte_identical(self, saved, tmp_path):
        _, _, _, path, _ = saved
        again = tmp_path / "again.json"
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_table_matches_walk(self, saved):
        _, model, _, path, _ = saved
        loaded = load_model(path)
        table = loaded.representatives.member_table()
        assert table == model.representatives.member_table()
        assert assert_table_matches_walk(
            loaded.representatives, loaded.dataset
        )

    def test_estimates_survive_store_deletion(self, saved, tmp_path):
        kind, _, store, path, expected = saved
        if store is None:
            pytest.skip(f"{kind} models embed their population")
        moved = tmp_path / "parked"
        shutil.move(str(store.path), moved)
        try:
            loaded = load_model(path)
            assert answers(loaded) == expected
            with pytest.raises(ValueError, match="cannot be opened"):
                loaded.dataset
        finally:
            shutil.move(str(moved), store.path)


class TestLoadIsARead:
    def test_load_profiles_and_fits_nothing(self, saved, monkeypatch):
        from repro.core import pipeline
        from repro.telemetry.profiler import Profiler

        def refuse(*args, **kwargs):
            raise AssertionError("load_model must not re-fit or profile")

        monkeypatch.setattr(pipeline.Flare, "fit", refuse)
        monkeypatch.setattr(Profiler, "profile", refuse)
        monkeypatch.setattr(Profiler, "iter_profile", refuse)
        _, _, _, path, expected = saved
        loaded = load_model(path)
        assert answers(loaded) == expected
        assert loaded.representatives.dataset is None

    def test_state_only_model_explains_missing_matrices(self, saved):
        _, _, _, path, _ = saved
        loaded = load_model(path)
        with pytest.raises(RuntimeError, match="verify_model"):
            loaded.profiled


def _nudge(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def _flip_centroid(state):
    state["kmeans"]["centroids"][0][0] = _nudge(
        state["kmeans"]["centroids"][0][0]
    )


def _flip_member(state):
    for _, members in state["groups"]:
        if len(members) >= 2:
            members[0], members[1] = members[1], members[0]
            return
    raise AssertionError("no group with two members")


def _flip_weight(state):
    state["cluster_weights"][0] = _nudge(state["cluster_weights"][0])


def _flip_baseline(state):
    state["baseline"]["sse"] = _nudge(state["baseline"]["sse"])


TAMPERS = {
    "centroid": _flip_centroid,
    "member": _flip_member,
    "cluster-weight": _flip_weight,
    "baseline": _flip_baseline,
}


class TestTamperDetection:
    @pytest.fixture(scope="class")
    def artefact(self, small_flare, tmp_path_factory):
        path = tmp_path_factory.mktemp("tamper") / "model.json"
        save_model(small_flare, path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_load_rejects_tampered_state(self, artefact, tamper, tmp_path):
        payload = json.loads(json.dumps(artefact))
        TAMPERS[tamper](payload["state"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="integrity"):
            load_model(path, verify=True)
        # A forgery with a recomputed checksum still fails the re-fit.
        payload["state_sha256"] = state_sha256(payload["state"])
        path.write_text(json.dumps(payload))
        load_model(path, verify=True)
        with pytest.raises(ValueError, match="re-fitted model"):
            verify_model(path)

    def test_untouched_artefact_verifies(self, artefact, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(artefact))
        load_model(path, verify=True)
        verify_model(path)


class TestVersionOnePayload:
    """A version-1 artefact — config, embedded dataset, fitted digest —
    still loads, through the re-fit."""

    @pytest.fixture(scope="class")
    def v1(self, small_flare, tmp_path_factory):
        payload = {
            "format_version": 1,
            "config": config_to_dict(small_flare.config),
            "fitted_digest": fitted_digest(small_flare),
            "fit_baseline": small_flare.representatives.baseline.to_dict(),
            "dataset": dataset_to_dict(small_flare.dataset),
        }
        path = tmp_path_factory.mktemp("v1") / "model.json"
        path.write_text(json.dumps(payload))
        return path

    def test_v1_loads_with_equal_estimates(self, v1, small_flare):
        assert answers(load_model(v1)) == answers(small_flare)

    def test_v1_verifies(self, v1, small_flare):
        assert fitted_digest(verify_model(v1)) == fitted_digest(small_flare)

    def test_v1_resaves_as_v2(self, v1, tmp_path):
        path = tmp_path / "v2.json"
        save_model(load_model(v1), path)
        assert json.loads(path.read_text())["format_version"] == 2
        verify_model(path)

    def test_v1_digest_mismatch_raises(self, v1, tmp_path):
        payload = json.loads(v1.read_text())
        payload["fitted_digest"] = "0" * 64
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="does not reproduce"):
            load_model(path)


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestRetiredSolverSetting:
    """A committed v2 artefact from when ``FlareConfig`` had ``solver``.

    ``golden/model_v2_solver_scalar.json`` embeds a 60-scenario dataset
    and stores ``"solver": "scalar"`` in its config; its answers file
    holds the estimates of the model that wrote it.  The retired key is
    ignored on load and by :func:`verify_model`, while the stored
    ``state_sha256`` still guards the file bytes.
    """

    path = GOLDEN / "model_v2_solver_scalar.json"

    def test_loads_and_evaluates_as_written(self):
        expected = json.loads(
            (GOLDEN / "model_v2_solver_scalar_answers.json").read_text()
        )
        loaded = load_model(self.path)
        assert "solver" not in config_to_dict(loaded.config)
        assert answers(loaded) == expected

    def test_verify_model_passes(self):
        payload = json.loads(self.path.read_text())
        assert payload["state"]["config"]["solver"] == "scalar"
        verified = verify_model(self.path)
        assert fitted_digest(verified) == payload["state"]["fitted_digest"]

    def test_retired_key_is_still_covered_by_the_checksum(self, tmp_path):
        payload = json.loads(self.path.read_text())
        payload["state"]["config"]["solver"] = "batched"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="integrity"):
            load_model(path)
        with pytest.raises(ValueError, match="integrity"):
            verify_model(path)
