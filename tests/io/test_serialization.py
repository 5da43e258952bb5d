"""Unit tests for JSON persistence."""

import json
import shutil

import numpy as np
import pytest

from repro.cluster import FEATURE_1_CACHE
from repro.core import Flare, FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.io import (
    config_from_dict,
    config_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    fitted_digest,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    state_sha256,
    verify_model,
)


class TestDatasetRoundTrip:
    def test_preserves_scenarios(self, tiny_dataset):
        rebuilt = dataset_from_dict(dataset_to_dict(tiny_dataset))
        assert len(rebuilt) == len(tiny_dataset)
        for a, b in zip(tiny_dataset.scenarios, rebuilt.scenarios):
            assert a.key == b.key
            assert a.scenario_id == b.scenario_id
            assert a.total_duration_s == b.total_duration_s
            assert a.n_occurrences == b.n_occurrences

    def test_preserves_instances_exactly(self, tiny_dataset):
        rebuilt = dataset_from_dict(dataset_to_dict(tiny_dataset))
        for a, b in zip(tiny_dataset.scenarios, rebuilt.scenarios):
            for ia, ib in zip(a.instances, b.instances):
                assert ia.signature == ib.signature
                assert ia.load == ib.load

    def test_preserves_shape(self, tiny_dataset):
        rebuilt = dataset_from_dict(dataset_to_dict(tiny_dataset))
        assert rebuilt.shape == tiny_dataset.shape

    def test_weights_unchanged(self, tiny_dataset):
        rebuilt = dataset_from_dict(dataset_to_dict(tiny_dataset))
        np.testing.assert_allclose(rebuilt.weights(), tiny_dataset.weights())

    def test_payload_is_valid_json(self, tiny_dataset):
        payload = json.dumps(dataset_to_dict(tiny_dataset))
        assert json.loads(payload)

    def test_file_round_trip(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_dataset(tiny_dataset, path)
        rebuilt = load_dataset(path)
        assert [s.key for s in rebuilt.scenarios] == [
            s.key for s in tiny_dataset.scenarios
        ]

    def test_version_check(self, tiny_dataset):
        payload = dataset_to_dict(tiny_dataset)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            dataset_from_dict(payload)

    def test_custom_signature_survives(self, tiny_dataset):
        """Signatures are embedded, so non-catalogue jobs round-trip."""
        import dataclasses

        from repro.cluster import ScenarioDataset
        from repro.cluster.scenario import Scenario
        from repro.perfmodel import RunningInstance
        from repro.workloads import HP_JOBS

        custom = dataclasses.replace(
            HP_JOBS["WSC"], name="CUSTOM", base_cpi=0.33
        )
        scenario = Scenario(
            scenario_id=0,
            key=(("CUSTOM", 1),),
            instances=(RunningInstance(signature=custom, load=1.0),),
            n_occurrences=1,
            total_duration_s=60.0,
        )
        dataset = ScenarioDataset(
            shape=tiny_dataset.shape, scenarios=(scenario,)
        )
        rebuilt = dataset_from_dict(dataset_to_dict(dataset))
        sig = rebuilt.scenarios[0].instances[0].signature
        assert sig.name == "CUSTOM"
        assert sig.base_cpi == 0.33


class TestUnifiedDatasetPersistence:
    """save_dataset/load_dataset dispatch between JSON and store formats."""

    def test_shard_size_selects_store_format(self, tiny_dataset, tmp_path):
        from repro.store import ShardedScenarioStore

        target = tmp_path / "store"
        written = save_dataset(tiny_dataset, target, shard_size=2)
        assert isinstance(written, ShardedScenarioStore)
        assert (target / "manifest.json").exists()

    def test_load_auto_detects_store_directory(self, tiny_dataset, tmp_path):
        from repro.store import ShardedScenarioStore

        target = tmp_path / "store"
        save_dataset(tiny_dataset, target, shard_size=2)
        loaded = load_dataset(target)
        assert isinstance(loaded, ShardedScenarioStore)
        assert loaded.digest() == tiny_dataset.digest()

    def test_store_round_trip_preserves_scenarios(
        self, tiny_dataset, tmp_path
    ):
        save_dataset(tiny_dataset, tmp_path / "store", shard_size=2)
        back = load_dataset(tmp_path / "store").to_dataset()
        for a, b in zip(tiny_dataset.scenarios, back.scenarios):
            assert a.key == b.key
            assert a.total_duration_s == b.total_duration_s
            for ia, ib in zip(a.instances, b.instances):
                assert ia.signature == ib.signature
                assert ia.load == ib.load

    def test_json_path_still_selects_json(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        assert save_dataset(tiny_dataset, path) is None
        assert json.loads(path.read_text())
        from repro.cluster import ScenarioDataset

        assert isinstance(load_dataset(path), ScenarioDataset)

    def test_existing_directory_selects_store(self, tiny_dataset, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        save_dataset(tiny_dataset, target)
        assert (target / "manifest.json").exists()


class TestStoreBackedModelPersistence:
    """save_model/load_model for fits over a sharded store."""

    @pytest.fixture(scope="class")
    def store(self, tiny_dataset, tmp_path_factory):
        from repro.store import write_store

        path = tmp_path_factory.mktemp("model-store") / "store"
        return write_store(tiny_dataset, path, shard_size=2)

    @pytest.fixture(scope="class")
    def store_fitted(self, store):
        config = FlareConfig(
            analyzer=AnalyzerConfig(n_clusters=2, kmeans_restarts=2, seed=1)
        )
        return Flare(config).fit(store)

    def test_model_references_store_not_rows(
        self, store_fitted, store, tmp_path
    ):
        path = tmp_path / "model.json"
        save_model(store_fitted, path)
        payload = json.loads(path.read_text())
        assert "dataset" not in payload
        assert payload["source"] == {
            "kind": "store",
            "path": str(store.path.resolve()),
        }
        population = payload["state"]["population"]
        assert population["content_digest"] == store.digest()
        # Only the member scenarios evaluation replays are embedded.
        embedded = payload["state"]["members"]["scenarios"]
        assert len(embedded) <= len(store)

    def test_reload_reproduces_estimates(self, store_fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(store_fitted, path)
        reloaded = load_model(path)
        assert reloaded.evaluate(FEATURE_1_CACHE).reduction_pct == (
            store_fitted.evaluate(FEATURE_1_CACHE).reduction_pct
        )

    def test_reload_detects_changed_store(
        self, store_fitted, tiny_dataset, tmp_path
    ):
        from repro.store import write_store

        from repro.cluster import ScenarioDataset

        path = tmp_path / "model.json"
        save_model(store_fitted, path)
        payload = json.loads(path.read_text())
        # Re-point the model at a store with different content.
        truncated = ScenarioDataset(
            shape=tiny_dataset.shape,
            scenarios=tiny_dataset.scenarios[:3],
        )
        other = write_store(truncated, tmp_path / "other", shard_size=2)
        payload["source"]["path"] = str(other.path)
        path.write_text(json.dumps(payload))
        # The state never needed the population: loading still works,
        # and only the operations that open the population notice.
        loaded = load_model(path)
        assert loaded.evaluate(FEATURE_1_CACHE).reduction_pct == (
            store_fitted.evaluate(FEATURE_1_CACHE).reduction_pct
        )
        with pytest.raises(ValueError, match="digest"):
            loaded.dataset
        with pytest.raises(ValueError, match="digest"):
            verify_model(path)

    def test_loaded_model_survives_store_deletion(
        self, tiny_dataset, tmp_path
    ):
        from repro.store import write_store

        store = write_store(tiny_dataset, tmp_path / "store", shard_size=2)
        config = FlareConfig(
            analyzer=AnalyzerConfig(n_clusters=2, kmeans_restarts=2, seed=1)
        )
        fitted = Flare(config).fit(store)
        path = tmp_path / "model.json"
        save_model(fitted, path)
        shutil.rmtree(store.path)

        loaded = load_model(path)
        assert loaded.evaluate(FEATURE_1_CACHE).reduction_pct == (
            fitted.evaluate(FEATURE_1_CACHE).reduction_pct
        )
        assert loaded.evaluate_job(FEATURE_1_CACHE, "WSC").reduction_pct == (
            fitted.evaluate_job(FEATURE_1_CACHE, "WSC").reduction_pct
        )
        assert loaded.health(tiny_dataset).to_dict() == (
            fitted.health(tiny_dataset).to_dict()
        )
        with pytest.raises(ValueError, match=str(store.path)):
            loaded.dataset
        with pytest.raises(ValueError, match="cannot be opened"):
            verify_model(path)


class TestConfigRoundTrip:
    def test_default_config(self):
        config = FlareConfig()
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_custom_config(self):
        config = FlareConfig(
            refinement_threshold=0.9,
            noise_sigma=0.05,
            profiler_seed=99,
            analyzer=AnalyzerConfig(
                n_clusters=7,
                n_components=4,
                cluster_counts=(2, 3),
                kmeans_restarts=3,
                seed=5,
            ),
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config


class TestModelRoundTrip:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_dataset):
        config = FlareConfig(
            analyzer=AnalyzerConfig(n_clusters=2, kmeans_restarts=2, seed=1)
        )
        return Flare(config).fit(tiny_dataset)

    def test_save_load_reproduces_estimates(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        reloaded = load_model(path)
        assert reloaded.evaluate(FEATURE_1_CACHE).reduction_pct == (
            fitted.evaluate(FEATURE_1_CACHE).reduction_pct
        )

    def test_digest_stable(self, fitted):
        assert fitted_digest(fitted) == fitted_digest(fitted)

    def test_digest_detects_different_fit(self, fitted, tiny_dataset):
        other = Flare(
            FlareConfig(
                analyzer=AnalyzerConfig(
                    n_clusters=3, kmeans_restarts=2, seed=1
                )
            )
        ).fit(tiny_dataset)
        assert fitted_digest(other) != fitted_digest(fitted)

    def test_verification_failure_raises(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        payload = json.loads(path.read_text())
        payload["state"]["fitted_digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        # The state no longer matches its checksum.
        with pytest.raises(ValueError, match="integrity"):
            load_model(path)
        # verify=False skips the check.
        assert load_model(path, verify=False) is not None
        # A consistently re-hashed forgery passes the checksum but not
        # the re-fit.
        payload["state_sha256"] = state_sha256(payload["state"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="does not reproduce"):
            verify_model(path)

    def test_version_check(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 42
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_model(path)
