"""JSON serialisation for datasets, configurations and fitted models.

Lets teams share what the paper's workflow produces: the scenario dataset
collected from a datacenter (step 1's output, the expensive part), the
pipeline configuration, and the fitted model.

A fitted model is persisted as its **fitted state** — scaler, PCA basis,
whitening statistics, centroids, group weights and rankings, the fit
baseline, interpretations, lineage and a pre-resolved member table with
the few member scenarios evaluation replays — so :func:`load_model` is a
read and evaluating a loaded model costs its *k* replays, whatever the
population size.  A sha256 over the canonical state guards it against
tampering and corruption.

The population itself is only *referenced* (an in-memory fit embeds its
dataset, a store-backed fit records the store path), with its content
digest in the state: it is opened on demand, by ``Flare.dataset`` and by
:func:`verify_model`.  Bit-exact reproducibility is that explicit check:
:func:`verify_model` re-fits the model from its population (replaying
the refit plan of lineage models) and compares the result with the
saved state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any

import numpy as np

from ..cluster.machine import MachineShape
from ..cluster.scenario import Scenario, ScenarioDataset
from ..core.analyzer import AnalyzerConfig
from ..core.pipeline import Flare, FlareConfig
from ..perfmodel.contention import RunningInstance
from ..perfmodel.machine import MachinePerf
from ..perfmodel.mrc import MissRatioCurve
from ..perfmodel.signatures import JobSignature, Priority
from ..runtime.config import RuntimeConfig

__all__ = [
    "dataset_to_dict",
    "dataset_from_dict",
    "save_dataset",
    "load_dataset",
    "config_to_dict",
    "config_from_dict",
    "save_model",
    "load_model",
    "verify_model",
    "fitted_digest",
    "state_sha256",
]

#: Version of the model artefact: 2 persists the fitted state (version 1
#: persisted config + dataset and re-fitted on load; still readable).
_FORMAT_VERSION = 2
#: Version of the dataset payload, unchanged since models moved to v2.
_DATASET_FORMAT_VERSION = 1
#: Config keys older artefacts may hold for settings that no longer
#: exist (``solver`` chose between bit-identical solver paths).
_RETIRED_CONFIG_KEYS = ("solver",)


# ----------------------------------------------------------------------
# Leaf codecs
def _signature_to_dict(sig: JobSignature) -> dict[str, Any]:
    return {
        "name": sig.name,
        "description": sig.description,
        "priority": sig.priority.value,
        "vcpus": sig.vcpus,
        "dram_gb": sig.dram_gb,
        "base_cpi": sig.base_cpi,
        "frontend_cpi": sig.frontend_cpi,
        "branch_mpki": sig.branch_mpki,
        "l1i_apki": sig.l1i_apki,
        "l1d_apki": sig.l1d_apki,
        "l2_apki": sig.l2_apki,
        "llc_apki": sig.llc_apki,
        "mrc": {
            "half_capacity_mb": sig.mrc.half_capacity_mb,
            "shape": sig.mrc.shape,
            "floor": sig.mrc.floor,
        },
        "mem_blocking_factor": sig.mem_blocking_factor,
        "write_fraction": sig.write_fraction,
        "active_fraction": sig.active_fraction,
        "network_bytes_per_instr": sig.network_bytes_per_instr,
        "disk_bytes_per_instr": sig.disk_bytes_per_instr,
        "spin_fraction": sig.spin_fraction,
    }


def _signature_from_dict(data: dict[str, Any]) -> JobSignature:
    mrc = data["mrc"]
    return JobSignature(
        name=data["name"],
        description=data["description"],
        priority=Priority(data["priority"]),
        vcpus=data["vcpus"],
        dram_gb=data["dram_gb"],
        base_cpi=data["base_cpi"],
        frontend_cpi=data["frontend_cpi"],
        branch_mpki=data["branch_mpki"],
        l1i_apki=data["l1i_apki"],
        l1d_apki=data["l1d_apki"],
        l2_apki=data["l2_apki"],
        llc_apki=data["llc_apki"],
        mrc=MissRatioCurve(
            half_capacity_mb=mrc["half_capacity_mb"],
            shape=mrc["shape"],
            floor=mrc["floor"],
        ),
        mem_blocking_factor=data["mem_blocking_factor"],
        write_fraction=data["write_fraction"],
        active_fraction=data["active_fraction"],
        network_bytes_per_instr=data["network_bytes_per_instr"],
        disk_bytes_per_instr=data["disk_bytes_per_instr"],
        spin_fraction=data["spin_fraction"],
    )


def _perf_to_dict(perf: MachinePerf) -> dict[str, Any]:
    return {
        "physical_cores": perf.physical_cores,
        "governor": perf.governor,
        "smt_enabled": perf.smt_enabled,
        "smt_speedup": perf.smt_speedup,
        "min_freq_ghz": perf.min_freq_ghz,
        "max_freq_ghz": perf.max_freq_ghz,
        "llc_mb": perf.llc_mb,
        "mem_bw_gbps": perf.mem_bw_gbps,
        "mem_latency_ns": perf.mem_latency_ns,
        "l2_hit_cycles": perf.l2_hit_cycles,
        "llc_hit_cycles": perf.llc_hit_cycles,
        "network_gbps": perf.network_gbps,
        "disk_mbps": perf.disk_mbps,
    }


def _shape_to_dict(shape: MachineShape) -> dict[str, Any]:
    return {
        "name": shape.name,
        "vcpus": shape.vcpus,
        "dram_gb": shape.dram_gb,
        "perf": _perf_to_dict(shape.perf),
    }


def _shape_from_dict(data: dict[str, Any]) -> MachineShape:
    return MachineShape(
        name=data["name"],
        vcpus=data["vcpus"],
        dram_gb=data["dram_gb"],
        perf=MachinePerf(**data["perf"]),
    )


# ----------------------------------------------------------------------
# Dataset
def dataset_to_dict(dataset: ScenarioDataset) -> dict[str, Any]:
    """Serialise a scenario dataset (signatures included, so custom jobs
    survive the round trip)."""
    signatures: dict[str, dict[str, Any]] = {}
    for scenario in dataset.scenarios:
        for instance in scenario.instances:
            sig = instance.signature
            if sig.name not in signatures:
                signatures[sig.name] = _signature_to_dict(sig)
    return {
        "format_version": _DATASET_FORMAT_VERSION,
        "shape": _shape_to_dict(dataset.shape),
        "signatures": signatures,
        "scenarios": [_scenario_to_dict(s) for s in dataset.scenarios],
    }


def _scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "scenario_id": scenario.scenario_id,
        "instances": [
            {"job": instance.signature.name, "load": instance.load}
            for instance in scenario.instances
        ],
        "n_occurrences": scenario.n_occurrences,
        "total_duration_s": scenario.total_duration_s,
    }


def _scenario_from_dict(
    raw: dict[str, Any], signatures: dict[str, JobSignature]
) -> Scenario:
    instances = tuple(
        RunningInstance(signature=signatures[item["job"]], load=item["load"])
        for item in raw["instances"]
    )
    counts: dict[str, int] = {}
    for item in raw["instances"]:
        counts[item["job"]] = counts.get(item["job"], 0) + 1
    return Scenario(
        scenario_id=raw["scenario_id"],
        key=tuple(sorted(counts.items())),
        instances=instances,
        n_occurrences=raw["n_occurrences"],
        total_duration_s=raw["total_duration_s"],
    )


def dataset_from_dict(data: dict[str, Any]) -> ScenarioDataset:
    """Rebuild a scenario dataset serialised by :func:`dataset_to_dict`."""
    version = data.get("format_version")
    if version != _DATASET_FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {version!r} "
            f"(expected {_DATASET_FORMAT_VERSION})"
        )
    shape = _shape_from_dict(data["shape"])
    signatures = {
        name: _signature_from_dict(raw)
        for name, raw in data["signatures"].items()
    }
    return ScenarioDataset(
        shape=shape,
        scenarios=tuple(
            _scenario_from_dict(raw, signatures) for raw in data["scenarios"]
        ),
    )


def save_dataset(source, path, *, shard_size: int | None = None):
    """Write a scenario source to *path*.

    Two on-disk representations share this entry point:

    * **Legacy JSON** (the default): one self-contained file.  Any
      :class:`~repro.cluster.ScenarioSource` is accepted; a non-resident
      source is materialised first.
    * **Sharded store**: chosen when *shard_size* is given or *path* is
      an existing directory.  Streams the source into a
      :class:`~repro.store.ShardedScenarioStore` at *path* (replacing
      any store already there, as the JSON path replaces its file) and
      returns it.

    Both representations carry the same logical content digest, so
    ``load_dataset(path).digest()`` is identical either way.
    """
    path = pathlib.Path(path)
    if shard_size is not None or path.is_dir():
        from ..store import DEFAULT_SHARD_SIZE, write_store

        return write_store(
            source,
            path,
            shard_size=shard_size or DEFAULT_SHARD_SIZE,
            overwrite=True,
        )
    from ..cluster.source import ensure_dataset

    path.write_text(json.dumps(dataset_to_dict(ensure_dataset(source))))
    return None


def load_dataset(path):
    """Read a dataset previously written by :func:`save_dataset`.

    Auto-detects the representation: a directory is opened as a sharded
    scenario store (returning the memory-mapped
    :class:`~repro.store.ShardedScenarioStore`), anything else is
    parsed as the legacy JSON file (returning an in-memory
    :class:`ScenarioDataset`).  Both satisfy
    :class:`~repro.cluster.ScenarioSource`, so downstream code needs no
    branch.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        from ..store import open_store

        return open_store(path)
    return dataset_from_dict(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Configs
def config_to_dict(config: FlareConfig) -> dict[str, Any]:
    """Serialise a pipeline configuration."""
    analyzer = config.analyzer
    return {
        "refinement_threshold": config.refinement_threshold,
        "noise_sigma": config.noise_sigma,
        "profiler_seed": config.profiler_seed,
        "interpretation_top_n": config.interpretation_top_n,
        "temporal_samples": config.temporal_samples,
        "temporal_jitter": config.temporal_jitter,
        "per_job_metrics": list(config.per_job_metrics),
        "memo": config.memo,
        "runtime": (
            None if config.runtime is None else config.runtime.to_dict()
        ),
        "analyzer": {
            "variance_target": analyzer.variance_target,
            "n_components": analyzer.n_components,
            "cluster_counts": list(analyzer.cluster_counts),
            "n_clusters": analyzer.n_clusters,
            "kmeans_restarts": analyzer.kmeans_restarts,
            "kmeans_max_iter": analyzer.kmeans_max_iter,
            "weight_samples": analyzer.weight_samples,
            "seed": analyzer.seed,
        },
    }


def config_from_dict(data: dict[str, Any]) -> FlareConfig:
    """Rebuild a pipeline configuration.

    Keys of retired settings (:data:`_RETIRED_CONFIG_KEYS`) are ignored.
    """
    raw = data["analyzer"]
    analyzer = AnalyzerConfig(
        variance_target=raw["variance_target"],
        n_components=raw["n_components"],
        cluster_counts=tuple(raw["cluster_counts"]),
        n_clusters=raw["n_clusters"],
        kmeans_restarts=raw["kmeans_restarts"],
        kmeans_max_iter=raw["kmeans_max_iter"],
        weight_samples=raw["weight_samples"],
        seed=raw["seed"],
    )
    return FlareConfig(
        refinement_threshold=data["refinement_threshold"],
        analyzer=analyzer,
        noise_sigma=data["noise_sigma"],
        profiler_seed=data["profiler_seed"],
        interpretation_top_n=data["interpretation_top_n"],
        temporal_samples=data.get("temporal_samples", 0),
        temporal_jitter=data.get("temporal_jitter", 0.15),
        per_job_metrics=tuple(data.get("per_job_metrics", ())),
        memo=data.get("memo", "off"),
        runtime=(
            None
            if data.get("runtime") is None
            else RuntimeConfig.from_dict(data["runtime"])
        ),
    )


# ----------------------------------------------------------------------
# Fitted models
def fitted_digest(flare: Flare) -> str:
    """Stable digest of a fitted model's clustering state.

    Covers labels, cluster weights and representative choices — exactly
    what a deterministic re-fit must reproduce.
    """
    analysis = flare.analysis
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(analysis.labels).tobytes())
    hasher.update(
        np.round(analysis.cluster_weights, 12).astype(np.float64).tobytes()
    )
    reps = [g.representative_index for g in flare.representatives.groups]
    hasher.update(np.asarray(reps, dtype=np.int64).tobytes())
    return hasher.hexdigest()


def state_sha256(state: dict[str, Any]) -> str:
    """sha256 over the canonical JSON encoding of a model state.

    Canonical means sorted keys and no whitespace; floats are written
    by ``repr``, which round-trips float64 exactly, so re-encoding a
    parsed state reproduces the bytes that were hashed at save time.
    """
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _floats(array) -> list:
    return np.asarray(array, dtype=np.float64).tolist()


def _spec_to_dict(spec) -> dict[str, Any]:
    level = None if spec.level is None else spec.level.value
    return dict(dataclasses.asdict(spec), level=level)


def _spec_from_dict(data: dict[str, Any]):
    from ..telemetry.metrics import MetricLevel, MetricSpec

    level = None if data["level"] is None else MetricLevel(data["level"])
    return MetricSpec(**dict(data, level=level))


def _interpretations_to_list(interpretations) -> list[dict[str, Any]]:
    return [
        {
            "index": int(interp.index),
            "explained_variance_ratio": float(
                interp.explained_variance_ratio
            ),
            "label": interp.label,
            "top_loadings": [
                {
                    "spec": _spec_to_dict(entry.spec),
                    "loading": float(entry.loading),
                }
                for entry in interp.top_loadings
            ],
        }
        for interp in interpretations
    ]


def _interpretations_from_list(raw: list[dict[str, Any]]) -> tuple:
    from ..core.interpretation import ComponentInterpretation, LoadingEntry

    return tuple(
        ComponentInterpretation(
            index=item["index"],
            explained_variance_ratio=item["explained_variance_ratio"],
            top_loadings=tuple(
                LoadingEntry(
                    spec=_spec_from_dict(entry["spec"]),
                    loading=entry["loading"],
                )
                for entry in item["top_loadings"]
            ),
            label=item["label"],
        )
        for item in raw
    )


def _reweighting_to_list(steps) -> list[dict[str, Any]]:
    return [
        {"kind": "durations", "durations": _floats(value)}
        if kind == "durations"
        else {"kind": "classification", "dataset": dataset_to_dict(value)}
        for kind, value in steps
    ]


def _reweighting_from_list(raw: list[dict[str, Any]]) -> tuple:
    return tuple(
        ("durations", np.asarray(step["durations"], dtype=np.float64))
        if step["kind"] == "durations"
        else ("classification", dataset_from_dict(step["dataset"]))
        for step in raw
    )


def _with_durations(source, durations: np.ndarray) -> ScenarioDataset:
    """*source* materialised with its observation times replaced."""
    from ..cluster.source import ensure_dataset

    dataset = ensure_dataset(source)
    return ScenarioDataset(
        shape=dataset.shape,
        scenarios=tuple(
            dataclasses.replace(scenario, total_duration_s=float(duration))
            for scenario, duration in zip(dataset.scenarios, durations)
        ),
    )


class _SavedPopulation:
    """The scenario population a loaded model was fitted on.

    Opened only on demand — ``Flare.dataset``, :func:`verify_model` —
    and checked against the content digest the state recorded, so a
    model whose store moved, changed or was deleted still loads and
    evaluates, and fails with a clear error only when something needs
    the population itself.
    """

    def __init__(self, artefact, population, source, dataset, reweighting):
        self.artefact = str(artefact)
        self.population = population
        self.source = source
        self.dataset = dataset
        self.reweighting = reweighting

    def open_fit_source(self):
        """The population as it was fitted (no reweighting applied)."""
        expected = self.population["content_digest"]
        if self.source["kind"] == "embedded":
            dataset = dataset_from_dict(self.dataset)
            if dataset.digest() != expected:
                raise ValueError(
                    f"the dataset embedded in {self.artefact} has changed "
                    "since the model was saved "
                    f"(stored digest {expected[:12]}…)"
                )
            return dataset
        from ..store import StoreError, open_store

        store_path = self.source["path"]
        try:
            store = open_store(store_path)
        except StoreError as error:
            raise ValueError(
                f"model {self.artefact} was fitted on the scenario store "
                f"at {store_path}, which cannot be opened ({error}); the "
                "loaded model still evaluates, but this operation needs "
                "the population — restore the store or re-point the "
                "artefact's source path"
            ) from error
        if store.digest() != expected:
            raise ValueError(
                f"scenario store at {store_path} has changed since the "
                f"model was saved (stored digest {expected[:12]}…, "
                f"found {store.digest()[:12]}…)"
            )
        return store

    def open(self):
        """The population the model represents (reweighting applied)."""
        source = self.open_fit_source()
        for kind, value in self.reweighting:
            if kind == "durations":
                source = _with_durations(source, value)
        return source


def _population_sections(flare: Flare):
    """``(state population record, file source section, embedded
    dataset or None)`` of a model's fit population."""
    source = flare._source
    if source is None:
        saved = flare._population
        if saved is None:
            raise ValueError("model has no fit source to reference")
        return saved.population, saved.source, saved.dataset
    population = {"content_digest": source.digest(), "n_scenarios": len(source)}
    if isinstance(source, ScenarioDataset):
        return population, {"kind": "embedded"}, dataset_to_dict(source)
    store_path = getattr(source, "path", None)
    if store_path is None:
        raise ValueError(
            "cannot persist a model fitted on a non-resident source "
            "without an on-disk store; write the source with "
            "save_dataset(source, dir, shard_size=...) and refit"
        )
    return (
        population,
        {"kind": "store", "path": str(pathlib.Path(store_path).resolve())},
        None,
    )


def _model_state(flare: Flare, population: dict[str, Any]) -> dict[str, Any]:
    """The fitted state of *flare* as a JSON-native dict."""
    analysis = flare.analysis
    representatives = flare.representatives
    table = representatives.member_table()
    groups = representatives.groups
    scaler = analysis.scaler
    pca = analysis.pca
    n_components = int(analysis.n_components)
    report = flare.prune_report
    plan = flare._refit_plan
    catalogue = flare.replayer.catalogue or {}
    baseline = representatives.baseline
    return {
        "config": config_to_dict(flare.config),
        "shape": _shape_to_dict(flare.shape),
        "signatures": {
            name: _signature_to_dict(catalogue[name])
            for name in sorted(catalogue)
        },
        "population": population,
        "prune": {
            "kept": [int(i) for i in report.kept],
            "dropped": sorted(
                [int(a), int(b)] for a, b in report.dropped.items()
            ),
            "threshold": float(report.threshold),
        },
        "scaler": {
            "mean": _floats(scaler.mean_),
            "scale": _floats(scaler.scale_),
            "n_samples": int(scaler.n_samples_),
        },
        "pca": {
            "components": _floats(pca.components[:n_components]),
            "explained_variance": _floats(pca.explained_variance),
            "explained_variance_ratio": _floats(pca.explained_variance_ratio),
            "mean": _floats(pca.mean),
            "singular_values": _floats(pca.singular_values),
        },
        "n_components": n_components,
        "score_mean": _floats(analysis.score_mean),
        "score_std": _floats(analysis.score_std),
        "kmeans": {
            "centroids": _floats(analysis.kmeans.centroids),
            "inertia": float(analysis.kmeans.inertia),
            "n_iter": int(analysis.kmeans.n_iter),
            "converged": bool(analysis.kmeans.converged),
        },
        "cluster_weights": _floats(analysis.cluster_weights),
        "groups": [
            [int(g.cluster_id), [int(m) for m in g.ranked_members]]
            for g in groups
        ],
        "baseline": None if baseline is None else baseline.to_dict(),
        "interpretations": _interpretations_to_list(flare.interpretations),
        "members": {
            "hp": [table.hp[g.cluster_id] for g in groups],
            "jobs": {
                name: [per_group[g.cluster_id] for g in groups]
                for name, per_group in table.jobs.items()
            },
            "job_weights": {
                name: [float(per_group[g.cluster_id]) for g in groups]
                for name, per_group in table.job_weights.items()
            },
            "scenarios": [
                [int(index), _scenario_to_dict(scenario)]
                for index, scenario in sorted(table.scenarios.items())
            ],
        },
        "lineage": [entry.to_dict() for entry in flare.lineage],
        "refit_plan": None
        if plan is None
        else {
            "k": int(plan["k"]),
            # JSON round-trips Python floats exactly, so a replay
            # warm-starts from bit-identical centroids.
            "init": None
            if plan.get("init") is None
            else _floats(plan["init"]),
            "block_rows": int(plan["block_rows"]),
            "sample_capacity": int(plan["sample_capacity"]),
        },
        "reweighting": _reweighting_to_list(flare._reweighting),
        "fitted_digest": fitted_digest(flare),
    }


def save_model(flare: Flare, path) -> None:
    """Persist a fitted model's state as one JSON file at *path*.

    The file holds the fitted state (see the module docstring) with its
    :func:`state_sha256`, plus a reference to the fit population: an
    in-memory fit embeds its dataset, a store-backed fit records the
    store's path (the content digest is part of the state).  Member
    lookups are resolved here if evaluation has not resolved them yet;
    for a store that is one pass over its instance tables plus one row
    decode per embedded member.
    """
    population, source, dataset = _population_sections(flare)
    state = _model_state(flare, population)
    payload: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "state_sha256": state_sha256(state),
        "state": state,
        "source": source,
    }
    if dataset is not None:
        payload["dataset"] = dataset
    pathlib.Path(path).write_text(json.dumps(payload))


def _read_payload(path) -> dict[str, Any]:
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("format_version")
    if version not in (1, _FORMAT_VERSION):
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(expected 1 or {_FORMAT_VERSION})"
        )
    return payload


def _check_integrity(payload: dict[str, Any], path) -> None:
    if state_sha256(payload["state"]) != payload.get("state_sha256"):
        raise ValueError(
            f"model artefact {path} failed its integrity check: the "
            "fitted state does not match its sha256 (tampered or "
            "corrupted)"
        )


def load_model(path, *, verify: bool = True) -> Flare:
    """Load a fitted model saved by :func:`save_model`.

    A read: the fitted state is decoded and nothing is re-fitted or
    re-profiled, and the fit population is not opened (``Flare.dataset``
    opens it on demand).  ``evaluate``, ``evaluate_job``, ``health`` of
    another source, ``refit`` over a given source and the reports all
    work from the state alone.

    Parameters
    ----------
    verify:
        Check the state against its stored sha256; raises
        ``ValueError`` when the artefact was tampered with or
        corrupted.  Bit-exact reproducibility of the state from its
        population is the separate, explicit :func:`verify_model`.

    Version-1 artefacts (config + population, no state) load through
    :func:`verify_model`'s re-fit, digest-checked when *verify* is set.
    """
    payload = _read_payload(path)
    if payload["format_version"] == 1:
        return _refit_artefact(payload, path, check=verify)
    if verify:
        _check_integrity(payload, path)
    return _flare_from_state(payload, path)


def verify_model(path) -> Flare:
    """Re-fit a saved model from its population and compare.

    The explicit reproducibility check (``repro model verify``): checks
    the state's sha256, opens the fit population (verifying its content
    digest), re-fits it — replaying the recorded refit plan for lineage
    models — re-applies any reweighting, and requires the result's
    :func:`fitted_digest` and full state to equal the artefact's.
    Raises ``ValueError`` on any mismatch.  Returns the re-fitted model,
    which — unlike :func:`load_model`'s — carries the fit-time matrices
    (``profiled``, ``refined`` and the score matrix for in-memory fits).
    """
    payload = _read_payload(path)
    if payload["format_version"] != 1:
        _check_integrity(payload, path)
    return _refit_artefact(payload, path, check=True)


def _refit_artefact(payload: dict[str, Any], path, *, check: bool) -> Flare:
    """Today's re-fit of an artefact (either format version)."""
    from ..core.refit import ModelLineage

    if payload["format_version"] == 1:
        config = config_from_dict(payload["config"])
        source = _v1_source(payload)
        plan = payload.get("refit_plan")
        lineage = payload.get("lineage", [])
        steps: tuple = ()
        expected = payload["fitted_digest"]
    else:
        state = payload["state"]
        config = config_from_dict(state["config"])
        source = _SavedPopulation(
            path, state["population"], payload["source"],
            payload.get("dataset"), (),
        ).open_fit_source()
        plan = state["refit_plan"]
        lineage = state["lineage"]
        steps = _reweighting_from_list(state["reweighting"])
        expected = state["fitted_digest"]
    if plan is not None:
        import tempfile

        from ..core.refit import replay_refit

        with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
            flare = replay_refit(source, config, plan, spill_dir=tmp)
    else:
        flare = Flare(config).fit(source)
    flare.lineage = tuple(ModelLineage.from_dict(entry) for entry in lineage)
    for kind, value in steps:
        if kind == "durations":
            flare = flare._reweighted(_with_durations(flare.dataset, value))
        else:
            flare = flare.reweight_by_classification(value)
    if not check:
        return flare
    digest = fitted_digest(flare)
    if digest != expected:
        raise ValueError(
            "re-fitted model does not reproduce the saved state "
            f"(stored {expected[:12]}…, got {digest[:12]}…)"
        )
    if payload["format_version"] == 1:
        stored_baseline = payload.get("fit_baseline")
        if stored_baseline is not None:
            from ..core.representatives import FitBaseline

            stored = FitBaseline.from_dict(stored_baseline)
            refit = flare.representatives.baseline
            if refit is None or stored.n_clusters != refit.n_clusters:
                raise ValueError(
                    "re-fitted model's health baseline does not match "
                    "the saved one"
                )
    elif state_sha256(
        _model_state(flare, payload["state"]["population"])
    ) != state_sha256(_current_state(payload["state"])):
        raise ValueError(
            "re-fitted model reproduces the clustering but not the rest "
            "of the saved state (scaler, PCA basis, centroids, baseline, "
            "interpretations or member table differ)"
        )
    return flare


def _current_state(state: dict[str, Any]) -> dict[str, Any]:
    """*state* without retired config keys: what a re-fit writes today.

    The stored bytes stay guarded by their own ``state_sha256``; this
    only lets :func:`verify_model` compare a re-fit against an artefact
    written while a retired setting still existed.
    """
    config = {
        key: value
        for key, value in state["config"].items()
        if key not in _RETIRED_CONFIG_KEYS
    }
    return dict(state, config=config)


def _v1_source(payload: dict[str, Any]):
    if "dataset_store" not in payload:
        return dataset_from_dict(payload["dataset"])
    from ..store import open_store

    reference = payload["dataset_store"]
    source = open_store(reference["path"])
    if source.digest() != reference["content_digest"]:
        raise ValueError(
            f"scenario store at {reference['path']} has changed "
            "since the model was saved "
            f"(stored digest {reference['content_digest'][:12]}…)"
        )
    return source


def _flare_from_state(payload: dict[str, Any], path) -> Flare:
    """Rebuild a fitted :class:`Flare` from a v2 state (no re-fit)."""
    from ..core.analyzer import AnalysisResult
    from ..core.refit import ModelLineage
    from ..core.replayer import Replayer
    from ..core.representatives import (
        ClusterGroup,
        FitBaseline,
        MemberTable,
        RepresentativeSet,
    )
    from ..stats.correlation import PruneReport
    from ..stats.kmeans import KMeansResult
    from ..stats.pca import PCAResult
    from ..stats.preprocessing import StandardScaler

    state = payload["state"]
    config = config_from_dict(state["config"])
    signatures = {
        name: _signature_from_dict(raw)
        for name, raw in state["signatures"].items()
    }
    pca = state["pca"]
    kmeans = state["kmeans"]
    centroids = np.asarray(kmeans["centroids"], dtype=np.float64)
    cluster_weights = np.asarray(state["cluster_weights"], dtype=np.float64)
    # Labels are the groups' membership: every population row belongs to
    # exactly one group's ranking.
    labels = np.empty(state["population"]["n_scenarios"], dtype=np.intp)
    for cluster_id, members in state["groups"]:
        labels[members] = cluster_id
    analysis = AnalysisResult(
        refined=None,
        scaler=StandardScaler.from_moments(
            state["scaler"]["mean"],
            state["scaler"]["scale"],
            state["scaler"]["n_samples"],
        ),
        pca=PCAResult(
            components=np.asarray(pca["components"], dtype=np.float64),
            explained_variance=np.asarray(
                pca["explained_variance"], dtype=np.float64
            ),
            explained_variance_ratio=np.asarray(
                pca["explained_variance_ratio"], dtype=np.float64
            ),
            mean=np.asarray(pca["mean"], dtype=np.float64),
            singular_values=np.asarray(
                pca["singular_values"], dtype=np.float64
            ),
        ),
        n_components=state["n_components"],
        scores=None,
        score_mean=np.asarray(state["score_mean"], dtype=np.float64),
        score_std=np.asarray(state["score_std"], dtype=np.float64),
        sweep=None,
        kmeans=KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=kmeans["inertia"],
            n_iter=kmeans["n_iter"],
            converged=kmeans["converged"],
        ),
        cluster_weights=cluster_weights,
    )
    groups = tuple(
        ClusterGroup(
            cluster_id=cluster_id,
            weight=float(cluster_weights[cluster_id]),
            centroid=centroids[cluster_id].copy(),
            ranked_members=tuple(members),
        )
        for cluster_id, members in state["groups"]
    )
    ids = [group.cluster_id for group in groups]
    lookups = state["members"]
    table = MemberTable(
        hp=dict(zip(ids, lookups["hp"])),
        jobs={
            name: dict(zip(ids, column))
            for name, column in lookups["jobs"].items()
        },
        job_weights={
            name: dict(zip(ids, column))
            for name, column in lookups["job_weights"].items()
        },
        scenarios={
            index: _scenario_from_dict(raw, signatures)
            for index, raw in lookups["scenarios"]
        },
    )
    flare = Flare(config)
    flare._analysis = analysis
    flare._prune_report = PruneReport(
        kept=tuple(state["prune"]["kept"]),
        dropped={a: b for a, b in state["prune"]["dropped"]},
        threshold=state["prune"]["threshold"],
    )
    flare._representatives = RepresentativeSet(
        dataset=None,
        groups=groups,
        baseline=None
        if state["baseline"] is None
        else FitBaseline.from_dict(state["baseline"]),
        members=table,
    )
    flare._interpretations = _interpretations_from_list(
        state["interpretations"]
    )
    flare._replayer = Replayer(
        _shape_from_dict(state["shape"]),
        catalogue=signatures,
        memo=config.memo if config.memo != "off" else None,
    )
    flare.lineage = tuple(
        ModelLineage.from_dict(entry) for entry in state["lineage"]
    )
    plan = state["refit_plan"]
    if plan is not None:
        init = plan["init"]
        flare._refit_plan = dict(
            plan,
            init=None if init is None else np.asarray(init, dtype=np.float64),
        )
    flare._reweighting = _reweighting_from_list(state["reweighting"])
    flare._artefact = str(path)
    flare._population = _SavedPopulation(
        path,
        state["population"],
        payload["source"],
        payload.get("dataset"),
        flare._reweighting,
    )
    return flare
