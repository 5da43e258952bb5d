"""Digest-keyed caching of profiled datasets and fitted FLARE models.

Step 1 (profiling) and steps 2–3 (fitting) are the expensive parts of
the pipeline, and experiment suites re-run them for the same (config,
dataset) pair over and over.  Both are deterministic functions of their
inputs, so they cache safely under a content digest:

* **in-memory** — fitted ``Flare`` objects and ``ProfiledDataset``
  matrices keyed by ``sha256(config JSON, dataset JSON)``;
* **on-disk** — profiled matrices as ``.npy`` files and fitted models
  as :func:`repro.io.serialization.save_model` artefacts, read back
  through :func:`~repro.io.serialization.verify_model`'s deterministic
  re-fit, so a warm cache survives across processes and a corrupted or
  stale entry is detected rather than trusted.

The disk layer is opt-in: pass ``disk_dir`` or set the
:data:`CACHE_DIR_ENV_VAR` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
from collections import OrderedDict

import numpy as np

from ..cluster.scenario import ScenarioDataset
from ..telemetry.database import Database
from ..telemetry.profiler import ProfiledDataset

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "dataset_digest",
    "config_digest",
    "RuntimeCache",
    "CheckpointJournal",
    "default_cache",
]

#: Environment variable enabling the on-disk cache layer.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"


def _sha256_of_json(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def dataset_digest(dataset: ScenarioDataset) -> str:
    """Content digest of a scenario dataset (canonical JSON form)."""
    from ..io.serialization import dataset_to_dict

    return _sha256_of_json(dataset_to_dict(dataset))


def config_digest(config) -> str:
    """Content digest of a :class:`~repro.core.pipeline.FlareConfig`."""
    from ..io.serialization import config_to_dict

    return _sha256_of_json(config_to_dict(config))


class RuntimeCache:
    """Two-level (memory, disk) cache for pipeline artefacts.

    Parameters
    ----------
    memory_slots:
        Entries kept per artefact kind in the in-memory LRU layer.
    disk_dir:
        Directory for the persistent layer; ``None`` disables it.
    """

    def __init__(
        self, *, memory_slots: int = 8, disk_dir=None
    ) -> None:
        if memory_slots < 0:
            raise ValueError("memory_slots must be non-negative")
        self.memory_slots = memory_slots
        self.disk_dir = pathlib.Path(disk_dir) if disk_dir else None
        self._profiled: OrderedDict[str, ProfiledDataset] = OrderedDict()
        self._fitted: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _hit(self) -> None:
        """Count a hit locally and in the observability registry.

        The ``cache_hits_total`` counter goes through :mod:`repro.obs`
        so hits scored inside process-pool workers travel back to the
        parent through the executor's capture channel instead of dying
        with the worker (the instance attributes stay worker-local).
        """
        from ..obs.metrics import inc

        self.hits += 1
        inc("cache_hits_total")

    def _miss(self) -> None:
        from ..obs.metrics import inc

        self.misses += 1
        inc("cache_misses_total")

    # ------------------------------------------------------------------
    def _remember(self, store: OrderedDict, key: str, value) -> None:
        if self.memory_slots == 0:
            return
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.memory_slots:
            store.popitem(last=False)

    def _lookup(self, store: OrderedDict, key: str):
        if key in store:
            store.move_to_end(key)
            return store[key]
        return None

    def _disk_path(self, kind: str, key: str, suffix: str) -> pathlib.Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{kind}-{key[:32]}{suffix}"

    # ------------------------------------------------------------------
    def get_profiled(self, config, dataset: ScenarioDataset) -> ProfiledDataset:
        """Profile *dataset* under *config*'s Profiler, cached by digest.

        The disk layer stores only the metric matrix; the surrounding
        ``ProfiledDataset`` is rebuilt from the live config and dataset,
        so a registry change (different metric count) invalidates the
        entry by shape mismatch instead of silently misaligning columns.
        """
        key = f"{config_digest(config)}-{dataset_digest(dataset)}"
        cached = self._lookup(self._profiled, key)
        if cached is not None:
            self._hit()
            return cached

        from ..cluster.features import BASELINE

        profiler = config.make_profiler()
        if self.disk_dir is not None:
            path = self._disk_path("profiled", key, ".npy")
            if path.exists():
                matrix = np.load(path)
                if matrix.shape == (len(dataset), len(profiler.specs)):
                    profiled = ProfiledDataset(
                        dataset=dataset,
                        machine=BASELINE(dataset.shape.perf),
                        specs=profiler.specs,
                        matrix=matrix,
                    )
                    self._remember(self._profiled, key, profiled)
                    self._hit()
                    return profiled

        self._miss()
        profiled = profiler.profile(dataset)
        self._remember(self._profiled, key, profiled)
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            np.save(self._disk_path("profiled", key, ".npy"), profiled.matrix)
        return profiled

    def get_fitted(
        self, config, dataset: ScenarioDataset, *, database: Database | None = None
    ):
        """Fit ``Flare(config)`` on *dataset*, cached by digest.

        Memory hits return the fitted object directly.  Disk hits go
        through :func:`repro.io.serialization.verify_model`, whose
        deterministic re-fit proves the cached entry still matches what
        fitting would produce today — and restores the fit-time
        matrices (``profiled``, ``refined``) experiments read, which a
        state-only ``load_model`` does not carry.
        """
        from ..core.pipeline import Flare
        from ..io.serialization import save_model, verify_model

        key = f"{config_digest(config)}-{dataset_digest(dataset)}"
        cached = self._lookup(self._fitted, key)
        if cached is not None:
            self._hit()
            return cached

        if self.disk_dir is not None:
            path = self._disk_path("model", key, ".json")
            if path.exists():
                try:
                    flare = verify_model(path)
                except (ValueError, KeyError):
                    path.unlink(missing_ok=True)
                else:
                    self._hit()
                    self._remember(self._fitted, key, flare)
                    return flare

        self._miss()
        flare = Flare(config, database=database).fit(dataset)
        self._remember(self._fitted, key, flare)
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            save_model(flare, self._disk_path("model", key, ".json"))
        return flare

    # ------------------------------------------------------------------
    def journal(self, run_id: str) -> "CheckpointJournal":
        """A :class:`CheckpointJournal` under this cache's disk layer.

        Checkpoints are resume state and must survive the process, so
        they require the disk layer (``disk_dir`` or
        :data:`CACHE_DIR_ENV_VAR`).
        """
        if self.disk_dir is None:
            raise ValueError(
                "checkpointing requires the disk cache layer; pass "
                f"disk_dir or set {CACHE_DIR_ENV_VAR}"
            )
        return CheckpointJournal(self.disk_dir / "checkpoints", run_id)

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are left in place)."""
        self._profiled.clear()
        self._fitted.clear()

    def __repr__(self) -> str:
        return (
            f"RuntimeCache(memory_slots={self.memory_slots}, "
            f"disk_dir={str(self.disk_dir) if self.disk_dir else None!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class CheckpointJournal:
    """Digest-keyed journal of completed executor chunks for resume.

    An executor with a journal attached records every completed chunk's
    results under ``sha256(stage, task digest, chunk index, chunk
    payload)`` — one pickle file per chunk, written atomically.  When a
    killed run restarts with the same journal (CLI ``--resume``), every
    ``map`` call restores its already-journaled chunks instead of
    re-executing them (scored on the ``checkpoint_hits_total`` counter)
    and re-runs only the rest.  Because tasks are pure functions of
    their items, the resumed run's results are bit-identical to an
    uninterrupted one.

    Chunks containing :class:`~repro.runtime.resilience.TaskFailure`
    entries are never journaled — a degraded chunk gets a fresh chance
    on resume rather than its failure becoming sticky.
    """

    def __init__(self, directory, run_id: str = "default") -> None:
        safe = "".join(
            c if c.isalnum() or c in "-_." else "-" for c in run_id
        )
        if not safe:
            raise ValueError("run_id must be non-empty")
        self.run_id = safe
        self.directory = pathlib.Path(directory) / safe

    # ------------------------------------------------------------------
    def chunk_keys(self, stage: str, fn, chunks: list) -> list[str]:
        """Content keys of one ``map`` call's chunks.

        Keys digest the stage label, the task callable and each chunk's
        pickled payload (plus its index), so a changed task or input
        set misses the journal instead of restoring stale results.
        """
        try:
            fn_digest = hashlib.sha256(
                pickle.dumps(fn, protocol=4)
            ).hexdigest()
        except Exception:  # closures etc. — identify by name instead
            fn_digest = f"{getattr(fn, '__module__', '?')}." + getattr(
                fn, "__qualname__", repr(fn)
            )
        keys = []
        for index, chunk in enumerate(chunks):
            digest = hashlib.sha256()
            digest.update(stage.encode())
            digest.update(fn_digest.encode())
            digest.update(str(index).encode())
            try:
                digest.update(pickle.dumps(chunk, protocol=4))
            except Exception:
                digest.update(repr(chunk).encode())
            keys.append(digest.hexdigest())
        return keys

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"chunk-{key[:40]}.pkl"

    def get(self, key: str):
        """Journaled results for *key*, or ``None`` (corrupt ⇒ miss)."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, results: list) -> None:
        """Journal one completed chunk (atomic; unpicklable ⇒ no-op)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(results, handle, protocol=4)
        except Exception:
            tmp.unlink(missing_ok=True)
            return
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("chunk-*.pkl"))

    def clear(self) -> None:
        """Drop every journaled chunk (a completed run's cleanup)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("chunk-*.pkl"):
            path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"CheckpointJournal(directory={str(self.directory)!r}, "
            f"chunks={len(self)})"
        )


_DEFAULT_CACHE: RuntimeCache | None = None


def default_cache() -> RuntimeCache:
    """Process-wide cache; disk layer enabled via :data:`CACHE_DIR_ENV_VAR`."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        import os

        _DEFAULT_CACHE = RuntimeCache(
            disk_dir=os.environ.get(CACHE_DIR_ENV_VAR) or None
        )
    return _DEFAULT_CACHE
