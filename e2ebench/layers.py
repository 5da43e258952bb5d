"""Layer-attributed tracing from outside the program.

The traced run wraps the public entry points of the repro modules listed
in :data:`LAYERS` and charges every wrapped call's *self* time (its wall
time minus the wrapped calls nested inside it) to its layer.  Each
benchmark step is a root frame, so a step's own self time is the part of
it no wrapper covers (``trace.unattributed_s.<step>``).

Nothing here changes what a wrapped call computes: wrappers forward
arguments and results untouched (the batch factory handed to
``StreamingKMeans.fit`` is forwarded through a counting shim), and
``e2ebench/tests`` proves a traced run's answers bit-identical to an
untraced run's.  Every target is resolved by name when the tracer is
installed, so a renamed entry point fails loudly instead of reporting a
zero layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import types
from collections import defaultdict

#: layer -> (module, qualified attribute) entry points charged to it.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cluster.simulate": (("repro.cluster.simulation", "run_simulation"),),
    "store.write": (
        ("repro.store.store", "StoreWriter.append"),
        ("repro.store.store", "StoreWriter.extend"),
        ("repro.store.store", "StoreWriter.finalize"),
        ("repro.store.live", "LiveStore.append"),
        ("repro.store.live", "LiveStore.extend"),
        ("repro.store.live", "LiveStore.commit"),
        ("repro.store.live", "LiveStore.close"),
    ),
    "store.decode": (
        ("repro.store.store", "ShardedScenarioStore.iter_batches"),
        ("repro.store.store", "ShardedScenarioStore.__getitem__"),
        ("repro.store.store", "ShardedScenarioStore.load_shard_arrays"),
        ("repro.store.live", "StoreSlice.iter_batches"),
        ("repro.store.live", "StoreSlice.__getitem__"),
        ("repro.store.live", "TailingSource.iter_batches"),
        ("repro.store.live", "TailingSource.__getitem__"),
    ),
    "perfmodel.solve": (
        ("repro.perfmodel.batch", "solve_colocation_batch"),
        ("repro.perfmodel.batch", "solve_colocation_many"),
    ),
    "telemetry.profile": (
        ("repro.telemetry.profiler", "Profiler.profile"),
        ("repro.telemetry.profiler", "Profiler.iter_profile"),
    ),
    "telemetry.noise": (("repro.telemetry.noise", "MeasurementNoise.apply"),),
    "core.refine": (
        ("repro.core.refinement", "refine"),
        ("repro.stats.correlation", "prune_from_correlation"),
    ),
    "stats.pca": (
        ("repro.stats.pca", "PCA.fit"),
        ("repro.stats.pca", "IncrementalPCA.partial_fit"),
        ("repro.stats.pca", "IncrementalPCA.finalize"),
    ),
    "stats.sweep": (("repro.stats.silhouette", "sweep_cluster_counts"),),
    "stats.kmeans": (
        ("repro.stats.kmeans", "KMeans.fit"),
        ("repro.stats.kmeans", "StreamingKMeans.fit"),
    ),
    "core.representatives": (
        ("repro.core.representatives", "extract_representatives"),
        ("repro.core.representatives", "representatives_from_assignments"),
    ),
    "io.save": (("repro.io.serialization", "save_model"),),
    "io.load": (("repro.io.serialization", "load_model"),),
    "core.replay": (
        ("repro.core.replayer", "Replayer.replay_many"),
        ("repro.core.replayer", "Replayer.replay_batch"),
    ),
    "core.estimate": (
        ("repro.core.estimation", "estimate_all_job_impact"),
        ("repro.core.estimation", "estimate_per_job_impact"),
    ),
    "obs.monitor": (("repro.obs.monitor", "DriftMonitor.observe"),),
    "core.refit": (
        ("repro.core.refit", "refit"),
        ("repro.core.refit", "replay_refit"),
    ),
}

#: Entry points whose arguments feed a counter, with the parameter read.
COUNTED_PARAMETERS: dict[tuple[str, str], str] = {
    ("repro.perfmodel.batch", "solve_colocation_batch"): "batch",
    ("repro.perfmodel.batch", "solve_colocation_many"): "scenarios",
    ("repro.core.replayer", "Replayer.replay_many"): "scenarios",
    ("repro.core.replayer", "Replayer.replay_batch"): "scenarios",
    ("repro.stats.kmeans", "StreamingKMeans.fit"): "batches",
}

#: Metrics-registry counters read around every step (registry name ->
#: per-layer metric).
REGISTRY_COUNTERS = {
    "store_rows_read_total": "store.rows_read",
    "scenarios_profiled": "telemetry.rows_profiled",
}

STEPS = ("generate", "fit", "save", "load", "evaluate", "monitor", "refit")


def resolve(module_name: str, qualname: str):
    """``(owner, attribute name, function)`` of one entry point.

    Raises ``AttributeError``/``ImportError`` when the target is gone
    and ``TypeError`` when it is no longer a plain function, so a
    refactor that renames or reshapes an entry point breaks the trace
    instead of silently zeroing a layer.
    """
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    function = inspect.getattr_static(owner, name)
    if not isinstance(function, types.FunctionType):
        raise TypeError(f"{module_name}.{qualname} is not a plain function")
    return owner, name, function


class LayerTracer:
    """Self-time and count accounting over the wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.replayed: set = set()
        # Open frames, innermost last: [layer, seconds of wrapped children].
        self._stack: list[list] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    # -- frames ---------------------------------------------------------
    def _enter(self, layer: str) -> float:
        self._stack.append([layer, 0.0])
        return time.perf_counter()

    def _exit(self, start: float) -> None:
        elapsed = time.perf_counter() - start
        layer, children = self._stack.pop()
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][1] += elapsed

    def _inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    @contextlib.contextmanager
    def step(self, name: str):
        """Record one benchmark step; calls outside steps are not charged."""
        from repro.obs.metrics import get_metrics

        if name not in STEPS:
            raise ValueError(f"unknown step {name!r}")
        registry = get_metrics()
        before = {key: registry.counter(key) for key in REGISTRY_COUNTERS}
        start = self._enter(f"step:{name}")
        try:
            yield
        finally:
            self._exit(start)
            for key, metric in REGISTRY_COUNTERS.items():
                self.counts[metric] += registry.counter(key) - before[key]

    # -- wrappers -------------------------------------------------------
    def _timed_iter(self, layer: str, iterator):
        """Charge each ``next()`` of a returned generator to *layer*."""
        try:
            while True:
                timed = self.recording
                start = self._enter(layer) if timed else 0.0
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if timed:
                        self._exit(start)
                yield item
        finally:
            iterator.close()

    def _count(self, target: tuple[str, str], arguments: dict) -> dict:
        """Update the counters fed by *target*'s arguments; returns the
        arguments to forward (only the k-means batch factory is
        replaced, by a shim counting full passes over the source)."""
        name = target[1]
        values = arguments[COUNTED_PARAMETERS[target]]
        if name.startswith("solve_colocation"):
            # Rows handed to the solver, counted once per outermost call.
            if not self._inside("perfmodel.solve"):
                self.counts["perfmodel.scenarios_solved"] += len(values)
        elif name.startswith("Replayer."):
            feature = arguments["feature"].name
            for scenario in values:
                self.replayed.add((scenario.key, feature))
        else:

            def counted_pass(*args, **kwargs):
                self.counts["stats.kmeans_passes"] += 1
                return values(*args, **kwargs)

            arguments = dict(arguments, batches=counted_pass)
        return arguments

    def wrap(self, layer: str, target: tuple[str, str], function):
        signature = inspect.signature(function)
        is_lookup = target[1] == "ShardedScenarioStore.__getitem__"
        counted = target in COUNTED_PARAMETERS

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return function(*args, **kwargs)
            if is_lookup:
                self.counts["store.lookups"] += 1
            elif counted:
                bound = signature.bind(*args, **kwargs)
                bound.arguments.update(self._count(target, bound.arguments))
                args, kwargs = bound.args, bound.kwargs
            start = self._enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(start)
            if isinstance(result, types.GeneratorType):
                return self._timed_iter(layer, result)
            return result

        return wrapper

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        for name in (
            "store.lookups",
            "store.rows_read",
            "perfmodel.scenarios_solved",
            "telemetry.rows_profiled",
            "stats.kmeans_passes",
        ):
            out[name] = self.counts.get(name, 0.0)
        out["core.replays_distinct"] = float(len(self.replayed))
        for step in STEPS:
            out[f"trace.unattributed_s.{step}"] = self.self_s.get(
                f"step:{step}", 0.0
            )
        return out


@contextlib.contextmanager
def installed(tracer: LayerTracer):
    """Wrap every entry point in :data:`LAYERS` for the ``with`` body.

    Module-level functions are replaced in every loaded ``repro`` module
    that holds them (``from x import f`` copies the reference), methods
    on their class.  Everything is restored on exit.
    """
    patches: list[tuple[object, str, object]] = []
    try:
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, name, function = resolve(*target)
                wrapper = tracer.wrap(layer, target, function)
                if isinstance(owner, types.ModuleType):
                    holders = [
                        module
                        for module_name, module in list(sys.modules.items())
                        if module_name.split(".")[0] == "repro"
                    ]
                    for module in holders:
                        for attr, value in list(vars(module).items()):
                            if value is function:
                                patches.append((module, attr, value))
                                setattr(module, attr, wrapper)
                else:
                    patches.append((owner, name, function))
                    setattr(owner, name, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)
