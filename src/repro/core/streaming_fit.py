"""Out-of-core FLARE fitting over a sharded scenario source.

The in-memory pipeline holds three dense matrices at once: the full
profiled metric matrix, its standardised copy, and the whitened PC
scores.  For a store-backed source (:mod:`repro.store`) the two
metric-wide matrices are never materialised — only the
``n_components``-wide scores are, beside per-row labels and distances.
This module runs the same standardise → prune → PCA → whiten → cluster
sequence as :class:`~repro.core.analyzer.Analyzer` in multiple passes:

1. **Profile & accumulate** — scenarios are profiled shard-by-shard
   (:meth:`Profiler.iter_profile`, optionally fanned out over an
   executor and resumable via the checkpoint journal); each metric
   batch is spilled to an on-disk :class:`~repro.store.MetricStore`
   and folded into :class:`~repro.stats.RunningMoments`.
2. **Prune & standardise** — the streamed correlation matrix drives
   the same pruning as :func:`~repro.stats.prune_from_correlation`;
   the scaler comes from the streamed moments
   (:meth:`StandardScaler.from_moments`).
3. **PCA** — :class:`~repro.stats.IncrementalPCA` over standardised
   shard batches re-read (memory-mapped) from the spill store.
4. **Scores** — a third pass (:func:`score_pass`) projects each shard
   into PC space once, accumulating the whitening statistics and a
   seeded uniform :class:`~repro.stats.ReservoirSampler` of raw scores;
   the scores stay resident and are whitened in place afterwards.  At
   ``n × n_components`` float64 they are ``n_components / n_metrics``
   (about 1/8) of the metric spill.
5. **Cluster** — :class:`~repro.stats.StreamingKMeans` seeded on the
   whitened sample, refined with full-data Lloyd passes over the
   resident scores in the spill's shard blocks; its final labelling
   pass yields per-row assignments and distances, from which
   representatives are ranked.

Equivalence contract: every accumulated statistic matches the
in-memory computation to ~1e-12 relative (the streaming-moments merge
tolerance), and while the dataset fits inside the reservoir sample the
clustering itself collapses to the exact in-memory k-means — so smoke
datasets produce identical cluster assignments through either path,
and results are bit-identical across executors and batch sizes for a
fixed path.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass

import numpy as np

from ..cluster.source import ScenarioSource
from ..obs import span as obs_span
from ..stats.correlation import PruneReport, prune_from_correlation
from ..stats.kmeans import KMeansResult, StreamingKMeans
from ..stats.pca import IncrementalPCA
from ..stats.preprocessing import StandardScaler, whiten_scores
from ..stats.silhouette import knee_point, sweep_cluster_counts
from ..stats.streaming import ReservoirSampler, RunningMoments
from ..telemetry.database import Database
from ..telemetry.metrics import MetricSpec
from .analyzer import AnalysisResult, Analyzer
from .representatives import (
    RepresentativeSet,
    representatives_from_assignments,
)

__all__ = [
    "DEFAULT_SAMPLE_CAPACITY",
    "ScorePass",
    "StreamingFit",
    "score_pass",
    "streaming_fit",
]

#: Rows retained by the clustering reservoir.  Sources at or below this
#: size keep every row and the clustering is exactly the in-memory one;
#: larger sources cluster via the sample-seeded streaming approximation.
DEFAULT_SAMPLE_CAPACITY = 4096


@dataclass(frozen=True)
class StreamingFit:
    """Everything an out-of-core fit produces.

    ``analysis`` mirrors the in-memory :class:`AnalysisResult` with
    ``refined=None`` and ``scores=None`` — the matrices that were never
    materialised; ``report`` and ``specs`` carry the pruning provenance
    those fields would otherwise hold.
    """

    analysis: AnalysisResult
    report: PruneReport
    specs: tuple[MetricSpec, ...]
    representatives: RepresentativeSet
    n_scenarios: int


@dataclass(frozen=True)
class ScorePass:
    """Every row's whitened PC scores, computed in one pass.

    ``scores`` is the resident ``(n_rows, n_components)`` matrix — an
    ``n_components / n_metrics`` fraction of the metric spill it was
    projected from.  ``bounds`` are the row offsets of the blocks the
    pass read; :meth:`batches` yields the scores in exactly those
    blocks, so Lloyd passes see the same arrays, block for block, as
    when each pass re-projected the spill.
    """

    scores: np.ndarray
    bounds: tuple[int, ...]
    mean: np.ndarray
    std: np.ndarray
    #: The whitened clustering reservoir.
    sample: np.ndarray

    def batches(self):
        """Views of :attr:`scores`, one per block of the pass."""
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            yield self.scores[lo:hi]


def score_pass(
    blocks,
    scaler: StandardScaler,
    kept: list[int],
    components: np.ndarray,
    *,
    n_rows: int,
    sample_capacity: int,
    seed,
) -> ScorePass:
    """Project the metric *blocks* into PC space once.

    Folds the whitening statistics and a seeded
    :class:`~repro.stats.ReservoirSampler` of raw scores per block, keeps
    the raw scores, and whitens them in place, block by block, once the
    statistics are known — so the pass holds one score matrix plus one
    block's temporaries, never a second full copy.
    """
    scores = np.empty((n_rows, components.shape[0]), dtype=np.float64)
    bounds = [0]
    moments = RunningMoments()
    sampler = ReservoirSampler(
        sample_capacity, seed=np.random.default_rng(seed)
    )
    for block in blocks:
        projected = scaler.transform(block[:, kept]) @ components.T
        moments.update(projected)
        sampler.update(projected)
        start = bounds[-1]
        bounds.append(start + projected.shape[0])
        scores[start : bounds[-1]] = projected
    if bounds[-1] != n_rows:
        raise ValueError(
            f"metric blocks held {bounds[-1]} rows, expected {n_rows}"
        )
    mean = moments.mean
    std = moments.std(ddof=0)
    for start, stop in zip(bounds, bounds[1:]):
        scores[start:stop] = whiten_scores(scores[start:stop], mean, std)
    return ScorePass(
        scores=scores,
        bounds=tuple(bounds),
        mean=mean,
        std=std,
        sample=whiten_scores(sampler.sample(), mean, std),
    )


def streaming_fit(
    source: ScenarioSource,
    config,
    *,
    database: Database | None = None,
    runtime=None,
    executor=None,
    spill_dir=None,
    sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
) -> StreamingFit:
    """Fit FLARE steps 1–3 over *source* without a resident metric matrix.

    Parameters
    ----------
    config:
        The :class:`~repro.core.pipeline.FlareConfig` to fit under —
        the same knobs drive both fitting paths.
    runtime:
        Optional :class:`~repro.runtime.RuntimeConfig` (or executor /
        spec string) fanning the profiling pass out; the legacy
        ``executor=`` keyword still works with a
        ``DeprecationWarning``.
    spill_dir:
        Directory for the intermediate metric store.  ``None`` (the
        default) uses a temporary directory removed when fitting ends;
        passing a path keeps the spilled metrics for inspection.
    sample_capacity:
        Reservoir size for clustering initialisation; see
        :data:`DEFAULT_SAMPLE_CAPACITY`.
    """
    from .._deprecations import resolve_renamed_kwarg
    from ..store.metrics_store import MetricStoreWriter

    runtime = resolve_renamed_kwarg(
        runtime,
        executor,
        owner="streaming_fit",
        old_name="executor",
        new_name="runtime",
        required=False,
    )
    cfg = config.analyzer
    if cfg.weight_samples and len(source) > sample_capacity:
        raise ValueError(
            "weight_samples=True needs every scenario inside the "
            f"clustering sample, but the source has {len(source)} rows "
            f"and sample_capacity={sample_capacity}; raise the capacity "
            "or fit in memory"
        )

    if spill_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-metrics-") as tmp:
            return _streaming_fit(
                source, config, pathlib.Path(tmp), MetricStoreWriter,
                database=database, runtime=runtime,
                sample_capacity=sample_capacity,
            )
    return _streaming_fit(
        source, config, pathlib.Path(spill_dir), MetricStoreWriter,
        database=database, runtime=runtime,
        sample_capacity=sample_capacity,
    )


def _streaming_fit(
    source: ScenarioSource,
    config,
    spill_path: pathlib.Path,
    writer_cls,
    *,
    database,
    runtime,
    sample_capacity: int,
) -> StreamingFit:
    cfg = config.analyzer
    profiler = config.make_profiler(database=database)
    n_total = len(source)

    # Pass 1: profile shard-by-shard; spill metric rows, fold moments.
    with obs_span("flare.profile", streaming=True, n_scenarios=n_total):
        writer = writer_cls(
            spill_path,
            tuple(spec.name for spec in profiler.specs),
            overwrite=True,
        )
        moments = RunningMoments()
        for batch in profiler.iter_profile(source, runtime=runtime):
            writer.append(batch.matrix)
            moments.update(batch.matrix)
        metric_store = writer.finalize()

    # Prune + scaler from the streamed statistics alone.
    with obs_span("flare.refine", streaming=True):
        report = prune_from_correlation(
            moments.correlation(), threshold=config.refinement_threshold
        )
        kept = list(report.kept)
        specs = tuple(profiler.specs[i] for i in kept)
        scaler = StandardScaler.from_moments(
            moments.mean[kept], moments.std(ddof=0)[kept], moments.n
        )

    with obs_span("flare.analyze", streaming=True):
        # Pass 2: incremental PCA over standardised shard batches.
        ipca = IncrementalPCA()
        for matrix in metric_store.iter_matrices():
            ipca.partial_fit(scaler.transform(matrix[:, kept]))
        pca_result = ipca.finalize()
        n_components = Analyzer(cfg)._select_components(pca_result)
        components = pca_result.components[:n_components]

        # Pass 3: the whitened scores, their statistics and the
        # clustering reservoir, in blocks of the spill's shards.
        scores = score_pass(
            metric_store.iter_matrices(),
            scaler,
            kept,
            components,
            n_rows=metric_store.n_rows,
            sample_capacity=sample_capacity,
            seed=cfg.seed,
        )
        weights = source.weights() if cfg.weight_samples else None

        # Cluster-count sweep runs on the sample: exact while the
        # sample holds every row, the documented approximation beyond.
        sweep = None
        if cfg.n_clusters is not None:
            chosen_k = cfg.n_clusters
        else:
            counts = tuple(
                k
                for k in cfg.cluster_counts
                if k <= scores.sample.shape[0]
            )
            if not counts:
                raise ValueError(
                    "no candidate cluster count fits the clustering "
                    f"sample ({scores.sample.shape[0]} rows); raise "
                    "sample_capacity or set n_clusters explicitly"
                )
            sweep = sweep_cluster_counts(
                scores.sample,
                counts,
                kmeans_factory=Analyzer(cfg)._kmeans_factory,
                sample_weight=weights,
            )
            knee = knee_point(sweep.cluster_counts.astype(float), sweep.sse)
            chosen_k = int(sweep.cluster_counts[knee])

        streaming_kmeans = StreamingKMeans(
            chosen_k,
            n_init=cfg.kmeans_restarts,
            max_iter=cfg.kmeans_max_iter,
            seed=np.random.default_rng(cfg.seed),
        )
        kmeans_result: KMeansResult = streaming_kmeans.fit(
            scores.batches,
            n_total=n_total,
            sample=scores.sample,
            sample_weight=weights,
        )
        cluster_weights = kmeans_result.cluster_weights(
            sample_weight=source.weights()
        )

        analysis = AnalysisResult(
            refined=None,
            scaler=scaler,
            pca=pca_result,
            n_components=n_components,
            scores=None,
            score_mean=scores.mean,
            score_std=scores.std,
            sweep=sweep,
            kmeans=kmeans_result,
            cluster_weights=cluster_weights,
        )

    with obs_span("flare.representatives", streaming=True):
        assert streaming_kmeans.point_sq_distances_ is not None
        representatives = representatives_from_assignments(
            labels=kmeans_result.labels,
            sq_distances=streaming_kmeans.point_sq_distances_,
            centroids=kmeans_result.centroids,
            cluster_weights=cluster_weights,
            dataset=source,
        )

    return StreamingFit(
        analysis=analysis,
        report=report,
        specs=specs,
        representatives=representatives,
        n_scenarios=n_total,
    )
