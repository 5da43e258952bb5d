"""Clustering-quality metrics: SSE and silhouette score.

With no ground-truth labels for job co-location scenarios, FLARE selects the
cluster count from unsupervised quality metrics (paper Figure 9): Sum of
Squared Errors (lower is better) and Silhouette Score (higher is better),
picking the point of diminishing returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import span as obs_span
from .distance import pairwise_euclidean
from .validation import as_matrix, check_labels

__all__ = [
    "sum_squared_error",
    "silhouette_samples",
    "silhouette_score",
    "ClusterQualitySweep",
    "sweep_cluster_counts",
    "knee_point",
]


def sum_squared_error(data, centroids, labels) -> float:
    """SSE of *data* against assigned *centroids* (K-means inertia)."""
    matrix = as_matrix(data, name="data")
    centres = as_matrix(centroids, name="centroids")
    lab = check_labels(labels, matrix.shape[0])
    if lab.size and lab.max() >= centres.shape[0]:
        raise ValueError("label refers to a centroid that does not exist")
    diff = matrix - centres[lab]
    return float(np.einsum("ij,ij->", diff, diff))


def silhouette_samples(data, labels) -> np.ndarray:
    """Per-sample silhouette coefficients in ``[-1, 1]``.

    For sample *i* with mean intra-cluster distance ``a`` and smallest mean
    distance to another cluster ``b``: ``s = (b - a) / max(a, b)``.
    Samples in singleton clusters score 0 by convention (Rousseeuw 1987).
    """
    matrix = as_matrix(data, name="data", min_rows=2)
    lab = check_labels(labels, matrix.shape[0])
    if np.unique(lab).size < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    return _silhouette_from_distances(pairwise_euclidean(matrix, matrix), lab)


def _silhouette_from_distances(dist: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Silhouette coefficients from the ``(n, n)`` Euclidean distances
    of at least two validated clusters."""
    unique, own_col, sizes = np.unique(
        lab, return_inverse=True, return_counts=True
    )
    n = lab.shape[0]
    # Mean distance from every sample to every cluster, in one pass.
    mean_to_cluster = np.empty((n, unique.size))
    for j, cluster in enumerate(unique):
        mean_to_cluster[:, j] = dist[:, lab == cluster].mean(axis=1)

    rows = np.arange(n)
    own_size = sizes[own_col]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Exclude self from the intra-cluster mean (singletons score 0
        # below, whatever their quotient here).
        a = mean_to_cluster[rows, own_col] * own_size / (own_size - 1)
        mean_to_cluster[rows, own_col] = np.inf
        b = mean_to_cluster.min(axis=1)
        denom = np.maximum(a, b)
        scores = (b - a) / denom
    scores[(own_size == 1) | (denom == 0.0)] = 0.0
    return scores


def silhouette_score(data, labels) -> float:
    """Mean silhouette coefficient over all samples."""
    return float(silhouette_samples(data, labels).mean())


@dataclass(frozen=True)
class ClusterQualitySweep:
    """SSE / silhouette across candidate cluster counts (Figure 9 data)."""

    cluster_counts: np.ndarray
    sse: np.ndarray
    silhouette: np.ndarray

    def as_rows(self) -> list[tuple[int, float, float]]:
        """(k, SSE, silhouette) rows, for table rendering."""
        return [
            (int(k), float(s), float(sil))
            for k, s, sil in zip(self.cluster_counts, self.sse, self.silhouette)
        ]


def sweep_cluster_counts(
    data,
    cluster_counts,
    *,
    kmeans_factory,
    sample_weight=None,
) -> ClusterQualitySweep:
    """Fit K-means at each candidate *k* and record SSE + silhouette.

    Parameters
    ----------
    kmeans_factory:
        Callable ``k -> KMeans`` so callers control seeding and restarts.
    """
    matrix = as_matrix(data, name="data", min_rows=2)
    counts = [int(k) for k in cluster_counts]
    if not counts:
        raise ValueError("cluster_counts must be non-empty")
    if min(counts) < 2:
        raise ValueError("cluster counts must be >= 2 for silhouette")

    sse = np.empty(len(counts))
    sil = np.empty(len(counts))
    with obs_span("cluster.sweep", counts=counts, rows=matrix.shape[0]):
        # Every candidate k is scored against the same rows: one
        # distance matrix serves all of their silhouettes.
        dist = pairwise_euclidean(matrix, matrix)
        for i, k in enumerate(counts):
            result = kmeans_factory(k).fit(matrix, sample_weight=sample_weight)
            sse[i] = result.inertia
            if np.unique(result.labels).size < 2:
                sil[i] = 0.0
            else:
                sil[i] = float(
                    _silhouette_from_distances(dist, result.labels).mean()
                )
    return ClusterQualitySweep(
        cluster_counts=np.asarray(counts), sse=sse, silhouette=sil
    )


def knee_point(x, y) -> int:
    """Index of the knee of a decreasing curve (max distance to chord).

    Standard "kneedle-style" geometric criterion: normalise the curve to the
    unit square and return the point farthest from the straight line joining
    the endpoints.  Used to suggest the cluster count where SSE returns
    start to diminish (the paper picks 18 this way, balancing quality
    against replay cost).
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if xs.size < 3:
        raise ValueError("knee detection needs at least 3 points")
    span_x = xs[-1] - xs[0]
    span_y = ys[-1] - ys[0]
    if span_x == 0:
        raise ValueError("x values must not be constant")
    nx = (xs - xs[0]) / span_x
    ny = (ys - ys[0]) / span_y if span_y != 0 else np.zeros_like(ys)
    # Distance from each point to the chord y = x (after normalisation).
    distance = np.abs(ny - nx)
    return int(np.argmax(distance))
