"""The clustering kernels as they were written first: the oracle.

:mod:`repro.stats.kmeans` and :mod:`repro.stats.silhouette` now cache
row norms, build distances in place, update centroids with one
``bincount``, score silhouettes with array operations and reuse one
distance matrix across a sweep; the fit pipelines keep their whitened
scores resident instead of re-projecting the metric spill on every
Lloyd pass.  None of that may change a bit.  The straightforward forms
below — validation on every call, a per-dimension centroid update, a
per-sample silhouette loop, a score generator that re-standardises,
re-projects and re-whitens each block — are what the differential
battery compares the kernels against with ``np.array_equal``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.validation import as_matrix, check_labels, check_random_state


def pairwise_sq_euclidean(a, b) -> np.ndarray:
    mat_a = as_matrix(a, name="a")
    mat_b = as_matrix(b, name="b")
    sq_a = np.einsum("ij,ij->i", mat_a, mat_a)[:, None]
    sq_b = np.einsum("ij,ij->i", mat_b, mat_b)[None, :]
    dist = sq_a - 2.0 * (mat_a @ mat_b.T) + sq_b
    np.maximum(dist, 0.0, out=dist)
    return dist


def pairwise_euclidean(a, b) -> np.ndarray:
    return np.sqrt(pairwise_sq_euclidean(a, b))


def kmeans_plus_plus_init(data, n_clusters, rng, sample_weight=None):
    n_samples = data.shape[0]
    weight = (
        np.ones(n_samples)
        if sample_weight is None
        else np.asarray(sample_weight, dtype=np.float64)
    )
    prob = weight / weight.sum()
    centroids = np.empty((n_clusters, data.shape[1]), dtype=np.float64)

    first = rng.choice(n_samples, p=prob)
    centroids[0] = data[first]
    closest_sq = pairwise_sq_euclidean(data, centroids[:1]).ravel()

    for k in range(1, n_clusters):
        scores = closest_sq * weight
        total = scores.sum()
        if total <= 0.0:
            idx = rng.choice(n_samples, p=prob)
        else:
            idx = rng.choice(n_samples, p=scores / total)
        centroids[k] = data[idx]
        new_sq = pairwise_sq_euclidean(data, centroids[k : k + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def update_centroids(data, labels, weight, old_centroids, dist, n_clusters):
    """One ``bincount`` per dimension, then empty-cluster repair."""
    centroids = old_centroids.copy()
    mass = np.bincount(labels, weights=weight, minlength=n_clusters)
    for dim in range(data.shape[1]):
        sums = np.bincount(
            labels, weights=weight * data[:, dim], minlength=n_clusters
        )
        live = mass > 0
        centroids[live, dim] = sums[live] / mass[live]

    empty = np.flatnonzero(mass == 0)
    if empty.size:
        point_sq = dist[np.arange(data.shape[0]), labels]
        order = np.argsort(point_sq)[::-1]
        for slot, cluster in enumerate(empty):
            centroids[cluster] = data[order[slot % order.size]]
    return centroids


@dataclass(frozen=True)
class Run:
    """One Lloyd run: what :class:`repro.stats.KMeansResult` holds."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool


def single_run(data, n_clusters, weight, rng, *, max_iter, tol, init=None):
    if init is not None:
        centroids = init.copy()
    else:
        centroids = kmeans_plus_plus_init(data, n_clusters, rng, weight)
    eff_weight = np.ones(data.shape[0]) if weight is None else weight
    labels = np.full(data.shape[0], -1, dtype=np.intp)
    converged = False
    n_iter = 0

    for n_iter in range(1, max_iter + 1):
        dist = pairwise_sq_euclidean(data, centroids)
        new_labels = np.argmin(dist, axis=1)
        new_centroids = update_centroids(
            data, new_labels, eff_weight, centroids, dist, n_clusters
        )
        shift = float(((new_centroids - centroids) ** 2).sum())
        stable = bool((new_labels == labels).all())
        centroids, labels = new_centroids, new_labels
        if stable or shift <= tol:
            converged = True
            break

    final_dist = pairwise_sq_euclidean(data, centroids)
    labels = np.argmin(final_dist, axis=1)
    point_sq = final_dist[np.arange(data.shape[0]), labels]
    inertia = float((point_sq * eff_weight).sum())
    return Run(centroids, labels, inertia, n_iter, converged)


def kmeans_fit(
    data,
    n_clusters,
    *,
    n_init=10,
    max_iter=300,
    tol=1e-8,
    seed=None,
    sample_weight=None,
    init=None,
) -> Run:
    """``KMeans(n_clusters, ...).fit(data, sample_weight, init=init)``."""
    matrix = as_matrix(data, name="data")
    weight = (
        None
        if sample_weight is None
        else np.asarray(sample_weight, dtype=np.float64)
    )
    rng = check_random_state(seed)
    if init is not None:
        init = np.ascontiguousarray(init, dtype=np.float64)
        return single_run(
            matrix, n_clusters, weight, rng,
            max_iter=max_iter, tol=tol, init=init,
        )
    best = None
    for _ in range(n_init):
        candidate = single_run(
            matrix, n_clusters, weight, rng, max_iter=max_iter, tol=tol
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best


def assigned_sq_distances(data, centroids, labels):
    diff = data - centroids[labels]
    return np.einsum("ij,ij->i", diff, diff)


def streaming_kmeans_fit(
    batches,
    n_clusters,
    *,
    n_total,
    sample,
    n_init=10,
    max_iter=300,
    tol=1e-8,
    seed=None,
    sample_weight=None,
    init=None,
):
    """``StreamingKMeans(...).fit(...)``: ``(result, point_sq_distances)``."""
    sample = as_matrix(sample, name="sample")
    if init is not None:
        init = np.ascontiguousarray(init, dtype=np.float64)
    if sample.shape[0] >= n_total:
        base = kmeans_fit(
            sample, n_clusters, n_init=n_init, max_iter=max_iter, tol=tol,
            seed=seed, sample_weight=sample_weight, init=init,
        )
        return base, assigned_sq_distances(sample, base.centroids, base.labels)

    if init is not None:
        centroids = init.copy()
    else:
        centroids = kmeans_fit(
            sample, n_clusters, n_init=n_init, max_iter=max_iter, tol=tol,
            seed=seed,
        ).centroids.copy()
    k = n_clusters
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        sums = np.zeros_like(centroids)
        counts = np.zeros(k, dtype=np.float64)
        far_vals = np.full(k, -np.inf)
        far_rows = np.zeros_like(centroids)
        for batch in batches():
            matrix = as_matrix(batch, name="batch")
            dist = pairwise_sq_euclidean(matrix, centroids)
            labels = np.argmin(dist, axis=1)
            point_sq = dist[np.arange(matrix.shape[0]), labels]
            counts += np.bincount(labels, minlength=k)
            np.add.at(sums, labels, matrix)
            top = np.argsort(point_sq, kind="stable")[::-1][:k]
            merged_vals = np.concatenate([far_vals, point_sq[top]])
            merged_rows = np.concatenate([far_rows, matrix[top]])
            keep = np.argsort(merged_vals, kind="stable")[::-1][:k]
            far_vals = merged_vals[keep]
            far_rows = merged_rows[keep]
        new_centroids = centroids.copy()
        live = counts > 0
        new_centroids[live] = sums[live] / counts[live, None]
        empty = np.flatnonzero(~live)
        for slot, cluster in enumerate(empty):
            if np.isfinite(far_vals[slot % k]):
                new_centroids[cluster] = far_rows[slot % k]
        shift = float(((new_centroids - centroids) ** 2).sum())
        centroids = new_centroids
        if shift <= tol:
            converged = True
            break

    labels = np.empty(n_total, dtype=np.intp)
    point_sq = np.empty(n_total, dtype=np.float64)
    position = 0
    for batch in batches():
        matrix = as_matrix(batch, name="batch")
        dist = pairwise_sq_euclidean(matrix, centroids)
        batch_labels = np.argmin(dist, axis=1)
        rows = matrix.shape[0]
        labels[position : position + rows] = batch_labels
        point_sq[position : position + rows] = assigned_sq_distances(
            matrix, centroids, batch_labels
        )
        position += rows
    result = Run(centroids, labels, float(point_sq.sum()), n_iter, converged)
    return result, point_sq


def silhouette_samples(data, labels) -> np.ndarray:
    """The per-sample loop."""
    matrix = as_matrix(data, name="data", min_rows=2)
    lab = check_labels(labels, matrix.shape[0])
    unique = np.unique(lab)
    if unique.size < 2:
        raise ValueError("silhouette requires at least 2 clusters")

    dist = pairwise_euclidean(matrix, matrix)
    n = matrix.shape[0]
    sizes = {int(c): int((lab == c).sum()) for c in unique}

    mean_to_cluster = np.empty((n, unique.size))
    for j, cluster in enumerate(unique):
        members = lab == cluster
        mean_to_cluster[:, j] = dist[:, members].mean(axis=1)

    scores = np.zeros(n)
    cluster_pos = {int(c): j for j, c in enumerate(unique)}
    for i in range(n):
        own = int(lab[i])
        size = sizes[own]
        if size == 1:
            scores[i] = 0.0
            continue
        own_col = cluster_pos[own]
        a = mean_to_cluster[i, own_col] * size / (size - 1)
        others = [
            mean_to_cluster[i, j]
            for j in range(unique.size)
            if j != own_col
        ]
        b = min(others)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return scores


def sweep_cluster_counts(data, cluster_counts, *, fit, sample_weight=None):
    """``(sse, silhouette)`` per *k*; ``fit(matrix, k, sample_weight)``
    returns the oracle run for one count."""
    matrix = as_matrix(data, name="data", min_rows=2)
    counts = [int(k) for k in cluster_counts]
    sse = np.empty(len(counts))
    sil = np.empty(len(counts))
    for i, k in enumerate(counts):
        result = fit(matrix, k, sample_weight)
        sse[i] = result.inertia
        if np.unique(result.labels).size < 2:
            sil[i] = 0.0
        else:
            sil[i] = float(silhouette_samples(matrix, result.labels).mean())
    return sse, sil


def reprojected_score_batches(blocks, scaler, kept, components, mean, std):
    """The score stream as the fits produced it before the scores were
    kept resident: each pass re-reads the metric blocks (``blocks`` is a
    zero-argument callable) and re-standardises, re-projects and
    re-whitens every row."""
    live = std > 1e-12 * np.maximum(1.0, np.abs(mean))

    def whiten_rows(raw):
        centred = raw - mean
        out = np.zeros_like(centred)
        out[:, live] = centred[:, live] / std[live]
        return out

    def score_batches():
        for block in blocks():
            yield whiten_rows(scaler.transform(block[:, kept]) @ components.T)

    return score_batches
