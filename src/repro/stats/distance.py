"""Distance kernels shared by clustering and silhouette scoring."""

from __future__ import annotations

import numpy as np

from .validation import as_matrix

__all__ = [
    "pairwise_sq_euclidean",
    "pairwise_euclidean",
    "nearest_indices",
    "row_sq_norms",
    "sq_distances",
]


def pairwise_sq_euclidean(a, b) -> np.ndarray:
    """Squared Euclidean distances between rows of *a* and rows of *b*.

    Uses the expansion ``|x-y|^2 = |x|^2 - 2 x.y + |y|^2`` for an
    O(n·m·d) BLAS-backed computation, clamping tiny negatives produced by
    floating-point cancellation back to zero.
    """
    mat_a = as_matrix(a, name="a")
    mat_b = as_matrix(b, name="b")
    if mat_a.shape[1] != mat_b.shape[1]:
        raise ValueError(
            f"dimension mismatch: a has {mat_a.shape[1]} columns, "
            f"b has {mat_b.shape[1]}"
        )
    return sq_distances(mat_a, mat_b, row_sq_norms(mat_a))


def row_sq_norms(matrix: np.ndarray) -> np.ndarray:
    """``‖x‖²`` of every row of a validated matrix."""
    return np.einsum("ij,ij->i", matrix, matrix)


def sq_distances(
    data: np.ndarray, centres: np.ndarray, data_sq: np.ndarray
) -> np.ndarray:
    """Kernel of :func:`pairwise_sq_euclidean` over validated inputs.

    *data_sq* is :func:`row_sq_norms` of *data*, so callers that measure
    the same rows against many centre sets (Lloyd iterations, k-means++
    seeding) compute it once.  The matrix is built in place as
    ``(‖x‖² − 2·x·c) + ‖c‖²`` — negation and the order of the two
    additions are exact, so every entry equals the textbook
    expression's bit for bit.
    """
    dist = data @ centres.T
    dist *= -2.0
    dist += data_sq[:, None]
    dist += row_sq_norms(centres)[None, :]
    np.maximum(dist, 0.0, out=dist)
    return dist


def pairwise_euclidean(a, b) -> np.ndarray:
    """Euclidean distances between rows of *a* and rows of *b*."""
    dist = pairwise_sq_euclidean(a, b)
    return np.sqrt(dist, out=dist)


def nearest_indices(points, targets) -> np.ndarray:
    """For each row of *targets*, index of the nearest row in *points*.

    Used to pick representative scenarios: the scenario closest to each
    cluster centroid (paper §4.4).
    """
    dist = pairwise_sq_euclidean(points, targets)
    return np.argmin(dist, axis=0)
