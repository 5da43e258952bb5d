"""Feature standardisation and whitening.

FLARE normalises every raw metric to zero mean and unit variance before PCA
(eliminating magnitude bias between e.g. MIPS ~ 1e3 and miss ratios ~ 1e-2),
and then *whitens* the selected principal components so each PC carries the
same weight during clustering (paper §4.3–4.4).
"""

from __future__ import annotations

import numpy as np

from .validation import as_matrix

__all__ = ["StandardScaler", "live_components", "whiten", "whiten_scores"]


class StandardScaler:
    """Zero-mean / unit-variance standardisation with an invertible API.

    Constant columns (zero variance) are centred but left unscaled, which
    matches the behaviour datacenter metric pipelines need: a counter that
    never moves must not explode into NaNs.

    Examples
    --------
    >>> scaler = StandardScaler()
    >>> z = scaler.fit_transform([[1.0, 2.0], [3.0, 2.0]])
    >>> z.mean(axis=0).tolist()
    [0.0, 0.0]
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None
        self.n_samples_: int = 0

    # ------------------------------------------------------------------
    def fit(self, data) -> "StandardScaler":
        """Learn per-column mean and standard deviation."""
        matrix = as_matrix(data, name="data")
        return self._set_statistics(
            matrix.mean(axis=0), matrix.std(axis=0, ddof=0), matrix.shape[0]
        )

    @classmethod
    def from_moments(
        cls, mean: np.ndarray, std: np.ndarray, n_samples: int
    ) -> "StandardScaler":
        """Scaler from externally accumulated statistics.

        The out-of-core fit derives mean/std from streamed
        :class:`~repro.stats.streaming.RunningMoments` rather than a
        resident matrix; this applies the same constant-column guard as
        :meth:`fit` so both paths share one tolerance rule.
        """
        return cls()._set_statistics(
            np.asarray(mean, dtype=np.float64),
            np.asarray(std, dtype=np.float64),
            n_samples,
        )

    def _set_statistics(
        self, mean: np.ndarray, std: np.ndarray, n_samples: int
    ) -> "StandardScaler":
        self.mean_ = mean
        # Constant columns carry no information; dividing by 1 keeps them
        # at ~zero after centring instead of producing NaN.  The threshold
        # is relative to the column magnitude: a column of identical large
        # values has a tiny but non-zero float std that must not be used
        # as a divisor.
        tolerance = 1e-12 * np.maximum(1.0, np.abs(mean))
        self.scale_ = np.where(std > tolerance, std, 1.0)
        self.n_samples_ = n_samples
        return self

    def transform(self, data) -> np.ndarray:
        """Standardise *data* with the fitted statistics."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fitted before transform")
        matrix = as_matrix(data, name="data")
        if matrix.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"data has {matrix.shape[1]} columns, scaler was fitted "
                f"with {self.mean_.shape[0]}"
            )
        return (matrix - self.mean_) / self.scale_

    def fit_transform(self, data) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(data).transform(data)

    def inverse_transform(self, data) -> np.ndarray:
        """Map standardised values back to the original units."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fitted before inverse")
        matrix = as_matrix(data, name="data")
        return matrix * self.scale_ + self.mean_


def whiten(components: np.ndarray) -> np.ndarray:
    """Rescale each column of *components* to unit variance.

    The paper whitens the selected PCs so that every high-level metric
    "retains the same amount of information" before K-means (§4.4).  PCA
    scores already have zero mean, so whitening is a per-column division by
    the standard deviation.

    Columns without spread (see :func:`live_components`) are returned as
    zeros: a PC with no spread cannot contribute to distances and
    dividing by ~0 would amplify numeric noise into fake structure.
    """
    matrix = as_matrix(components, name="components")
    mean = matrix.mean(axis=0)
    return whiten_scores(matrix, mean, (matrix - mean).std(axis=0, ddof=0))


def live_components(mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Mask of the score columns that carry spread.

    The threshold is relative: a column of identical large values has a
    tiny non-zero float std that must not be amplified into fake
    structure.
    """
    return std > 1e-12 * np.maximum(1.0, np.abs(mean))


def whiten_scores(
    raw: np.ndarray, mean: np.ndarray, std: np.ndarray
) -> np.ndarray:
    """Whiten raw PC scores with a fit's score statistics.

    Centres every column on *mean* and divides the
    :func:`live_components` by *std*; dead columns are zero.  The fits
    (through :func:`whiten` or their score pass), the out-of-sample
    projection and the refit warm start all whiten through this one
    function.  Element-wise, so whitening a block of rows equals
    whitening them one at a time, bit for bit.
    """
    centred = raw - mean
    out = np.zeros_like(centred)
    live = live_components(mean, std)
    out[:, live] = centred[:, live] / std[live]
    return out
