"""Measurement-noise model for collected counters.

Production metric pipelines are noisy: sampling-based counters, timer
jitter, interrupt skew.  The Profiler perturbs every collected value with
multiplicative Gaussian noise so that downstream refinement/PCA face
realistic (not laboratory-clean) inputs, as the paper's own data does.
"""

from __future__ import annotations

import numpy as np

from .metrics import MetricSpec

__all__ = ["MeasurementNoise"]


class MeasurementNoise:
    """Multiplicative Gaussian perturbation of metric vectors.

    Parameters
    ----------
    sigma:
        Relative standard deviation (0.02 = 2 % jitter).  Zero disables
        noise entirely (useful for exact-value tests).
    rng:
        Random generator; pass a seeded generator for reproducibility.
    """

    def __init__(self, sigma: float, rng: np.random.Generator) -> None:
        if sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self._rng = rng
        self._mask_specs: tuple[MetricSpec, ...] | None = None
        self._mask = np.zeros(0, dtype=bool)

    def skip(self, n_rows: int, n_metrics: int) -> None:
        """Advance the stream past *n_rows* rows without applying noise.

        Draws exactly what :meth:`apply` would consume for those rows —
        one C-order ``(n_rows, n_metrics)`` draw is the same stream as
        *n_rows* per-row draws — so a consumer that skips the first *k*
        rows and then applies noise to row *k* gets the same factors a
        start-from-zero consumer would: the property that lets an
        incremental refit profile only fresh rows yet stay on the full
        run's noise stream.  A zero-sigma stream consumes nothing, in
        apply and here alike.
        """
        if self.sigma == 0.0:
            return
        self._rng.normal(0.0, self.sigma, size=(n_rows, n_metrics))

    def apply(
        self, values: np.ndarray, specs: tuple[MetricSpec, ...]
    ) -> np.ndarray:
        """Return a noisy copy of *values* in registry order.

        *values* is one vector or a ``(rows, n)`` block of row vectors;
        a block draws its factors in one call, which consumes the stream
        exactly as applying the rows one at a time would.  Fraction-unit
        metrics are clipped back into [0, 1]; all metrics are clipped at
        zero (a counter cannot go negative).
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim not in (1, 2) or arr.shape[-1] != len(specs):
            raise ValueError(
                f"expected {len(specs)} values, got shape {arr.shape}"
            )
        if self.sigma == 0.0:
            return arr.copy()
        factors = 1.0 + self._rng.normal(0.0, self.sigma, size=arr.shape)
        noisy = arr * factors
        np.maximum(noisy, 0.0, out=noisy)
        np.minimum(noisy, 1.0, out=noisy, where=self._fraction_mask(specs))
        return noisy

    def _fraction_mask(self, specs: tuple[MetricSpec, ...]) -> np.ndarray:
        """Which columns are fractions (cached for the last *specs*)."""
        if self._mask_specs is not specs:
            self._mask = np.array([spec.is_fraction for spec in specs], dtype=bool)
            self._mask_specs = specs
        return self._mask
