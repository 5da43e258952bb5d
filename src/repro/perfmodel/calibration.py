"""Calibrating model parameters from measurements.

A team adopting FLARE on a real datacenter does not hand-write job
signatures — it measures.  This module fits the model's two main
ingredients from data a performance engineer can actually collect:

* :func:`fit_mrc` — a miss-ratio curve from (cache allocation, miss
  ratio) points, e.g. from an Intel-CAT way-masking sweep;
* :func:`calibrate_cpi_components` — the signature's CPI components from
  a solo run's IPC and topdown fractions (the standard perf/toplev
  output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpistack import TopdownBreakdown
from .mrc import MissRatioCurve

__all__ = ["fit_mrc", "MRCFit", "calibrate_cpi_components", "CPIComponents"]


@dataclass(frozen=True)
class MRCFit:
    """A fitted miss-ratio curve plus its fit quality."""

    mrc: MissRatioCurve
    rmse: float
    n_points: int


def fit_mrc(
    cache_mb,
    miss_ratios,
    *,
    floor_bounds: tuple[float, float] = (0.0, 0.95),
    shape_bounds: tuple[float, float] = (0.2, 4.0),
) -> MRCFit:
    """Least-squares fit of a hyperbolic MRC to measured points.

    Parameters
    ----------
    cache_mb / miss_ratios:
        Paired observations: miss ratio measured at each cache
        allocation.  At least 3 points (the model has 3 parameters).

    Returns
    -------
    MRCFit
        The fitted curve and its root-mean-square error on the inputs.
    """
    sizes = np.asarray(cache_mb, dtype=np.float64)
    ratios = np.asarray(miss_ratios, dtype=np.float64)
    if sizes.ndim != 1 or sizes.shape != ratios.shape:
        raise ValueError("cache_mb and miss_ratios must be matching 1-D arrays")
    if sizes.size < 3:
        raise ValueError("need at least 3 measurement points")
    if (sizes < 0).any():
        raise ValueError("cache sizes must be non-negative")
    if (ratios < 0).any() or (ratios > 1).any():
        raise ValueError("miss ratios must be in [0, 1]")
    # Imported here: scipy.optimize dominates `import repro` otherwise.
    from scipy.optimize import curve_fit

    def model(c, half, shape, floor):
        return floor + (1.0 - floor) / (1.0 + c / half) ** shape

    half_guess = max(float(np.median(sizes)), 0.1)
    p0 = (half_guess, 1.0, max(float(ratios.min()) * 0.8, 1e-3))
    bounds = (
        (0.01, shape_bounds[0], floor_bounds[0]),
        (1e4, shape_bounds[1], floor_bounds[1]),
    )
    params, _ = curve_fit(
        model, sizes, ratios, p0=p0, bounds=bounds, maxfev=20_000
    )
    half, shape, floor = (float(p) for p in params)
    mrc = MissRatioCurve(half_capacity_mb=half, shape=shape, floor=floor)
    predicted = np.array([mrc.miss_ratio(c) for c in sizes])
    rmse = float(np.sqrt(np.mean((predicted - ratios) ** 2)))
    return MRCFit(mrc=mrc, rmse=rmse, n_points=int(sizes.size))


@dataclass(frozen=True)
class CPIComponents:
    """CPI components recovered from a solo-run measurement."""

    base_cpi: float
    frontend_cpi: float
    bad_speculation_cpi: float
    backend_cpi: float

    @property
    def total(self) -> float:
        return (
            self.base_cpi
            + self.frontend_cpi
            + self.bad_speculation_cpi
            + self.backend_cpi
        )


def calibrate_cpi_components(
    ipc: float, topdown: TopdownBreakdown
) -> CPIComponents:
    """Split a measured CPI into signature components via topdown slots.

    Given the IPC of a job running alone and its level-1 topdown
    breakdown (retiring / frontend-bound / bad-speculation /
    backend-bound), attribute total CPI proportionally — the standard
    interpretation of topdown slot fractions.  The results seed a
    :class:`~repro.perfmodel.signatures.JobSignature`'s ``base_cpi``
    (retiring) and ``frontend_cpi``; backend CPI is what the cache/memory
    parameters must reproduce.
    """
    if ipc <= 0.0:
        raise ValueError("ipc must be positive")
    total_cpi = 1.0 / ipc
    return CPIComponents(
        base_cpi=total_cpi * topdown.retiring,
        frontend_cpi=total_cpi * topdown.frontend_bound,
        bad_speculation_cpi=total_cpi * topdown.bad_speculation,
        backend_cpi=total_cpi * topdown.backend_bound,
    )
