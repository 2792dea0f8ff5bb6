"""Scoring of estimated change points and robust noise-scale estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from steploc.signal import PiecewiseSignal, check_observations

__all__ = [
    "EmptySetError",
    "LocalizationReport",
    "hausdorff",
    "localization_report",
    "estimate_sigma",
]


# The 0.875 quantile of the standard normal, statistics.NormalDist().inv_cdf(0.875):
# for gaussian noise, |y[i+1] - y[i]| / sqrt(2) has its 75th percentile there.
_NORMAL_Q875 = 1.1503493803760079


class EmptySetError(ValueError):
    """Raised when a Hausdorff distance is requested against an empty set."""


def hausdorff(e1, e2) -> float:
    """Hausdorff distance between two nonempty point sets.

    The larger of the two directed max-min distances.  Callers that need an
    empty-vs-nonempty convention map :class:`EmptySetError` to an infinity
    marker themselves; see :func:`localization_report`.
    """
    a = np.asarray(sorted(set(int(x) for x in e1)), dtype=np.int64)
    b = np.asarray(sorted(set(int(x) for x in e2)), dtype=np.int64)
    if a.size == 0 or b.size == 0:
        raise EmptySetError("hausdorff distance requires two nonempty sets")
    diff = np.abs(a[:, None] - b[None, :])
    return float(max(diff.min(axis=1).max(), diff.min(axis=0).max()))


@dataclass(frozen=True)
class LocalizationReport:
    """Outcome of comparing estimated change points to the truth.

    ``per_cp_error`` matches estimates to true change points by sorted
    order and is present exactly when the estimated count is correct.
    ``hausdorff`` is ``inf`` when one side is empty and the other is not;
    aggregation treats that as failure rather than averaging it.
    """

    k_true: int
    k_est: int
    k_correct: bool
    per_cp_error: tuple[int, ...] | None
    hausdorff: float


def localization_report(est, truth: PiecewiseSignal) -> LocalizationReport:
    est = sorted(int(x) for x in est)
    if any(b <= a for a, b in zip(est, est[1:])):
        raise ValueError(f"estimated change points contain duplicates: {est}")
    true_cps = truth.change_points
    k_true, k_est = len(true_cps), len(est)
    k_correct = k_est == k_true

    per_cp = tuple(abs(h - t) for h, t in zip(est, true_cps)) if k_correct else None

    if k_true == 0 and k_est == 0:
        dist = 0.0
    elif k_true == 0 or k_est == 0:
        dist = math.inf
    else:
        dist = hausdorff(est, true_cps)

    return LocalizationReport(
        k_true=k_true, k_est=k_est, k_correct=k_correct, per_cp_error=per_cp, hausdorff=dist
    )


def estimate_sigma(y: np.ndarray) -> float:
    """Noise scale from the median absolute first difference.

    The median of |y[i+1] - y[i]| is insensitive to a sparse set of level
    shifts; dividing by sqrt(2) * 0.6745 calibrates it to the standard
    deviation of gaussian noise (0.6745 is the normal quartile).  On
    quantized data more than half of the differences can be exactly 0, and
    the median with them; the estimate then falls back to the 75th
    percentile of |y[i+1] - y[i]|, calibrated by sqrt(2) * Φ⁻¹(0.875).  It
    is 0 only while at least about three quarters of the differences are
    0, as on constant or noiseless piecewise-constant data.  A difference
    beyond the float range counts as infinite.  ``ValueError`` if ``y`` is
    not 1-D and finite with at least 2 values, or the estimate is not finite.
    """
    y = check_observations(y, least=2)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.abs(np.diff(y))
        med = float(np.median(diffs))
        if med == 0:
            sigma = float(np.percentile(diffs, 75)) / (math.sqrt(2.0) * _NORMAL_Q875)
        else:
            sigma = med / (math.sqrt(2.0) * 0.6745)
    if not math.isfinite(sigma):
        raise ValueError("the noise-scale estimate (median absolute first difference) overflows; "
                         "give the scale explicitly (--sigma)")
    return sigma
