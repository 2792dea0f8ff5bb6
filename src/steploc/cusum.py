"""Weighted two-sample scan statistics over intervals.

For data ``y`` (1-indexed here; python arrays are 0-indexed so the window
``(s, e]`` is the slice ``y[s:e]``) the scan value at split ``t`` is

    sqrt((e-t) / ((e-s)(t-s))) * sum(y[s+1..t])
        - sqrt((t-s) / ((e-s)(e-t))) * sum(y[t+1..e])

which equals the inner product of the window with a unit-norm up/down
contrast vector.  :func:`cusum` evaluates a single split directly from
slice sums and serves as the reference; :func:`cusum_scan` computes every
admissible split in O(e - s) from compensated prefix sums and must agree
with the reference to 1e-10 up to n = 1e6.

Both :func:`cusum_scan` and the binary-segmentation recursion use one
kernel, :func:`scan_windows`, which scores any number of windows
``(lo[i], hi[i]]`` in a single ragged numpy pass.  Its output is flat:
window 0's ``hi[0] - lo[0] - 1`` values in ascending split order, then
window 1's, and so on.  Per-window quantities are spread over the splits
with ``np.repeat``; a single window broadcasts them instead, so scanning
one window of length n costs no length-n copies of its endpoints.
``_scan_values(prefix, s, e)`` is that one-window case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from steploc.signal import PiecewiseSignal, evaluate

__all__ = [
    "CusumScan",
    "prefix_sums",
    "cusum",
    "cusum_scan",
    "argmax_abs",
    "contrast",
    "project",
    "single_cp_cusum",
]


def prefix_sums(y: np.ndarray) -> np.ndarray:
    """Compensated prefix sums: out[t] = y[0] + ... + y[t-1], out[0] = 0.

    A plain float64 cumsum drifts linearly with n, which is too coarse for
    scan/pointwise agreement at n ~ 1e6.  A second pass accumulates the
    per-step rounding residuals and folds them back in, recovering the
    prefix sums to within about one ulp each.
    """
    y = np.asarray(y, dtype=np.float64)
    out = np.empty(y.size + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(y, out=out[1:])
    resid = y - np.diff(out)
    if np.any(resid):
        out[1:] += np.cumsum(resid)
    return out


@dataclass(frozen=True)
class CusumScan:
    """Scan values for every admissible split of one window.

    ``values[i]`` holds the statistic at split ``t = s + 1 + i``, for
    ``t`` in ``{s+1, ..., e-1}``.
    """

    s: int
    e: int
    values: np.ndarray

    def __post_init__(self):
        if self.e - self.s < 2:
            raise ValueError(f"window ({self.s}, {self.e}] has no admissible split")
        if len(self.values) != self.e - self.s - 1:
            raise ValueError(
                f"expected {self.e - self.s - 1} values for window ({self.s}, {self.e}], "
                f"got {len(self.values)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scan values must be finite")


def _check_window(n: int, s: int, e: int) -> None:
    if not (isinstance(s, (int, np.integer)) and isinstance(e, (int, np.integer))):
        raise ValueError(f"window endpoints must be integers, got ({s!r}, {e!r})")
    if not 0 <= s < e <= n:
        raise ValueError(f"window ({s}, {e}] out of range for n = {n}")


def cusum(y: np.ndarray, s: int, e: int, t: int) -> float:
    """Scan statistic at a single split, from direct slice sums."""
    y = np.asarray(y, dtype=np.float64)
    _check_window(y.size, s, e)
    if not s < t < e:
        raise ValueError(f"split t = {t} must satisfy {s} < t < {e}")
    left = float(np.sum(y[s:t]))
    right = float(np.sum(y[t:e]))
    span = e - s
    w_left = math.sqrt((e - t) / (span * (t - s)))
    w_right = math.sqrt((t - s) / (span * (e - t)))
    return w_left * left - w_right * right


def scan_windows(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Scan values for every split of every window (lo[i], hi[i]], given
    prefix sums of y; each window needs hi[i] - lo[i] >= 2.

    The values are laid out window after window in the order of
    ``lo``/``hi`` and, inside a window, in ascending split order, so
    window ``i`` owns ``hi[i] - lo[i] - 1`` consecutive entries and the
    last of them is the split ``hi[i] - 1``.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    counts = hi - lo - 1

    def per_split(a):
        # A per-window quantity at each split; one window broadcasts as is.
        return a if a.size == 1 else np.repeat(a, counts)

    t = per_split(lo + 1 - (np.cumsum(counts) - counts)) + np.arange(counts.sum())
    right = prefix[t]
    left = right - per_split(prefix[lo])
    np.subtract(per_split(prefix[hi]), right, out=right)
    gap_l = np.subtract(t, per_split(lo), dtype=np.float64)
    span = per_split((hi - lo).astype(np.float64))
    # sqrt(gap_r / (span gap_l)) left - sqrt(gap_l / (span gap_r)) right,
    # operation for operation, in place so that a window of length n costs
    # a few length-n buffers; every integer here is exact in float64.
    gap_r = span - gap_l
    w = span * gap_l
    np.divide(gap_r, w, out=w)
    np.sqrt(w, out=w)
    left *= w
    np.multiply(span, gap_r, out=w)
    np.divide(gap_l, w, out=w)
    np.sqrt(w, out=w)
    right *= w
    left -= right
    return left


def _scan_values(prefix: np.ndarray, s: int, e: int) -> np.ndarray:
    """Scan values for all splits of the one window (s, e], given prefix sums of y."""
    return scan_windows(prefix, np.array([s]), np.array([e]))


def scan_prefix(y: np.ndarray) -> np.ndarray:
    """Prefix sums of the globally centered data.

    The scan statistic is orthogonal to constants, so centering changes
    nothing mathematically but keeps the prefix magnitudes at random-walk
    scale; without it a large common offset would eat the significant
    digits of prefix differences.
    """
    y = np.asarray(y, dtype=np.float64)
    return prefix_sums(y - y.mean())


def cusum_scan(y: np.ndarray, s: int, e: int) -> CusumScan:
    """All scan values of the window (s, e], computed in O(e - s)."""
    y = np.asarray(y, dtype=np.float64)
    _check_window(y.size, s, e)
    if e - s < 2:
        raise ValueError(f"window ({s}, {e}] is too short to scan")
    return CusumScan(s=s, e=e, values=_scan_values(scan_prefix(y), s, e))


def argmax_abs(scan: CusumScan) -> tuple[int, float]:
    """Split with the largest absolute scan value; smallest split on ties."""
    i = int(np.argmax(np.abs(scan.values)))
    return scan.s + 1 + i, float(abs(scan.values[i]))


def contrast(s: int, e: int, d: int) -> np.ndarray:
    """Unit-norm up/down contrast for window (s, e] split at d (length e - s)."""
    if not s < d < e:
        raise ValueError(f"split d = {d} must satisfy {s} < d < {e}")
    span = e - s
    out = np.empty(span, dtype=np.float64)
    out[: d - s] = math.sqrt((e - d) / (span * (d - s)))
    out[d - s :] = -math.sqrt((d - s) / (span * (e - d)))
    return out


def project(x: np.ndarray, s: int, e: int, d: int) -> np.ndarray:
    """Projection of x onto vectors constant on (s, d] and (d, e].

    Replaces each half of the window with its mean; satisfies
    ``||x - project(x)||^2 = ||x - mean(x)||^2 - <x, contrast>^2``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size != e - s:
        raise ValueError(f"x has length {x.size}, window ({s}, {e}] needs {e - s}")
    if not s < d < e:
        raise ValueError(f"split d = {d} must satisfy {s} < d < {e}")
    out = np.empty_like(x)
    out[: d - s] = np.mean(x[: d - s])
    out[d - s :] = np.mean(x[d - s :])
    return out


def single_cp_cusum(sig: PiecewiseSignal, s: int, e: int) -> float:
    """Closed-form |scan value| at the unique change point inside (s, e).

    For a window holding exactly one change point ``eta`` with jump
    ``kappa`` the scan of the mean vector peaks at ``eta`` with magnitude
    ``sqrt((eta - s)(e - eta) / (e - s)) * kappa``; must match
    ``|cusum(evaluate(sig), s, e, eta)|`` to 1e-10.
    """
    _check_window(sig.n, s, e)
    if e - s < 2:
        raise ValueError(f"window ({s}, {e}] is too short")
    inside = [(i, cp) for i, cp in enumerate(sig.change_points) if s < cp < e]
    if len(inside) != 1:
        raise ValueError(
            f"window ({s}, {e}) must contain exactly one change point, found {len(inside)}"
        )
    i, eta = inside[0]
    kappa = abs(sig.levels[i + 1] - sig.levels[i])
    return math.sqrt((eta - s) * (e - eta) / (e - s)) * kappa
