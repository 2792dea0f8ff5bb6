"""The CUSUM scan kernel: weighted two-sample statistics over windows.

For data ``y`` (1-indexed here; python arrays are 0-indexed so the window
``(s, e]`` is the slice ``y[s:e]``) the scan value at split ``t`` is

    sqrt((e-t) / ((e-s)(t-s))) * sum(y[s+1..t])
        - sqrt((t-s) / ((e-s)(e-t))) * sum(y[t+1..e])

which equals the inner product of the window with a unit-norm up/down
contrast vector.  Every value is taken from compensated prefix sums
(:func:`prefix_sums`) of the globally centered data (:func:`scan_prefix`),
which rejects data whose sums could overflow a scan value.

One kernel, :func:`scan_windows`, scores any number of windows
``(lo[i], hi[i]]`` in ragged numpy passes.  Its output is flat: window 0's
``hi[0] - lo[0] - 1`` values in ascending split order, then window 1's, and
so on.  The kernel fills that output in slices of at most ``PASS_POINTS``
splits, with temporaries of one slice that it allocates once per call and
reuses, so only the returned array grows with the windows: a scan of one
window of length n makes no length-n temporaries.  In a
slice that meets several windows, per-window quantities are spread over the
splits with ``np.repeat``; a slice inside one window broadcasts them as
scalars and reads its prefix sums as a view.  ``_scan_values(prefix, s, e)``
is the one-window case, which the binary-segmentation recursion in
``steploc.wbs`` calls beside the kernel itself.

The one-window API, :func:`cusum_scan` with its result :class:`CusumScan`
and :func:`argmax_abs`, scores every admissible split of one window in
O(e - s) through the same kernel.  It checks its input with
:func:`check_observations`, the package's one observation contract, which
every other entry point imports from here.  Beside it sits the one integer
rule, :data:`INTEGER_TYPES` and :func:`check_integer`, which every count
and position argument of the package passes.  The direct references the
scan is checked against (the single-split statistic from slice sums, the
contrast vector, the two-mean projection and the closed form at one change
point) live in ``tests/oracles.py``; the scan must agree with them to 1e-10
up to n = 1e6.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CusumScan",
    "INTEGER_TYPES",
    "check_integer",
    "check_observations",
    "prefix_sums",
    "cusum_scan",
    "argmax_abs",
]

# Splits scored per slice of a scan, and per numpy pass at one recursion
# node of steploc.wbs: bounds the temporaries of both to a few of its size.
PASS_POINTS = 4096

# 0, 1, ..., PASS_POINTS - 1, as integers and as floats, shared by every scan.
_STEPS = np.arange(PASS_POINTS)
_STEPS_F = _STEPS.astype(np.float64)
_STEPS.flags.writeable = _STEPS_F.flags.writeable = False


# What every count and position argument may be: a Python or numpy integer.
INTEGER_TYPES = (int, np.integer)


def check_integer(value, low: int, high: int | None, message: str, *args) -> int:
    """``value`` as a Python ``int`` if it is one of :data:`INTEGER_TYPES` in
    ``[low, high]`` (no upper bound for None); otherwise ``ValueError`` with
    ``message % args``, formatted only then."""
    if isinstance(value, INTEGER_TYPES) and low <= value and (high is None or value <= high):
        return int(value)
    raise ValueError(message % args)


def check_observations(y, n: int | None = None, least: int = 1) -> np.ndarray:
    """The observations ``y`` as a float64 array: shape ``(n,)`` (any n for None),
    at least ``least`` values, all finite.  ``ValueError`` otherwise."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size if n is None else n
    if y.shape != (n,):
        raise ValueError(f"observations must have shape ({n},), got {y.shape}")
    if n < least:
        raise ValueError(f"need at least {least} observation{'s' * (least != 1)}, got {n}")
    if not np.isfinite(y).all():
        raise ValueError("observations must be finite")
    return y


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
    # The residuals y - diff(out), formed in place as -diff(out) + y (the
    # same bits), so that a call holds at most two length-n buffers.
    resid = np.diff(out)
    np.negative(resid, out=resid)
    resid += y
    if resid.any():
        out[1:] += resid.cumsum(out=resid)
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
    ends = counts.cumsum()
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    out = np.empty(total, dtype=np.float64)
    p_lo, p_hi, span_w = prefix[lo], prefix[hi], (hi - lo).astype(np.float64)
    size = min(total, PASS_POINTS)
    t = np.empty(size, dtype=np.int64)
    right, gap_l, gap_r, w = np.empty((4, size), dtype=np.float64)
    for a in range(0, total, PASS_POINTS):
        m = min(PASS_POINTS, total - a)
        # Windows i0..i1-1 meet the output slice [a, a + m), with c[j]
        # splits each.  Its position a + k holds, for window i, the split
        # lo[i] + off[i] + k.
        if lo.size == 1 or m == total:
            i0, i1, c = 0, lo.size, counts
        else:
            i0 = int(ends.searchsorted(a, side="right"))
            i1 = int(ends.searchsorted(a + m, side="left")) + 1
            c = np.minimum(ends[i0:i1], a + m) - np.maximum(starts[i0:i1], a)
        off = a + 1 - starts[i0:i1]
        if i1 - i0 == 1:
            # One window: per-window quantities broadcast as scalars, and
            # its splits are consecutive, so their prefix sums are a view.
            spread = operator.itemgetter(0)
            j = int(lo[i0] + off[0])
            at_t = prefix[j:j + m]
        else:
            spread = operator.methodcaller("repeat", c)
            np.add(spread(lo[i0:i1] + off), _STEPS[:m], out=t[:m])
            # Every index is in range; "clip" only spares the bounds check's buffer.
            at_t = prefix.take(t[:m], out=right[:m], mode="clip")
        left, rr, gl, gr, ww = out[a:a + m], right[:m], gap_l[:m], gap_r[:m], w[:m]
        np.subtract(at_t, spread(p_lo[i0:i1]), out=left)
        np.subtract(spread(p_hi[i0:i1]), at_t, out=rr)
        np.add(_STEPS_F[:m], spread(off), out=gl)
        span = spread(span_w[i0:i1])
        # sqrt(gap_r / (span gap_l)) left - sqrt(gap_l / (span gap_r)) right,
        # operation for operation; every integer here is exact in float64.
        np.subtract(span, gl, out=gr)
        np.multiply(span, gl, out=ww)
        np.divide(gr, ww, out=ww)
        np.sqrt(ww, out=ww)
        left *= ww
        np.multiply(span, gr, out=ww)
        np.divide(gl, ww, out=ww)
        np.sqrt(ww, out=ww)
        rr *= ww
        left -= rr
    return out


def _scan_values(prefix: np.ndarray, s: int, e: int) -> np.ndarray:
    """Scan values for all splits of the one window (s, e], given prefix sums of y."""
    return scan_windows(prefix, np.array([s]), np.array([e]))


def scan_prefix(y: np.ndarray) -> np.ndarray:
    """Prefix sums of the globally centered data; ``ValueError`` if ``y`` is
    so large that a scan value could overflow.

    The scan statistic is orthogonal to constants, so centering changes
    nothing mathematically but keeps the prefix magnitudes at random-walk
    scale; without it a large common offset would eat the significant
    digits of prefix differences.
    """
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        prefix = prefix_sums(y - y.mean())
        # Every window sum is a difference of two prefix sums, so none is
        # larger than their range, which is NaN or inf if any of them is;
        # a scan value is at most sqrt(2) times the range, plus rounding.
        bound = 1.5 * (prefix.max() - prefix.min())
    if not np.isfinite(bound):
        raise ValueError("observations too large: their partial sums overflow")
    return prefix


def cusum_scan(y: np.ndarray, s: int, e: int) -> CusumScan:
    """All scan values of the window (s, e], computed in O(e - s)."""
    y = check_observations(y, least=2)
    if not (isinstance(s, INTEGER_TYPES) and isinstance(e, INTEGER_TYPES)):
        raise ValueError(f"window endpoints must be integers, got ({s!r}, {e!r})")
    if not 0 <= s < e <= y.size:
        raise ValueError(f"window ({s}, {e}] out of range for n = {y.size}")
    return CusumScan(s=int(s), e=int(e), values=_scan_values(scan_prefix(y), s, e))


def argmax_abs(scan: CusumScan) -> tuple[int, float]:
    """Split with the largest absolute scan value; smallest split on ties."""
    i = int(np.argmax(np.abs(scan.values)))
    return scan.s + 1 + i, float(abs(scan.values[i]))
