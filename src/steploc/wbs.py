"""Wild binary segmentation over a set of candidate intervals.

Each working window (s, e] is intersected with every candidate interval;
the best split of each clipped interval is scored by the absolute scan
statistic, and intervals clipped to length <= 1 are dropped.  If the
winning score exceeds the threshold ``tau`` the winning split ``b`` is
recorded and the procedure continues on the children (s, b] and (b, e],
which partition the working window, so a change point right after ``b``
stays reachable.  Plain binary segmentation is the same recursion over the
one-interval set ``IntervalSet(n, ((0, n),))``: both detectors run
:func:`_detect`, which checks the arguments once and raises ``tau`` to the
scan's rounding floor, four ulps of the largest centered prefix sum.
Smaller scores are rounding, not signal; ``sigma sqrt(log n)`` thresholds
fall below them as sigma -> 0.

An :class:`IntervalSet` stores its endpoints as two read-only ``int64``
arrays, and these are all the recursion reads.  :func:`sample_intervals`
hands its draws over as arrays too, so the endpoints never pass through
Python objects; the tuple of pairs ``intervals`` is derived only when asked
for.

The windows still to search are kept on an explicit stack.  Per interval,
a call keeps the clip it last scored with that clip's first maximising
split and its score, and at a node only the live intervals whose clip
changed are scored again.  This is exact, as a clip's scan values depend
on nothing but its endpoints, and a child window changes only the clips
of the intervals that straddle the new split.

The stale clips are scored by the ragged kernel
:func:`steploc.cusum.scan_windows` in passes of at most ``PASS_POINTS``
splits (or of one longer interval, which the kernel scores in slices of
that size), so a node's temporaries stay bounded.  A pass of one interval,
such as every pass of plain binary segmentation, enters the kernel through
its one-window form ``_scan_values``.  Every pass ends the same way:
``np.maximum.reduceat`` gives each window's best ``|value|`` and the first
position reaching it gives the split.  A pass of several windows finds
that position against the maxima spread over their splits; a pass of one
window compares its values with its one maximum as is, so it makes no
length-n copy of it.

Ties are always broken toward the smallest index: each clip keeps its
first maximising split, and the node's winner is the first interval, in
the order of the interval set, whose score is the node's maximum.  So
results are deterministic even when sample means tie.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from steploc.cusum import (PASS_POINTS, _scan_values, check_integer, check_observations,
                           scan_prefix, scan_windows)
from steploc.noise import check_seed, generator

__all__ = [
    "IntervalSet",
    "Detection",
    "DetectionResult",
    "sample_intervals",
    "wbs_detect",
    "bs_detect",
    "default_tau",
    "min_intervals",
    "DEFAULT_C_TAU",
]

class IntervalSet:
    """Candidate intervals (alpha_m, beta_m): integers, 0 <= alpha_m < beta_m <= n,
    none longer than ``max_len`` when it is given.

    The endpoints are stored as the read-only ``int64`` arrays ``alphas`` and
    ``betas``, checked once, here.  Build a set from pairs,
    ``IntervalSet(n, ((a, b), ...))``, or from two arrays with
    :meth:`from_arrays`; both run the same checks.  The tuple of pairs
    ``intervals`` is derived from the arrays when first asked for.  Equality,
    hash and repr are those of the fields ``(n, intervals, seed, max_len)``.
    """

    def __init__(self, n: int, intervals, seed: int | None = None, max_len: int | None = None):
        # A float endpoint gives a float array and is rejected, not truncated.
        ends = np.array(intervals if len(intervals) else np.empty((0, 2), np.int64))
        if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
            raise ValueError(f"intervals must be integer pairs, got {ends.dtype} of shape {ends.shape}")
        self._store(n, ends[:, 0], ends[:, 1], seed, max_len)

    @classmethod
    def from_arrays(cls, n: int, alphas, betas, seed: int | None = None,
                    max_len: int | None = None) -> IntervalSet:
        """The intervals ``(alphas[m], betas[m])``, from two integer arrays of one length."""
        alphas, betas = np.asarray(alphas), np.asarray(betas)
        integer = alphas.dtype.kind in "iu" and betas.dtype.kind in "iu"
        if not integer or alphas.ndim != 1 or alphas.shape != betas.shape:
            raise ValueError(f"alphas and betas must be integer arrays of one length, got "
                             f"{alphas.dtype} {alphas.shape} and {betas.dtype} {betas.shape}")
        ivals = cls.__new__(cls)
        ivals._store(n, alphas, betas, seed, max_len)
        return ivals

    def _store(self, n, alphas: np.ndarray, betas: np.ndarray, seed, max_len) -> None:
        n = check_integer(n, 2, None, "n must be an integer >= 2, got %r", n)
        # Copies that this set owns; an endpoint of 2**63 or more wraps
        # negative and fails the range check below.
        alphas, betas = alphas.astype(np.int64), betas.astype(np.int64)
        cap = n if max_len is None else max_len
        for bad, why in (((alphas < 0) | (alphas >= betas) | (betas > n), f"not within [0, {n}]"),
                         (betas - alphas > cap, f"longer than max_len = {max_len}")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"interval ({alphas[i]}, {betas[i]}) {why}")
        alphas.flags.writeable = betas.flags.writeable = False
        self.__dict__.update(n=n, alphas=alphas, betas=betas, seed=seed, max_len=max_len)

    @functools.cached_property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """The pairs ``((alpha_m, beta_m), ...)`` as Python ints, derived once from the arrays."""
        return tuple(zip(self.alphas.tolist(), self.betas.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.seed, self.max_len) == (other.n, other.seed, other.max_len) and (
            np.array_equal(self.alphas, other.alphas) and np.array_equal(self.betas, other.betas))

    def __hash__(self):
        return hash((self.n, self.intervals, self.seed, self.max_len))

    def __repr__(self):
        return (f"{type(self).__qualname__}(n={self.n!r}, intervals={self.intervals!r}, "
                f"seed={self.seed!r}, max_len={self.max_len!r})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_arrays, (self.n, self.alphas, self.betas, self.seed, self.max_len)


@dataclass(frozen=True)
class Detection:
    """Diagnostics for one detected change point: the winning clipped
    interval, the split, and the score that cleared the threshold."""

    s: int
    e: int
    b: int
    a: float


@dataclass(frozen=True)
class DetectionResult:
    """Change points, method, the ``tau`` used (the one asked for or the
    scan's rounding floor, whichever is larger) and per-point diagnostics."""

    change_points: tuple[int, ...]
    method: str
    tau: float
    per_cp_diagnostics: tuple[Detection, ...]

    def __post_init__(self):
        cps = self.change_points
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError(f"change points must be strictly increasing, got {cps}")


def sample_intervals(n: int, m: int, seed: int, max_len: int | None = None) -> IntervalSet:
    """Draw ``m`` interval endpoints uniformly on {0, ..., n}, conditioned on
    length >= 2 (and <= max_len when given), by rejection.

    The result is the first ``m`` admissible pairs of the generator's stream
    of endpoint pairs, so it is deterministic in ``seed``.  That stream does
    not depend on how many pairs each draw asks for, so the draws are sized
    freely: the first asks for ``4 m`` pairs (at least 64), and it and every
    later draw for at most ``2 PASS_POINTS``, which bounds the memory of a
    call whose ``max_len`` is tiny against ``n``.

    A pair is admissible when ``b - a - 2``, read as an unsigned integer, is
    at most ``max_len - 2``: one comparison, which a length below 2 fails by
    wrapping around.  The kept ends stay ``int64`` arrays and become the
    set's ``alphas`` and ``betas`` through :meth:`IntervalSet.from_arrays`.
    """
    n = check_integer(n, 2, None, "n must be an integer >= 2, got %r", n)
    m = check_integer(m, 1, None, "m must be a positive integer, got %r", m)
    if max_len is not None and max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len!r}")
    # Every drawn length b - a is at most n, so a max_len above n admits as n does.
    cap = n if max_len is None else min(max_len, n)
    seed = check_seed(seed)
    rng = generator(seed)
    alphas: list[np.ndarray] = []
    betas: list[np.ndarray] = []
    got, chunk = 0, min(max(64, 4 * m), 2 * PASS_POINTS)
    while got < m:
        pairs = rng.integers(0, n + 1, size=(chunk, 2))
        a, b = pairs[:, 0], pairs[:, 1]
        # 2 <= b - a <= cap as one unsigned test: a length below 2 makes
        # b - a - 2 negative, which wraps above any cap.
        excess = b - a
        excess -= 2
        kept = np.flatnonzero(excess.view(np.uint64) <= cap - 2)[: m - got]
        alphas.append(a[kept])
        betas.append(b[kept])
        got += kept.size
        chunk = 2 * PASS_POINTS
    return IntervalSet.from_arrays(n, np.concatenate(alphas), np.concatenate(betas),
                                   seed=seed, max_len=max_len)


def _detect(y: np.ndarray, ivals: IntervalSet, tau: float, method: str) -> DetectionResult:
    """The recursion of both detectors, on checked observations of length
    ``ivals.n``.  Rejects a ``tau`` that is not positive and finite, and,
    through :func:`scan_prefix`, a ``y`` whose sums could overflow."""
    prefix = scan_prefix(y)
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    # A scan value combines two prefix-sum differences with weights <= 1,
    # each within about one ulp of the largest prefix sum's magnitude.
    tau = max(tau, 4 * 2.0**-52 * max(prefix.max(), -prefix.min()))
    alphas, betas = ivals.alphas, ivals.betas
    # Per interval id: the clip (lo, hi) scored last, its first best split
    # and its score.  lo = -1 marks an interval never scored.
    cached_lo = np.full(alphas.size, -1, dtype=np.int64)
    cached_hi = np.zeros(alphas.size, dtype=np.int64)
    split = np.zeros(alphas.size, dtype=np.int64)
    score = np.zeros(alphas.size, dtype=np.float64)
    found: list[Detection] = []
    stack = [(0, y.size)]
    while stack:
        s, e = stack.pop()
        lo = np.maximum(alphas, s)
        hi = np.minimum(betas, e)
        live = np.flatnonzero(hi - lo > 1)
        if live.size == 0:
            continue
        lo, hi = lo[live], hi[live]
        stale = (lo != cached_lo[live]) | (hi != cached_hi[live])
        ids, slo, shi = live[stale], lo[stale], hi[stale]
        counts = shi - slo - 1
        ends = counts.cumsum()
        first = done = 0
        while first < ids.size:
            # Windows first..last-1 hold at most PASS_POINTS splits, or are one window.
            last = max(first + 1, int(ends.searchsorted(done + PASS_POINTS, side="right")))
            if last - first == 1:
                # perfbench traces the one-window kernel entry by this name.
                values = _scan_values(prefix, int(slo[first]), int(shi[first]))
            else:
                values = scan_windows(prefix, slo[first:last], shi[first:last])
            np.abs(values, out=values)
            starts = ends[first:last] - counts[first:last] - done
            top = np.maximum.reduceat(values, starts)
            # The first position at or after each window's start that
            # reaches its maximum lies inside that window; one window
            # compares against its maximum as is.
            maxima = top if last - first == 1 else top.repeat(counts[first:last])
            hits = (values == maxima).nonzero()[0]
            k = hits[hits.searchsorted(starts)] - starts
            split[ids[first:last]] = slo[first:last] + 1 + k
            score[ids[first:last]] = top
            first, done = last, int(ends[last - 1])
        cached_lo[ids], cached_hi[ids] = slo, shi
        # The first interval, in id order, reaching the node's best score.
        w = int(np.argmax(score[live]))
        best = live[w]
        if score[best] > tau:
            b = int(split[best])
            found.append(Detection(s=int(lo[w]), e=int(hi[w]), b=b, a=float(score[best])))
            stack.append((b, e))
            stack.append((s, b))
    found.sort(key=lambda d: d.b)
    return DetectionResult(tuple(d.b for d in found), method, float(tau), tuple(found))


def wbs_detect(y: np.ndarray, intervals: IntervalSet, tau: float) -> DetectionResult:
    """Wild binary segmentation of ``y``, of length ``intervals.n``, with threshold
    ``tau``, or the scan's rounding floor if that is larger."""
    return _detect(check_observations(y, intervals.n), intervals, tau, method="wbs")


def bs_detect(y: np.ndarray, tau: float) -> DetectionResult:
    """Plain binary segmentation: :func:`wbs_detect` over the one interval (0, n)."""
    y = check_observations(y, least=2)
    return _detect(y, IntervalSet(y.size, ((0, y.size),)), tau, method="bs")


DEFAULT_C_TAU = 1.5


def default_tau(sigma: float, n, c_tau: float | None = None) -> float:
    """Threshold scale c * sigma * sqrt(log(n)), with c = ``DEFAULT_C_TAU`` when ``c_tau`` is None.

    A product that underflows to 0 or overflows raises ``ValueError``."""
    c_tau = DEFAULT_C_TAU if c_tau is None else c_tau
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not c_tau > 0:
        raise ValueError(f"c_tau must be positive, got {c_tau!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    tau = c_tau * sigma * math.sqrt(math.log(n))
    if not 0 < tau < math.inf:
        raise ValueError(f"the default threshold is {tau!r} for sigma = {sigma!r}, "
                         f"c_tau = {c_tau!r} and n = {n!r}; pass tau explicitly")
    return tau


def min_intervals(n: int, delta: int) -> int:
    """Number of random intervals that makes every change point straddled
    with high probability: ceil(16 (n/delta)^2 log(max(n/delta, e)))."""
    n = check_integer(n, 1, None, "n must be a positive integer, got %r", n)
    delta = check_integer(delta, 1, n, "delta must lie in [1, %s], got %r", n, delta)
    ratio = n / delta
    return math.ceil(16.0 * ratio * ratio * math.log(max(ratio, math.e)))
