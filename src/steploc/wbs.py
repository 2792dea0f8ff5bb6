"""Wild binary segmentation over randomly sampled intervals.

Each working window (s, e] is intersected with every candidate interval;
the best split of each clipped interval is scored by the absolute scan
statistic, and intervals clipped to length <= 1 are dropped.  If the
winning score exceeds the threshold ``tau`` the winning split ``b`` is
recorded and the procedure continues on the children (s, b] and (b, e],
which partition the working window: the child (b, e] starts at position
``b + 1``, so a change point right after ``b`` stays reachable.  Plain
binary segmentation is the special case of a single candidate interval
(0, n) reused at every level.

The windows still to search are kept on an explicit stack.  At each of
them the clipped intervals are scored together by the ragged kernel
:func:`steploc.cusum.scan_windows`, in passes of at most ``PASS_POINTS``
splits (a pass always takes at least one interval, so a single long
interval is one pass), which bounds the temporaries of a node with many
long intervals.  A pass of one interval, which is every pass of plain
binary segmentation, goes through the kernel's one-window form
``_scan_values``.

Ties are always broken toward the smallest index (both the split inside a
scan and the winning interval), so results are deterministic even when the
noise distribution produces tied sample means.  The kernel lays the
values out interval after interval, each in ascending split order, so the
first maximum of ``|values|`` over that layout lies in the first interval
reaching the maximum, at its first maximising split; passes are taken in
order and a later pass replaces the winner only with a strictly greater
score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from steploc.cusum import _scan_values, scan_prefix, scan_windows
from steploc.noise import generator

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

# Split positions scored per numpy pass at one recursion node: bounds the
# temporaries of a node with many long clipped intervals.
PASS_POINTS = 4096


@dataclass(frozen=True)
class IntervalSet:
    """Candidate intervals (alpha_m, beta_m) within [0, n]."""

    n: int
    intervals: tuple[tuple[int, int], ...]
    seed: int | None = None
    max_len: int | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        for a, b in self.intervals:
            if not 0 <= a < b <= self.n:
                raise ValueError(f"interval ({a}, {b}) not within [0, {self.n}]")
            if self.max_len is not None and b - a > self.max_len:
                raise ValueError(f"interval ({a}, {b}) longer than max_len = {self.max_len}")


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

    Deterministic in ``seed``: proposals are consumed in a fixed order, so
    the same arguments always return the same set.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if max_len is not None and max_len < 2:
        raise ValueError(f"max_len must be at least 2, got {max_len!r}")
    cap = n if max_len is None else max_len
    rng = generator(seed)
    blocks: list[np.ndarray] = []
    got = 0
    while got < m:
        chunk = max(64, 2 * (m - got))
        pairs = rng.integers(0, n + 1, size=(chunk, 2))
        gaps = pairs[:, 1] - pairs[:, 0]
        kept = pairs[(gaps >= 2) & (gaps <= cap)][: m - got]
        blocks.append(kept)
        got += len(kept)
    pairs = np.concatenate(blocks)
    intervals = tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))
    return IntervalSet(n=n, intervals=intervals, seed=seed, max_len=max_len)


def _detect(y: np.ndarray, intervals: tuple[tuple[int, int], ...], tau: float, method: str) -> DetectionResult:
    prefix = scan_prefix(y)
    alphas = np.array([a for a, _ in intervals], dtype=np.int64)
    betas = np.array([b for _, b in intervals], dtype=np.int64)
    found: list[Detection] = []
    stack = [(0, y.size)]
    while stack:
        s, e = stack.pop()
        lo = np.maximum(alphas, s)
        hi = np.minimum(betas, e)
        live = hi - lo > 1
        lo, hi = lo[live], hi[live]
        ends = np.cumsum(hi - lo - 1)
        best = None
        first = done = 0
        while first < lo.size:
            # Windows first..last-1 hold at most PASS_POINTS splits, or are one window.
            last = max(first + 1, int(np.searchsorted(ends, done + PASS_POINTS, side="right")))
            if last - first == 1:
                # Every bs node, an interval over the budget, or a node's last
                # interval alone; perfbench traces the one-window scan by this name.
                values = _scan_values(prefix, int(lo[first]), int(hi[first]))
            else:
                values = scan_windows(prefix, lo[first:last], hi[first:last])
            k = int(np.argmax(np.abs(values)))
            score = abs(float(values[k]))
            # Only a strictly greater score from a later pass wins.
            if best is None or score > best.a:
                m = int(np.searchsorted(ends, done + k, side="right"))
                # Interval m's values end at flat position ends[m], at split hi[m] - 1.
                b = int(hi[m] - ends[m]) + done + k
                best = Detection(s=int(lo[m]), e=int(hi[m]), b=b, a=score)
            first, done = last, int(ends[last - 1])
        if best is not None and best.a > tau:
            found.append(best)
            stack.append((best.b, e))
            stack.append((s, best.b))
    found.sort(key=lambda d: d.b)
    return DetectionResult(
        change_points=tuple(d.b for d in found),
        method=method,
        tau=float(tau),
        per_cp_diagnostics=tuple(found),
    )


def wbs_detect(y: np.ndarray, intervals: IntervalSet, tau: float) -> DetectionResult:
    """Run the randomized-interval recursion on ``y`` with threshold ``tau``."""
    y = np.asarray(y, dtype=np.float64)
    if intervals.n != y.size:
        raise ValueError(f"interval set is over n = {intervals.n}, data has length {y.size}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    return _detect(y, intervals.intervals, tau, method="wbs")


def bs_detect(y: np.ndarray, tau: float) -> DetectionResult:
    """Plain binary segmentation: the single interval (0, n) at every level."""
    y = np.asarray(y, dtype=np.float64)
    if y.size < 2:
        raise ValueError(f"need at least 2 observations, got {y.size}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    return _detect(y, ((0, int(y.size)),), tau, method="bs")


DEFAULT_C_TAU = 1.5


def default_tau(sigma: float, n, c_tau: float = DEFAULT_C_TAU) -> float:
    """Threshold scale c * sigma * sqrt(log(n)), with c = ``DEFAULT_C_TAU`` by default."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not c_tau > 0:
        raise ValueError(f"c_tau must be positive, got {c_tau!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    return c_tau * sigma * math.sqrt(math.log(n))


def min_intervals(n: int, delta: int) -> int:
    """Number of random intervals that makes every change point straddled
    with high probability: ceil(16 (n/delta)^2 log(max(n/delta, e)))."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(delta, int) or not 1 <= delta <= n:
        raise ValueError(f"delta must lie in [1, {n}], got {delta!r}")
    ratio = n / delta
    return math.ceil(16.0 * ratio * ratio * math.log(max(ratio, math.e)))
