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
kept, because it can still win the smallest-index tie-break.  Pruning only
shortens the rows, which pays when segments are short relative to n.

Within a long segment PELT keeps every start since its beginning.  Those
are pruned by their segment means, as FPOP does (Maidstone, Hocking,
Rigaill & Fearnhead 2017), used here only to decide which starts to drop.
As a function of the last segment's mean mu, start i costs

    f_i(mu) = cost_i(j) + (j - i) (mu - m_i)^2,   m_i = (s1[j] - s1[i]) / (j - i)

at row j, and each later row adds the same sum of (y_t - mu)^2 to every
start's function.  Start j enters at the constant best[j] + lam, so start
i can only beat it at means within

    r = sqrt((best[j] + lam - cost_i(j)) / (j - i))

of m_i, at row j and at every later row.  Each live start keeps the
intersection of these intervals over the rows checked so far.  When it is
empty, every mean, its own mean at a later row included, lies outside the
interval of some checked row j, where start j is strictly cheaper.  Its
cost, f_i at its own mean, is then strictly above start j's cost, so it is
never again a minimum, not even a tied one, and it is dropped.

Both rules hold exactly for the stored prefix sums, and each computed cost
is within about 20u X of its value there, with u = 2^-53 and X = n max(y^2)
+ lam.  So both compare against best + lam + 2^-44 X, five times the
margin that the argument needs, and two intervals must miss each other by
more than 2^-44 max|y| to count as disjoint: a start that ties or nearly
ties is kept.  Where the rounding of the prefix
sums exceeds lam (a small lam on series offset by 1e7) the margin keeps
more starts, and the result stays that of the full recursion.

The rows are solved a block at a time, so that each numpy call covers many
rows.  A block of rows lo..hi-1 has two kinds of candidate starts:

- *old* starts, the live starts below lo.  Their best is known, so one
  rows x starts pass scores all of them at every row of the block, each
  row taking its first minimum;
- *in-block* starts lo..hi-2, whose best is what the block computes.  They
  are scored from guesses of that best: the old-start minimum, lowered by
  the chain in which every point of the block is its own segment.  Each
  guess is the cost of an actual partition, summed in the recursion's
  order, so it is never below the exact best.  A pass rescores the rows
  after the last exact one from the current guesses and keeps the lower
  value.  The first row it lowers was scored from exact guesses only, so
  it is exact now; a pass that lowers nothing confirms every guess.  Only
  passes over the small in-block triangle repeat, never the old-start pass.

An in-block start wins a row only when it is strictly cheaper than the
best old start, whose index is smaller.  Then the PELT rule, ties kept, is
applied to every start at every row of the block.

The mean intervals are checked at every fourth row of a block
(``CHECK_EVERY``), ending with its last row, for old and in-block starts
alike, from the lengths, sums and costs the block leaves in its buffers.
A check costs about twenty numpy calls whatever its width, so it runs only
where it can save more: in blocks with at least as many old starts as
rows, whose starts times the rows still to come reach ``CHECK_CELLS``.

The result is exact.  At every row the candidates are among the starts of
the full recursion and include every start whose cost is the row minimum,
ties included.  Each cost is formed by the same IEEE operations in the same
order, ``(best[i] + sse) + lam`` with ``sse`` clamped at 0, and ties go to
the smallest index.  So the boundaries, the objective bits and ``fitted``
equal those of the unpruned O(n^2) loop.  ``BLOCK_ROWS`` and
``BLOCK_POINTS`` bound a block's rows and its rows x starts, and with them
the two work buffers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from steploc.cusum import INTEGER_TYPES, check_integer, check_observations, prefix_sums

__all__ = [
    "Segmentation",
    "L0Result",
    "SegmentPrefix",
    "segment_prefix",
    "segment_cost",
    "solve_l0",
    "default_lambda",
    "DEFAULT_C_LAMBDA",
]

# A block of the dynamic program has at most BLOCK_ROWS rows, and rows x
# live starts at most BLOCK_POINTS, but at least 2 rows (fewer only at n).
BLOCK_ROWS = 64
BLOCK_POINTS = 2**15
# The mean intervals are checked at every CHECK_EVERY-th row of a block,
# in blocks whose starts times the rows after them reach CHECK_CELLS.
CHECK_EVERY = 4
CHECK_CELLS = 2**15


@dataclass(frozen=True)
class Segmentation:
    """Interval partition of 1..n, stored as the right endpoints of all
    segments except the last (equivalently: the induced change points).
    ``n`` and the boundaries are stored as Python ints."""

    n: int
    boundaries: tuple[int, ...]

    def __post_init__(self):
        n = check_integer(self.n, 1, None, "n must be a positive integer, got %r", self.n)
        object.__setattr__(self, "n", n)
        for b in self.boundaries:
            if not isinstance(b, INTEGER_TYPES) or not 1 <= b <= n - 1:
                raise ValueError(f"boundary {b!r} outside [1, {n - 1}]")
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError(f"boundaries must be strictly increasing, got {self.boundaries}")
        # operator.index gives a Python int, at half the cost of int().
        object.__setattr__(self, "boundaries", tuple(map(operator.index, self.boundaries)))

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
    y : one-dimensional array of at least 1 finite observation, whose
        sum of squares times 2n is finite (``ValueError`` otherwise).
    lam : positive penalty per additional segment.

    Candidate starts are pruned without changing the result: ties are kept,
    so the returned partition is the smallest-index minimizer of the full
    recursion.
    """
    y = check_observations(y)
    n = y.size
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")

    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = segment_prefix(y)
    # A squared segment sum is at most n times the sum of squares.
    if not math.isfinite(2.0 * n * float(s2[-1])):
        raise ValueError("observations too large: their sum of squares overflows")
    best = np.empty(n + 1, dtype=np.float64)
    best[0] = 0.0
    parent = np.zeros(n + 1, dtype=np.int64)
    index = np.arange(n + 1, dtype=np.float64)

    # Live candidate starts, ascending, in cand[:size].  Every start but 0
    # pays lam; once start 0 is dropped, so does cand[0] (first = 0).
    cand = np.empty(n + 1, dtype=np.int64)
    cand[0] = 0
    size = 1
    first = 1
    cells = max(BLOCK_POINTS + BLOCK_ROWS * BLOCK_ROWS, 2 * (n + 2))
    sse_buf, dev_buf = np.empty(cells), np.empty(cells)
    # Each start's interval of minus its segment mean, and the rounding
    # margins of the pruning rules.
    mu_lo = np.full(n + 1, -np.inf)
    mu_hi = np.full(n + 1, np.inf)
    amax = float(np.max(np.abs(y)))
    lam_tol = lam + 2.0**-44 * (n * amax * amax + lam)
    mean_tol = 2.0**-44 * amax
    lo = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        while lo <= n:
            # Rows lo..hi-1 score the live starts and the in-block starts
            # lo..hi-2, which follow them in cand.
            hi = min(n + 1, lo + max(2, min(BLOCK_ROWS, BLOCK_POINTS // size)))
            rows = hi - lo
            cand[size : size + rows - 1] = np.arange(lo, hi - 1)
            starts = cand[: size + rows - 1]
            shape = (rows, starts.size)
            sse = sse_buf[: starts.size * rows].reshape(shape)
            dev = dev_buf[: starts.size * rows].reshape(shape)
            # sse holds the segment lengths until dev is divided by them.
            np.subtract.outer(index[lo:hi], index[starts], out=sse)
            np.subtract.outer(s1[lo:hi], s1[starts], out=dev)
            checking = size >= rows and starts.size * (n + 1 - hi) >= CHECK_CELLS
            if checking:
                # Minus the segment means at the check rows, and minus the
                # inverse lengths (-inf where start = row, > 0 above it).
                check = slice((rows - 1) % CHECK_EVERY, rows, CHECK_EVERY)
                ninv = -1.0 / sse[check]
                means = dev[check] * ninv
            np.square(dev, out=dev)
            invalid = sse[1:, size:] <= 0
            dev /= sse
            np.subtract.outer(s2[lo:hi], s2[starts], out=sse)
            sse -= dev
            np.maximum(sse, 0.0, out=sse)

            # In-block starts: row lo+1+c from start lo+a, for a <= c.
            tri = sse[1:, size:].copy()
            tri[invalid] = np.inf
            sse[:, size:] = np.inf

            # Old starts: their best is known, so one pass scores every row.
            sse[:, :size] += best[starts[:size]]
            sse[:, first:size] += lam
            arg = sse.argmin(axis=1)
            oldmin = sse[np.arange(rows), arg]

            cost = np.empty_like(tri)
            # The chain: from row r on, every point is its own segment.
            # Summed left to right as the recursion would, it is exact
            # wherever that is the optimum, as it is when lam is small.
            chain = np.empty(2 * rows - 1)
            chain[1::2] = tri.diagonal()
            chain[2::2] = lam
            # guess[r] is exact for r <= done.  Each pass rescores the rows
            # after done from the current guesses; the first row it lowers
            # was scored from exact guesses only, so done moves past it.  A
            # pass that lowers nothing leaves every guess exact.
            guess = oldmin.copy()
            done = 0
            while done < rows - 1:
                rest = guess[done + 1 :]
                chain[2 * done] = guess[done]
                np.minimum(rest, np.add.accumulate(chain[2 * done :])[2::2], out=rest)
                part = cost[done:]
                np.add(tri[done:], guess[:-1], out=part)
                part += lam
                low = part.min(axis=1)
                np.minimum(low, oldmin[done + 1 :], out=low)
                lowered = low < rest
                k = int(lowered.argmax())
                if not lowered[k]:
                    break
                np.minimum(rest, low, out=rest)
                done += 1 + k

            best[lo:hi] = guess
            # An in-block start wins a row only when strictly cheaper than
            # every old start, which has a smaller index.
            parent[lo:hi] = starts[arg]
            won = guess[1:] < oldmin[1:]
            if won.any():
                parent[lo + 1 : hi][won] = lo + cost.argmin(axis=1)[won]

            # PELT: keep the starts whose cost is within lam of best, plus
            # the margin, at every row of the block (ties kept).
            bound = guess + lam_tol
            keep = np.empty(starts.size, dtype=bool)
            np.all(sse[:, :size] <= bound[:, None], axis=0, out=keep[:size])
            np.all((cost <= bound[1:, None]) | invalid, axis=0, out=keep[size:])

            if checking:
                # Intersect each start's interval of minus its mean with
                # means -/+ radius.  Rows where the start is not yet a
                # candidate give an infinite radius or nan, which fmax and
                # fmin pass over; every start is a candidate at the last row.
                sse[1:, size:] = cost
                radius = sse[check] - bound[check, None]
                radius *= ninv
                np.sqrt(radius, out=radius)
                lo_s = mu_lo[starts]
                hi_s = mu_hi[starts]
                np.fmax(lo_s, np.fmax.reduce(means - radius), out=lo_s)
                np.fmin(hi_s, np.fmin.reduce(means + radius), out=hi_s)
                mu_lo[starts] = lo_s
                mu_hi[starts] = hi_s
                keep &= lo_s <= hi_s + mean_tol
            if first and not keep[0]:
                first = 0
            kept = starts[keep]
            size = kept.size
            cand[:size] = kept
            cand[size] = hi - 1
            size += 1
            lo = hi

    bounds = []
    j = n
    while j > 0:
        i = int(parent[j])
        if i > 0:
            bounds.append(i)
        j = i
    bounds.reverse()
    seg = Segmentation(n=n, boundaries=tuple(bounds))

    edges = np.array((0,) + seg.boundaries + (n,))
    lengths = np.diff(edges)
    fitted = np.repeat((s1[edges[1:]] - s1[edges[:-1]]) / lengths, lengths)

    return L0Result(segmentation=seg, objective=float(best[n]), fitted=fitted, lam=float(lam))


# The multiplier c of the default penalty; this value passes the acceptance suite.
DEFAULT_C_LAMBDA = 2.0


def default_lambda(sigma: float, n, c_lambda: float | None = None) -> float:
    """Penalty scale c * sigma^2 * log(n), with c = ``DEFAULT_C_LAMBDA`` when ``c_lambda`` is None.

    A product that underflows to 0 or overflows raises ``ValueError``."""
    c_lambda = DEFAULT_C_LAMBDA if c_lambda is None else c_lambda
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not c_lambda > 0:
        raise ValueError(f"c_lambda must be positive, got {c_lambda!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    lam = c_lambda * sigma * sigma * math.log(n)
    if not 0 < lam < math.inf:
        raise ValueError(f"the default penalty is {lam!r} for sigma = {sigma!r}, "
                         f"c_lambda = {c_lambda!r} and n = {n!r}; pass lam explicitly")
    return lam
