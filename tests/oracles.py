"""Independent reference computations used to check the package.

Everything here is deliberately written with plain Python arithmetic (or
direct slice statistics), not with the package's prefix-sum internals, so
that a bug cannot hide on both sides of a comparison.  No detector calls
these references; the package scans through ``steploc.cusum`` and solves
through ``steploc.l0.solve_l0``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def sse_direct(values) -> float:
    """Sum of squared deviations from the mean, two-pass."""
    values = list(values)
    if not values:
        return 0.0
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def partition_objective(y, boundaries, lam: float) -> float:
    """Penalized objective of the partition given by sorted boundaries."""
    edges = [0, *boundaries, len(y)]
    total = math.fsum(sse_direct(y[a:b]) for a, b in zip(edges, edges[1:]))
    return total + lam * len(boundaries)


def segments(seg) -> list[tuple[int, int]]:
    """The segments of a ``steploc.l0.Segmentation`` as 1-indexed inclusive
    (start, stop) pairs, from its boundaries."""
    edges = (0, *seg.boundaries, seg.n)
    return [(a + 1, b) for a, b in zip(edges, edges[1:])]


def recompute_objective(y, seg, lam: float) -> float:
    """Direct evaluation of the objective for a ``steploc.l0.Segmentation``.

    Computed from slice means without prefix sums, so it stays an
    independent check on ``solve_l0``.
    """
    y = np.asarray(y, dtype=np.float64)
    if seg.n != y.size:
        raise ValueError(f"segmentation is over n = {seg.n}, data has length {y.size}")
    sse = 0.0
    for a, b in segments(seg):
        chunk = y[a - 1 : b]
        sse += float(np.sum((chunk - np.mean(chunk)) ** 2))
    return sse + lam * len(seg.boundaries)


def interval_pairs(ivals) -> tuple[tuple[int, int], ...]:
    """The intervals of a ``steploc.wbs.IntervalSet`` as a tuple of
    ``(alpha, beta)`` pairs of Python ints."""
    return tuple(zip(ivals.alphas.tolist(), ivals.betas.tolist()))


def brute_force_l0(y, lam: float) -> tuple[float, tuple[int, ...]]:
    """Exhaustive minimum of the penalized objective over all 2^(n-1)
    interval partitions.  Returns (objective, boundaries of one minimizer).
    """
    n = len(y)
    # SSE of every contiguous slice, filled by extending segments one point
    # at a time (Welford update), so no prefix sums are involved.
    sse = [[0.0] * (n + 1) for _ in range(n)]
    for i in range(n):
        mean = 0.0
        m2 = 0.0
        for j in range(i, n):
            count = j - i + 1
            d = y[j] - mean
            mean += d / count
            m2 += d * (y[j] - mean)
            sse[i][j + 1] = m2

    best = math.inf
    best_bounds: tuple[int, ...] = ()
    for mask in range(1 << (n - 1)):
        total = 0.0
        start = 0
        pieces = 0
        rest = mask
        pos = 1
        while rest:
            if rest & 1:
                total += sse[start][pos]
                start = pos
                pieces += 1
            rest >>= 1
            pos += 1
        total += sse[start][n] + lam * pieces
        if total < best:
            best = total
            bounds = []
            rest, pos = mask, 1
            while rest:
                if rest & 1:
                    bounds.append(pos)
                rest >>= 1
                pos += 1
            best_bounds = tuple(bounds)
    return best, best_bounds


def _exact_sse(y):
    """SSE of ``y[i:j]`` as an exact rational, ``sse(i, j)``: every float is a
    dyadic rational, so ``fractions.Fraction`` prefix sums lose nothing."""
    s1, s2 = [Fraction(0)], [Fraction(0)]
    for v in map(Fraction, np.asarray(y, dtype=np.float64).tolist()):
        s1.append(s1[-1] + v)
        s2.append(s2[-1] + v * v)
    return lambda i, j: s2[j] - s2[i] - (s1[j] - s1[i]) ** 2 / (j - i)


def exact_l0_minimum(y, lam: float) -> Fraction:
    """The exact minimum of the penalized objective: the O(n^2) recursion
    ``best[j] = min_i best[i] + SSE(i+1..j) + lam 1{i > 0}`` in rationals."""
    sse, lam = _exact_sse(y), Fraction(lam)
    best = [Fraction(0)]
    for j in range(1, len(y) + 1):
        best.append(min(best[i] + sse(i, j) + (lam if i else 0) for i in range(j)))
    return best[-1]


def exact_partition_objective(y, boundaries, lam: float) -> Fraction:
    """The exact penalized objective of the partition given by sorted boundaries."""
    sse, edges = _exact_sse(y), [0, *boundaries, len(y)]
    return sum(sse(a, b) for a, b in zip(edges, edges[1:])) + Fraction(lam) * len(boundaries)


def hausdorff_brute(e1, e2) -> float:
    d12 = max(min(abs(x - y) for y in e2) for x in e1)
    d21 = max(min(abs(x - y) for x in e1) for y in e2)
    return float(max(d12, d21))


def admissible_interval_mean_length(n: int, max_len: int | None = None) -> float:
    """Mean of beta - alpha over all pairs 0 <= alpha < beta <= n with
    2 <= beta - alpha <= max_len, each pair equally likely."""
    cap = n if max_len is None else min(max_len, n)
    total = 0
    weight = 0
    for gap in range(2, cap + 1):
        count = n + 1 - gap
        total += gap * count
        weight += count
    return total / weight


def cusum_direct(y, s: int, e: int, t: int) -> float:
    """Scan statistic from scratch with fsum, 1-indexed window (s, e]."""
    left = math.fsum(y[s:t])
    right = math.fsum(y[t:e])
    span = e - s
    return math.sqrt((e - t) / (span * (t - s))) * left - math.sqrt(
        (t - s) / (span * (e - t))
    ) * right


def _check_window(n: int, s: int, e: int) -> None:
    if not (isinstance(s, (int, np.integer)) and isinstance(e, (int, np.integer))):
        raise ValueError(f"window endpoints must be integers, got ({s!r}, {e!r})")
    if not 0 <= s < e <= n:
        raise ValueError(f"window ({s}, {e}] out of range for n = {n}")


def cusum(y, s: int, e: int, t: int) -> float:
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


def contrast(s: int, e: int, d: int) -> np.ndarray:
    """Unit-norm up/down contrast for window (s, e] split at d (length e - s)."""
    if not s < d < e:
        raise ValueError(f"split d = {d} must satisfy {s} < d < {e}")
    span = e - s
    out = np.empty(span, dtype=np.float64)
    out[: d - s] = math.sqrt((e - d) / (span * (d - s)))
    out[d - s :] = -math.sqrt((d - s) / (span * (e - d)))
    return out


def project(x, s: int, e: int, d: int) -> np.ndarray:
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


def single_cp_cusum(sig, s: int, e: int) -> float:
    """Closed-form |scan value| at the unique change point inside (s, e)
    of a ``steploc.signal.PiecewiseSignal``.

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
