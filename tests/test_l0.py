import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_l0, partition_objective, sse_direct
from steploc.l0 import (
    L0Result,
    Segmentation,
    default_lambda,
    recompute_objective,
    segment_cost,
    segment_prefix,
    solve_l0,
)


def test_segment_cost_examples():
    prefix = segment_prefix(np.array([1.0, 3.0]))
    assert segment_cost(prefix, 1, 1) == 0.0
    assert segment_cost(prefix, 1, 2) == pytest.approx(2.0)
    const = segment_prefix(np.full(10, 4.2))
    assert segment_cost(const, 3, 9) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        segment_cost(prefix, 0, 1)
    with pytest.raises(ValueError):
        segment_cost(prefix, 1, 3)


def test_solve_examples():
    y = np.array([0.0, 0.0, 10.0, 10.0])
    res = solve_l0(y, 1.0)
    assert res.segmentation.boundaries == (2,)
    assert res.objective == pytest.approx(1.0)
    assert res.fitted == pytest.approx([0, 0, 10, 10])

    res = solve_l0(y, 200.0)
    assert res.segmentation.boundaries == ()
    assert res.objective == pytest.approx(100.0)
    assert res.fitted == pytest.approx([5, 5, 5, 5])


def test_huge_penalty_never_splits():
    rng = np.random.default_rng(0)
    y = rng.normal(size=30) * 3
    lam = 30 * y.var() * 30 + 1
    assert solve_l0(y, lam).segmentation.boundaries == ()


def test_recompute_examples():
    y = np.array([0.0, 0.0, 10.0, 10.0])
    assert recompute_objective(np.full(5, 2.0), Segmentation(5, ()), 3.0) == pytest.approx(0.0)
    assert recompute_objective(y, Segmentation(4, (2,)), 1.0) == pytest.approx(1.0)
    assert recompute_objective(y, Segmentation(4, (1, 2, 3)), 1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        recompute_objective(y, Segmentation(5, (2,)), 1.0)


def test_default_lambda():
    assert default_lambda(1.0, math.e**2, 2.0) == pytest.approx(4.0)
    assert default_lambda(2.0, math.e, 2.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        default_lambda(1.0, 1)
    with pytest.raises(ValueError):
        default_lambda(0.0, 100)


def test_input_validation():
    with pytest.raises(ValueError):
        solve_l0(np.array([]), 1.0)
    with pytest.raises(ValueError):
        solve_l0(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        solve_l0(np.ones(4), -1.0)
    with pytest.raises(ValueError):
        solve_l0(np.array([1.0, np.nan]), 1.0)


def test_single_observation():
    res = solve_l0(np.array([7.0]), 0.5)
    assert res.segmentation.boundaries == ()
    assert res.objective == 0.0
    assert res.fitted == pytest.approx([7.0])


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    y = rng.normal(size=n)
    lam = float(10 ** rng.uniform(-2, 2))
    res = solve_l0(y, lam)
    best, bounds = brute_force_l0(y.tolist(), lam)
    assert res.objective == pytest.approx(best, rel=1e-8, abs=1e-12)
    assert res.segmentation.boundaries == bounds


def test_objective_matches_recompute():
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.normal(size=int(rng.integers(2, 200)))
        lam = float(10 ** rng.uniform(-1, 1.5))
        res = solve_l0(y, lam)
        direct = recompute_objective(y, res.segmentation, lam)
        assert res.objective == pytest.approx(direct, rel=1e-8)


def test_fitted_change_points_equal_boundaries():
    # The jump locations of the fitted vector are exactly the segmentation
    # boundaries, and the step-penalized objective of the fitted vector
    # equals the partition objective.
    rng = np.random.default_rng(8)
    for _ in range(20):
        y = rng.normal(size=100) + np.repeat([0, 3.0], 50)
        lam = float(10 ** rng.uniform(-1, 1.5))
        res = solve_l0(y, lam)
        induced = tuple(int(i) + 1 for i in np.nonzero(np.diff(res.fitted) != 0)[0])
        assert induced == res.segmentation.boundaries
        step_objective = float(np.sum((y - res.fitted) ** 2)) + res.lam * len(induced)
        assert step_objective == pytest.approx(res.objective, rel=1e-8)


def test_merging_identity():
    # SSE(I1 u I2) = SSE(I1) + SSE(I2) + |I1||I2|/(|I1|+|I2|) (mean1 - mean2)^2
    rng = np.random.default_rng(12)
    y = rng.normal(size=500) * 2 + 1
    prefix = segment_prefix(y)
    for _ in range(1000):
        i = int(rng.integers(1, 499))
        m = int(rng.integers(i, 500))
        j = int(rng.integers(m + 1, 501))
        left = segment_cost(prefix, i, m)
        right = segment_cost(prefix, m + 1, j)
        union = segment_cost(prefix, i, j)
        n1, n2 = m - i + 1, j - m
        glue = n1 * n2 / (n1 + n2) * (y[i - 1 : m].mean() - y[m:j].mean()) ** 2
        assert union == pytest.approx(left + right + glue, rel=1e-9, abs=1e-9)


def test_segment_count_monotone_in_lambda():
    rng = np.random.default_rng(21)
    y = rng.normal(size=150) + np.repeat([0, 4.0, 1.0], 50)
    counts = [
        solve_l0(y, lam).segmentation.segment_count
        for lam in [0.05, 0.2, 1.0, 5.0, 25.0, 125.0, 700.0]
    ]
    assert counts == sorted(counts, reverse=True)


def _reference_l0(y, lam):
    """The unpruned O(n^2) recursion: every start is a candidate at every
    row, smallest index first among equal costs."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    s1, s2 = segment_prefix(y)
    best = np.empty(n + 1, dtype=np.float64)
    best[0] = 0.0
    parent = np.zeros(n + 1, dtype=np.int64)
    starts = np.arange(n, dtype=np.int64)
    for j in range(1, n + 1):
        i = starts[:j]
        sse = (s2[j] - s2[i]) - (s1[j] - s1[i]) ** 2 / (j - i)
        np.maximum(sse, 0.0, out=sse)
        cost = best[:j] + sse
        cost[1:] += lam
        p = int(np.argmin(cost))
        best[j] = cost[p]
        parent[j] = p
    bounds = []
    j = n
    while j > 0:
        j = int(parent[j])
        if j > 0:
            bounds.append(j)
    return tuple(reversed(bounds)), float(best[n])


def test_pruning_is_exact():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 300))
        y = rng.normal(size=n) + np.repeat([0, 5.0], [n - n // 2, n // 2])
        lam = float(10 ** rng.uniform(-1, 2))
        res = solve_l0(y, lam)
        assert (res.segmentation.boundaries, res.objective) == _reference_l0(y, lam)


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    st.sampled_from([1.0, 0.5]),
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=300, deadline=None)
def test_pruning_keeps_ties(ints, scale, lam):
    # Small-integer and half-integer series tie often; a start whose cost
    # ties the pruning bound can still win the smallest-index tie-break.
    y = np.array(ints, dtype=np.float64) * scale
    res = solve_l0(y, lam)
    assert (res.segmentation.boundaries, res.objective) == _reference_l0(y, lam)
    if y.size <= 12:
        best, _ = brute_force_l0(y.tolist(), lam)
        assert res.objective == pytest.approx(best, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "y, boundaries",
    [([0, 0, 0, 2, 1, 0], ()), ([0, 2, 2, 2, 0, 1, 2], (1,))],
)
def test_pruning_keeps_tied_start(y, boundaries):
    # Dropping starts whose cost equals best[j] + lam returns (3,) and
    # (1, 4) here: equal objectives, but not the smallest-index minimizer.
    res = solve_l0(np.array(y, dtype=np.float64), 1.5)
    assert res.segmentation.boundaries == boundaries
    assert (res.segmentation.boundaries, res.objective) == _reference_l0(y, 1.5)


def test_deterministic():
    rng = np.random.default_rng(2)
    y = rng.normal(size=64)
    a = solve_l0(y, 3.0)
    b = solve_l0(y, 3.0)
    assert a.segmentation == b.segmentation
    assert a.objective == b.objective


def test_oracle_helpers_agree():
    # the two independent test oracles agree with each other
    rng = np.random.default_rng(5)
    y = rng.normal(size=8).tolist()
    lam = 0.7
    best, bounds = brute_force_l0(y, lam)
    assert partition_objective(y, bounds, lam) == pytest.approx(best, rel=1e-12)
    assert sse_direct(y) == pytest.approx(float(np.sum((np.array(y) - np.mean(y)) ** 2)))
