import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_l0,
    exact_l0_minimum,
    exact_partition_objective,
    partition_objective,
    recompute_objective,
    sse_direct,
)
from steploc import l0
from steploc.l0 import (
    L0Result,
    Segmentation,
    default_lambda,
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


def _assert_matches_reference(y, lam):
    res = solve_l0(y, lam)
    assert (res.segmentation.boundaries, res.objective) == _reference_l0(y, lam)


@given(
    st.lists(st.integers(-3, 3), min_size=100, max_size=400),
    st.sampled_from([1.0, 0.5]),
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=40, deadline=None)
def test_blocks_keep_ties_across_many_blocks(ints, scale, lam):
    # Long tie-heavy series span several row blocks, so an in-block start
    # often ties the best old start and must lose to its smaller index.
    _assert_matches_reference(np.array(ints, dtype=np.float64) * scale, lam)


@pytest.mark.parametrize("seed", range(8))
def test_blocks_with_short_segments(seed):
    # A change point every 5-10 points and a tiny lam make in-block starts
    # win rows all through a block, so its first guesses are wrong.  The
    # levels are on a quarter grid, so old and in-block starts also tie.
    rng = np.random.default_rng(seed)
    n = 300
    lengths = rng.integers(5, 11, size=n // 5)
    means = np.repeat(rng.integers(-4, 5, size=lengths.size), lengths)[:n]
    y = np.round(means + rng.normal(size=n) * 0.3, 0) / 4
    for lam in (1e-3, 0.05, 0.25, 1.0):
        _assert_matches_reference(y, lam)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_lengths_around_the_block_row_cap(offset, blocks):
    n = blocks * l0.BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    y = rng.integers(-2, 3, size=n).astype(np.float64) / 2
    for lam in (0.1, 0.5, 1.5, 2 * math.log(n)):
        _assert_matches_reference(y, lam)


def test_blocks_of_one_and_two_rows(monkeypatch):
    # A point budget of three leaves blocks of two or three rows, and of
    # one row where a single row remains (n = 1, 41).  A huge lam prunes
    # nothing, so the live starts grow with the row; the moderate ones
    # prune and tie.
    monkeypatch.setattr(l0, "BLOCK_POINTS", 3)
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 40, 41):
        y = rng.integers(-3, 4, size=n).astype(np.float64)
        for lam in (0.5, 1.5, 1e9):
            _assert_matches_reference(y, lam)


@pytest.mark.parametrize("block_rows", range(2, 9))
@pytest.mark.parametrize(
    "y, boundaries",
    [([0, 0, 0, 2, 1, 0], ()), ([0, 2, 2, 2, 0, 1, 2], (1,))],
)
def test_blocks_keep_tied_start(monkeypatch, block_rows, y, boundaries):
    # The tied start of test_pruning_keeps_tied_start, with the block
    # boundary at every place: a start pruned at the end of its own block
    # on a tie would return (1, 4).
    monkeypatch.setattr(l0, "BLOCK_ROWS", block_rows)
    res = solve_l0(np.array(y, dtype=np.float64), 1.5)
    assert res.segmentation.boundaries == boundaries
    _assert_matches_reference(y, 1.5)


class _OuterSpy:
    """Stands in for np.subtract in solve_l0, which calls only its outer
    form, and records the width of each call."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.widths = []

    def outer(self, a, b, **kwargs):
        self.widths.append(np.shape(b)[-1])
        return self.ufunc.outer(a, b, **kwargs)


def test_pruning_keeps_blocks_narrow(monkeypatch):
    # Every point is its own segment here, so PELT keeps about one start
    # per block besides the block's own, and each block stays about
    # BLOCK_ROWS starts wide.  Without pruning it would widen to n.
    spy = _OuterSpy(np.subtract)
    monkeypatch.setattr(np, "subtract", spy)
    y = np.random.default_rng(11).normal(size=2000) * 10
    res = solve_l0(y, 0.01)
    assert len(res.segmentation.boundaries) > 1900
    assert spy.widths and max(spy.widths) <= l0.BLOCK_ROWS + 8


def _interval_corpus(rng, count):
    """Tied, quantized, offset and heavy-tailed series, lam from 1e-3 to 1e9."""
    for c in range(count):
        n = int(rng.integers(2, 500))
        kind = c % 4
        if kind == 0:
            y = rng.integers(-3, 4, size=n) * rng.choice([1.0, 0.5])
        elif kind == 3:
            y = rng.standard_t(2, size=n) * 10 ** rng.uniform(-3, 3)
        else:
            cps = np.sort(rng.integers(0, n, size=int(rng.integers(0, 12))))
            mean = np.zeros(n)
            for cp in cps:
                mean[cp:] += rng.normal() * 3
            y = np.round((mean + rng.normal(size=n)) * 4) / 4
            if kind == 2:
                y += rng.choice([1e3, -1e6, 1e6])
        yield y, float(10 ** rng.uniform(-3, 9))


@pytest.mark.parametrize("check_every", [1, 4])
@pytest.mark.parametrize("seed", range(6))
def test_interval_pruning_is_exact(monkeypatch, seed, check_every):
    # The mean intervals are checked in every block that has as many old
    # starts as rows, and block edges fall everywhere; boundaries and
    # objective bits must stay those of the unpruned recursion.
    monkeypatch.setattr(l0, "CHECK_CELLS", 0)
    monkeypatch.setattr(l0, "CHECK_EVERY", check_every)
    rng = np.random.default_rng(seed)
    for c, (y, lam) in enumerate(_interval_corpus(rng, 30)):
        rows, points = [(64, 2**15), (int(rng.integers(2, 70)), 2**15),
                        (int(rng.integers(2, 9)), int(rng.integers(1, 64)))][c % 3]
        monkeypatch.setattr(l0, "BLOCK_ROWS", rows)
        monkeypatch.setattr(l0, "BLOCK_POINTS", points)
        _assert_matches_reference(y, lam)


@pytest.mark.parametrize("seed", range(3))
def test_pruning_is_exact_under_a_large_offset(seed):
    # Around 1e7 the prefix sums round by more than a small lam, so a start
    # whose cost exceeds best + lam by less than that can still be the
    # minimizer at a later row.  Dropping such starts returned other
    # boundaries and objectives than the full recursion on these series.
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(20, 300))
        cps = np.sort(rng.integers(0, n, size=int(rng.integers(0, 30))))
        mean = np.zeros(n)
        for cp in cps:
            mean[cp:] += rng.normal() * 2
        y = np.round((mean + rng.normal(size=n)) * 4) / 4 + 1e7
        _assert_matches_reference(y, float(10 ** rng.uniform(-3, 0)))


def test_pruning_is_exact_on_a_constant_far_from_zero():
    # Every cost here is rounding error of about 1e286; dropping starts
    # whose rounded cost exceeded best + lam returned (64, 71).
    y = np.full(100, 1e150)
    assert solve_l0(y, 1.0).segmentation.boundaries == ()
    _assert_matches_reference(y, 1.0)


def test_interval_pruning_keeps_tied_start(monkeypatch):
    # The tied starts of test_pruning_keeps_tied_start, with the mean
    # intervals checked at every row of every block.
    monkeypatch.setattr(l0, "CHECK_CELLS", 0)
    monkeypatch.setattr(l0, "CHECK_EVERY", 1)
    for block_rows in range(2, 9):
        monkeypatch.setattr(l0, "BLOCK_ROWS", block_rows)
        for y, boundaries in [([0, 0, 0, 2, 1, 0], ()), ([0, 2, 2, 2, 0, 1, 2], (1,))]:
            assert solve_l0(np.array(y, dtype=np.float64), 1.5).segmentation.boundaries == boundaries
            _assert_matches_reference(y, 1.5)


def test_interval_pruning_keeps_blocks_narrow(monkeypatch):
    # Three change points in 4000 points: PELT keeps every start since the
    # last change point, so its blocks grow past 1000 starts.  The mean
    # intervals drop most starts inside a segment.
    spy = _OuterSpy(np.subtract)
    monkeypatch.setattr(np, "subtract", spy)
    rng = np.random.default_rng(0)
    y = np.repeat([0.0, 2.0, 0.0, 2.0], 1000) + rng.normal(size=4000)
    res = solve_l0(y, 2 * math.log(4000))
    assert res.segmentation.boundaries == (1000, 2000, 3000)
    assert spy.widths and max(spy.widths) <= 500


def test_rejects_observations_whose_squares_overflow():
    with pytest.raises(ValueError, match="sum of squares overflows"):
        solve_l0(np.array([0, 0, 0, 1e200, 1e200, 1e200]), 1.0)
    # Each square is finite here, but a squared segment sum is not.
    with pytest.raises(ValueError, match="sum of squares overflows"):
        solve_l0(np.full(100, 1.3e153), 1.0)


def test_fitted_matches_the_segment_loop():
    # Segments of 3 to 9 points, so that the means divide by lengths that
    # are not powers of two, and one long segment.
    rng = np.random.default_rng(17)
    lengths = rng.integers(3, 10, size=150)
    levels = np.repeat(rng.normal(size=150) * 10, lengths)
    y = np.concatenate([levels + rng.normal(size=levels.size) * 0.01, np.full(300, 0.1)])
    res = solve_l0(y, 0.01)
    assert len(res.segmentation.boundaries) > 140
    s1 = segment_prefix(y).s1
    loop = np.empty(y.size)
    for a, b in res.segmentation.segments():
        loop[a - 1 : b] = (s1[b] - s1[a - 1]) / (b - a + 1)
    assert res.fitted.tobytes() == loop.tobytes()


def test_deterministic():
    rng = np.random.default_rng(2)
    y = rng.normal(size=64)
    a = solve_l0(y, 3.0)
    b = solve_l0(y, 3.0)
    assert a.segmentation == b.segmentation
    assert a.objective == b.objective


def _dyadic_series():
    """Fifteen series whose values are multiples of 1/8, with lam = 2 log n
    rounded to 1/64: half-integers in -3..3, sparse unit bumps on zeros,
    and a 0/2/0/2 step plus noise rounded to 1/8."""
    for n in (60, 120, 200):
        lam = round(2 * math.log(n) * 64) / 64
        for seed in range(5):
            rng = np.random.default_rng(seed)
            kind = (n + seed) % 3
            if kind == 0:
                y = rng.integers(-6, 7, size=n) / 2
            elif kind == 1:
                y = (rng.random(n) < 0.05).astype(np.float64)
            else:
                y = np.repeat([0.0, 2.0, 0.0, 2.0], n // 4) + np.round(rng.normal(size=n) * 8) / 8
            yield y, lam


def test_exact_minimum_agrees_with_brute_force():
    rng = np.random.default_rng(5)
    y = rng.normal(size=9).tolist()
    best, bounds = brute_force_l0(y, 0.7)
    assert float(exact_l0_minimum(y, 0.7)) == pytest.approx(best, rel=1e-12)
    assert exact_partition_objective(y, bounds, 0.7) == exact_l0_minimum(y, 0.7)


def test_solve_reaches_the_exact_minimum():
    # Exact rationals, not a recursion over the same rounded prefix sums:
    # the exact objective of the returned partition is the exact minimum.
    for y, lam in _dyadic_series():
        boundaries = solve_l0(y, lam).segmentation.boundaries
        assert exact_partition_objective(y, boundaries, lam) == exact_l0_minimum(y, lam)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_solve_reaches_the_exact_minimum_far_from_zero():
    # The same series offset by 1e8, where the raw prefix sums lose the
    # within-segment variance to cancellation.
    for y, lam in _dyadic_series():
        y = y + 1e8
        boundaries = solve_l0(y, lam).segmentation.boundaries
        assert exact_partition_objective(y, boundaries, lam) == exact_l0_minimum(y, lam)


def test_oracle_helpers_agree():
    # the two independent test oracles agree with each other
    rng = np.random.default_rng(5)
    y = rng.normal(size=8).tolist()
    lam = 0.7
    best, bounds = brute_force_l0(y, lam)
    assert partition_objective(y, bounds, lam) == pytest.approx(best, rel=1e-12)
    assert sse_direct(y) == pytest.approx(float(np.sum((np.array(y) - np.mean(y)) ** 2)))


def test_default_lambda_checks_its_multiplier():
    with pytest.raises(ValueError, match=re.escape("c_lambda must be positive, got 0.0")):
        default_lambda(1.0, 100, 0.0)


@pytest.mark.parametrize("sigma, value", [(1e-200, "0.0"), (1e200, "inf")])
def test_default_lambda_rejects_a_penalty_that_underflows_or_overflows(sigma, value):
    message = (f"the default penalty is {value} for sigma = {sigma!r}, c_lambda = 2.0 "
               "and n = 100; pass lam explicitly")
    with pytest.raises(ValueError, match=re.escape(message)):
        default_lambda(sigma, 100)


@pytest.mark.parametrize("n, boundaries, message", [
    (0, (), "n must be a positive integer, got 0"),
    (5, (5,), "boundary 5 outside [1, 4]"),
    (5, (2.0,), "boundary 2.0 outside [1, 4]"),
    (5, (3, 2), "boundaries must be strictly increasing, got (3, 2)"),
], ids=["n", "range", "type", "order"])
def test_segmentation_checks_n_and_its_boundaries(n, boundaries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Segmentation(n, boundaries)
