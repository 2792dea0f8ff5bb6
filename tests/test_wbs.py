import gc
import hashlib
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steploc.wbs
from oracles import admissible_interval_mean_length
from steploc.cusum import _scan_values, argmax_abs, cusum_scan, scan_prefix, scan_windows
from steploc.experiments import detect
from steploc.l0 import solve_l0
from steploc.metrics import estimate_sigma
from steploc.noise import NoiseSpec, generator, sample
from steploc.signal import evaluate, make_signal, min_spacing, spike_signal
from steploc.wbs import (
    PASS_POINTS,
    Detection,
    DetectionResult,
    IntervalSet,
    bs_detect,
    default_tau,
    min_intervals,
    sample_intervals,
    wbs_detect,
)


def test_sampling_tiny_n():
    ivals = sample_intervals(2, 3, 99)
    assert ivals.intervals == ((0, 2), (0, 2), (0, 2))


def test_sampling_deterministic():
    a = sample_intervals(100, 50, 7, max_len=20)
    b = sample_intervals(100, 50, 7, max_len=20)
    assert a == b


@pytest.mark.parametrize(
    "args, max_len, digest",
    [
        ((1024, 2048, 7), 16, "09af4bd1ce53c913df5857e3290f31a5f96ceb66a6a3de8b30c7cd3784c134c4"),
        ((2000, 355, 43), 1000, "970f8c51d0de83f3c3d4bbb5ddfa9691e7eff39cf013e2a010663856f898d9df"),
    ],
)
def test_sampling_stream_is_pinned(args, max_len, digest):
    # The acceptance configs and the benchmark digests depend on this exact stream.
    intervals = sample_intervals(*args, max_len=max_len).intervals
    assert hashlib.sha256(repr(intervals).encode()).hexdigest() == digest


def _fixed_chunk_sample(n, m, seed, max_len):
    """The rejection loop with the old chunk rule: twice the pairs still missing."""
    cap = n if max_len is None else max_len
    rng = generator(seed)
    blocks, got = [], 0
    while got < m:
        pairs = rng.integers(0, n + 1, size=(max(64, 2 * (m - got)), 2))
        gaps = pairs[:, 1] - pairs[:, 0]
        kept = pairs[(gaps >= 2) & (gaps <= cap)][: m - got]
        blocks.append(kept)
        got += len(kept)
    pairs = np.concatenate(blocks)
    return tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


@st.composite
def sampling_args(draw):
    """(n, m, max_len) with at least ~1 % of endpoint pairs admissible when
    n is large, so the old loop stays quick; small n reaches max_len = 2."""
    n = draw(st.one_of(st.integers(2, 300), st.integers(301, 2**40)))
    shortest = 2 if n <= 300 else n // 50
    max_len = draw(st.one_of(st.none(), st.integers(shortest, n)))
    m = draw(st.integers(1, 400))
    return n, m, max_len


@given(sampling_args(), st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_sampling_draw_sizes_do_not_change_the_intervals(args, seed):
    n, m, max_len = args
    assert sample_intervals(n, m, seed, max_len=max_len).intervals == _fixed_chunk_sample(n, m, seed, max_len)


@pytest.mark.parametrize("args, max_len, most", [((1024, 2048, 7), 16, 18), ((2000, 355, 43), 1000, 2)])
def test_sampling_draws_do_not_grow(monkeypatch, args, max_len, most):
    # The pinned streams above, drawn in no more generator calls than the
    # acceptance-rate sizing took.
    draws = []

    class Counting:
        def __init__(self, seed):
            self.rng = generator(seed)

        def integers(self, low, high, size):
            draws.append(size[0])
            return self.rng.integers(low, high, size=size)

    monkeypatch.setattr(steploc.wbs, "generator", Counting)
    sample_intervals(*args, max_len=max_len)
    assert len(draws) <= most
    assert max(draws) <= 2 * PASS_POINTS


def test_sampling_respects_constraints():
    ivals = sample_intervals(200, 500, 3, max_len=17)
    for a, b in ivals.intervals:
        assert 0 <= a < b <= 200
        assert 2 <= b - a <= 17


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_intervals(1, 5, 0)
    with pytest.raises(ValueError):
        sample_intervals(10, 0, 0)
    with pytest.raises(ValueError):
        sample_intervals(10, 5, 0, max_len=1)


def test_sampling_mean_length_matches_enumeration():
    ivals = sample_intervals(100, 10_000, 42, max_len=20)
    mean = np.mean([b - a for a, b in ivals.intervals])
    expected = admissible_interval_mean_length(100, 20)
    assert abs(mean - expected) <= 0.10 * expected


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet(10, ((0, 11),))
    with pytest.raises(ValueError):
        IntervalSet(10, ((5, 5),))
    with pytest.raises(ValueError):
        IntervalSet(10, ((0, 9),), max_len=5)


def test_constant_series_yields_nothing():
    y = np.full(40, 2.0)
    ivals = sample_intervals(40, 30, 11)
    assert wbs_detect(y, ivals, 0.5).change_points == ()
    assert bs_detect(y, 0.5).change_points == ()


def test_noiseless_single_step():
    y = evaluate(make_signal(6, [3], [0, 2]))
    res = wbs_detect(y, IntervalSet(6, ((0, 6),)), 1.0)
    assert res.change_points == (3,)
    d = res.per_cp_diagnostics[0]
    assert (d.s, d.e, d.b) == (0, 6, 3)
    assert d.a == pytest.approx(math.sqrt(1.5) * 2)


@pytest.mark.parametrize("tau", [1e-12, 1e-13])
@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_noiseless_steps_raise_tau_to_the_scan_rounding(method, tau):
    # Below four ulps of the largest centered prefix sum (about 1.7e-11
    # here) scan values are rounding error, and splitting on them reports
    # dozens of spurious change points.
    y = np.repeat([1, 7, 10 / 3, 29], 1000).astype(np.float64)
    floor = 4 * 2.0**-52 * float(np.abs(scan_prefix(y)).max())
    assert floor > tau
    if method == "wbs":
        res = wbs_detect(y, sample_intervals(4000, 200, 3), tau)
    else:
        res = bs_detect(y, tau)
    assert res.change_points == (1000, 2000, 3000)
    assert res.tau == floor


def test_threshold_above_max_yields_nothing():
    y = evaluate(make_signal(6, [3], [0, 2]))
    res = wbs_detect(y, IntervalSet(6, ((0, 6),)), 3.0)  # max score ~2.449
    assert res.change_points == ()


def test_bs_single_change_point_exact():
    y = evaluate(make_signal(120, [37], [0.0, 1.5]))
    assert bs_detect(y, 0.5).change_points == (37,)


def test_bs_root_detects_iff_threshold_cleared():
    y = evaluate(make_signal(60, [20], [0, 1])) + sample(
        make_signal(60, [], [0.0]), NoiseSpec("gaussian", 0.2), 3
    )
    root = float(np.max(np.abs(cusum_scan(y, 0, 60).values)))
    assert bs_detect(y, root * 1.001).change_points == ()
    assert len(bs_detect(y, root * 0.999).change_points) >= 1


def test_bs_cancellation_vs_wbs():
    # Symmetric up-down-up signal: the two jumps partially cancel in the
    # full-window scan (root peak sqrt(L/6) kappa), while an interval
    # straddling one change point scores sqrt(L/4) kappa.  A threshold in
    # between blinds plain binary segmentation but not the randomized scan.
    L = 100
    sig = make_signal(3 * L, [L, 2 * L], [1.0, 0.0, 1.0])
    y = evaluate(sig)
    root_peak = float(np.max(np.abs(cusum_scan(y, 0, 3 * L).values)))
    assert root_peak == pytest.approx(math.sqrt(L / 6), rel=1e-9)
    straddle = math.sqrt(L / 4)
    tau = (root_peak + straddle) / 2

    assert bs_detect(y, tau).change_points == ()
    straddlers = IntervalSet(3 * L, ((L // 2, 3 * L // 2), (3 * L // 2, 5 * L // 2), (0, 3 * L)))
    assert wbs_detect(y, straddlers, tau).change_points == (L, 2 * L)


def test_noiseless_exactness_with_straddling_intervals():
    rng = np.random.default_rng(14)
    for _ in range(25):
        delta = int(rng.integers(8, 30))
        k = int(rng.integers(1, 5))
        n = delta * (k + 1) + int(rng.integers(0, delta))
        cps = [delta * (i + 1) for i in range(k)]
        levels = [float(i % 2) * rng.choice([1.0, 2.5]) for i in range(k + 1)]
        if levels[0] == levels[1]:
            levels = [v + (i % 2) for i, v in enumerate(levels)]
        sig = make_signal(n, cps, levels)
        y = evaluate(sig)
        margin = delta // 4
        straddlers = tuple((cp - margin, cp + margin) for cp in cps) + ((0, n),)
        kappa = min(abs(b - a) for a, b in zip(sig.levels, sig.levels[1:]))
        tau = 0.9 * kappa * math.sqrt(delta) / 4
        res = wbs_detect(y, IntervalSet(n, straddlers), tau)
        assert res.change_points == tuple(cps)


@pytest.mark.parametrize("n, l", [(9, 5), (20, 11)])
def test_noiseless_spike_both_shoulders(n, l):
    # The left shoulder l - 1 wins the root; the right shoulder l is the
    # first position of the child window (l - 1, n] and must stay reachable.
    y = evaluate(spike_signal(n, l, 3.0))
    assert bs_detect(y, 0.5).change_points == (l - 1, l)
    res = wbs_detect(y, IntervalSet(n, ((0, n),)), 0.5)
    assert res.change_points == (l - 1, l)
    assert res.per_cp_diagnostics[0].b == l - 1


def test_short_clip_is_skipped():
    # Interval clipped to length <= 1 scores -1 and never wins.
    y = evaluate(make_signal(8, [4], [0, 3]))
    ivals = IntervalSet(8, ((6, 8), (0, 8)))
    res = wbs_detect(y, ivals, 1.0)
    assert res.change_points == (4,)


def test_detection_result_sorted_within_range():
    rng = np.random.default_rng(6)
    sig = make_signal(300, [100, 200], [0, 2.0, 0])
    y = evaluate(sig) + rng.normal(size=300)
    ivals = sample_intervals(300, 200, 17, max_len=150)
    res = wbs_detect(y, ivals, default_tau(1.0, 300))
    cps = res.change_points
    assert all(1 <= c <= 299 for c in cps)
    assert list(cps) == sorted(set(cps))


def test_wbs_deterministic():
    sig = make_signal(200, [70, 140], [0, 1.5, 0])
    y = evaluate(sig) + sample(make_signal(200, [], [0.0]), NoiseSpec("gaussian", 1.0), 8)
    ivals = sample_intervals(200, 150, 5, max_len=100)
    tau = default_tau(1.0, 200)
    assert wbs_detect(y, ivals, tau) == wbs_detect(y, ivals, tau)


def test_tau_validation():
    y = np.zeros(10)
    with pytest.raises(ValueError):
        wbs_detect(y, IntervalSet(10, ((0, 10),)), 0.0)
    with pytest.raises(ValueError):
        wbs_detect(y, IntervalSet(8, ((0, 8),)), 1.0)  # length mismatch
    with pytest.raises(ValueError):
        bs_detect(np.zeros(1), 1.0)


def test_default_tau():
    assert default_tau(1.0, math.e**4, 1.5) == pytest.approx(3.0)
    assert default_tau(2.0, math.e, 1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        default_tau(1.0, 1)
    with pytest.raises(ValueError):
        default_tau(0.0, 100)


def test_min_intervals():
    assert min_intervals(10, 10) == 16
    assert min_intervals(100, 10) == 3685
    with pytest.raises(ValueError):
        min_intervals(4, 8)
    with pytest.raises(ValueError):
        min_intervals(4, 0)


def test_detection_result_rejects_unsorted():
    with pytest.raises(ValueError):
        DetectionResult(change_points=(5, 3), method="wbs", tau=1.0, per_cp_diagnostics=())


def _reference_detect(y, intervals, tau, method):
    """The recursion scored one clipped interval at a time: the first best
    split inside each interval, then the first best interval."""
    found = []

    def recurse(s, e):
        best = None
        for a, b in intervals:
            lo, hi = max(a, s), min(b, e)
            if hi - lo > 1:
                split, score = argmax_abs(cusum_scan(y, lo, hi))
                if best is None or score > best.a:
                    best = Detection(s=lo, e=hi, b=split, a=score)
        if best is not None and best.a > tau:
            found.append(best)
            recurse(s, best.b)
            recurse(best.b, e)

    recurse(0, len(y))
    found.sort(key=lambda d: d.b)
    return DetectionResult(tuple(d.b for d in found), method, float(tau), tuple(found))


@st.composite
def tied_series(draw, min_n=2, max_n=60):
    """Small-integer or half-integer series, where scan values tie often."""
    n = draw(st.integers(min_n, max_n))
    scale = draw(st.sampled_from([1.0, 0.5]))
    ints = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return np.array(ints, dtype=np.float64) * scale


@given(tied_series(), st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
@settings(max_examples=150, deadline=None)
def test_detect_matches_per_interval_reference_on_tied_data(y, m, seed, tau):
    n = y.size
    ivals = sample_intervals(n, m, seed)
    assert wbs_detect(y, ivals, tau) == _reference_detect(y, ivals.intervals, tau, "wbs")
    assert bs_detect(y, tau) == _reference_detect(y, ((0, n),), tau, "bs")


@given(tied_series(min_n=380, max_n=420), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0]))
@settings(max_examples=8, deadline=None)
def test_detect_matches_reference_across_several_passes(y, seed, tau):
    # ~100 intervals of length ~n/2 give a root node of ~20k split points,
    # several scoring passes.
    n = y.size
    ivals = sample_intervals(n, 100, seed, max_len=n)
    assert sum(b - a - 1 for a, b in ivals.intervals) > 2 * PASS_POINTS
    assert wbs_detect(y, ivals, tau) == _reference_detect(y, ivals.intervals, tau, "wbs")


def test_tie_across_passes_goes_to_the_first_interval():
    # On a square wave of period 20 the mirrored windows (0, 15] and (5, 20]
    # both peak at split 10 with exactly the same score, and 25 full-width
    # windows between them (lower peak) push (5, 20] into a later pass.
    y = np.tile(np.r_[np.zeros(10), np.ones(10)], 20)
    ivals = IntervalSet(400, ((0, 15),) + ((0, 200),) * 25 + ((5, 20),))
    res = wbs_detect(y, ivals, 1.0)
    d = res.per_cp_diagnostics[0]
    assert (d.s, d.e, d.b) == (0, 15, 10)
    assert d.a == pytest.approx(math.sqrt(10 / 3))
    assert res == _reference_detect(y, ivals.intervals, 1.0, "wbs")


def _nested_and_duplicated(intervals, n):
    """The intervals twice (the second copy reversed), each one's left half,
    and (0, n): equal and nested clips at every node."""
    halves = tuple((a, a + max(1, (b - a) // 2)) for a, b in intervals)
    return intervals + intervals[::-1] + halves + ((0, n),)


@given(tied_series(min_n=4), st.integers(1, 20), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.25]))
@settings(max_examples=100, deadline=None)
def test_detect_matches_reference_with_duplicated_and_nested_intervals(y, m, seed, tau):
    # A small tau recurses deeply, so clips scored in one subtree come back
    # unchanged, or changed, in the sibling subtree.
    n = y.size
    intervals = _nested_and_duplicated(sample_intervals(n, m, seed).intervals, n)
    ivals = IntervalSet(n, intervals)
    assert wbs_detect(y, ivals, tau) == _reference_detect(y, intervals, tau, "wbs")


def _rescored_splits(y, intervals, tau):
    """Splits scored by the recursion, walked depth first with the left
    child first: when an interval is rescored only if its clip differs from
    the clip it had when it was last scored, and when every live clip is
    scored at every node."""
    last = {}
    rescored = every = 0

    def recurse(s, e):
        nonlocal rescored, every
        best = None
        for i, (a, b) in enumerate(intervals):
            lo, hi = max(a, s), min(b, e)
            if hi - lo > 1:
                every += hi - lo - 1
                if last.get(i) != (lo, hi):
                    rescored += hi - lo - 1
                    last[i] = (lo, hi)
                split, score = argmax_abs(cusum_scan(y, lo, hi))
                if best is None or score > best[1]:
                    best = (split, score)
        if best is not None and best[1] > tau:
            recurse(s, best[0])
            recurse(best[0], e)

    recurse(0, len(y))
    return rescored, every


@pytest.mark.parametrize("n, m, max_len, tau", [(300, 80, None, 1.0), (400, 200, 60, 0.5), (256, 512, 16, 2.0)])
def test_detect_rescores_only_changed_clips(monkeypatch, n, m, max_len, tau):
    sig = make_signal(n, [n // 4, n // 2, 3 * n // 4], [0, 2.0, -1.0, 1.0])
    y = evaluate(sig) + sample(make_signal(n, [], [0.0]), NoiseSpec("gaussian", 1.0), 21)
    ivals = sample_intervals(n, m, 3, max_len=max_len)
    scored = []

    def counting_windows(prefix, lo, hi):
        scored.append(int(np.sum(hi - lo - 1)))
        return scan_windows(prefix, lo, hi)

    def counting_values(prefix, s, e):
        scored.append(e - s - 1)
        return _scan_values(prefix, s, e)

    monkeypatch.setattr(steploc.wbs, "scan_windows", counting_windows)
    monkeypatch.setattr(steploc.wbs, "_scan_values", counting_values)
    res = wbs_detect(y, ivals, tau)
    assert len(res.change_points) >= 3
    rescored, every = _rescored_splits(y, ivals.intervals, tau)
    assert sum(scored) == rescored < every


@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_detect_leaves_no_reference_cycle(method):
    sig = make_signal(200, [60, 130], [0, 2.0, 0])
    y = evaluate(sig) + sample(make_signal(200, [], [0.0]), NoiseSpec("gaussian", 1.0), 4)
    ivals = sample_intervals(200, 120, 9, max_len=80)
    gc.collect()
    gc.disable()
    try:
        res = wbs_detect(y, ivals, 1.0) if method == "wbs" else bs_detect(y, 1.0)
        assert res.change_points
        assert gc.collect() == 0
    finally:
        gc.enable()


def _pinned_corpus():
    """wbs and bs results, taus 0.3, 1 and 2, over a fixed seeded corpus:
    tied half-integer series and Gaussian steps, with sampled intervals
    alone or duplicated and nested, and one root of more than
    2 * PASS_POINTS splits."""
    rng = np.random.default_rng(20181024)
    cases = []
    for case in range(48):
        n = int(rng.integers(2, 150))
        if case % 2:
            y = rng.integers(-3, 4, size=n) * 0.5
        else:
            cps = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
            y = np.repeat(rng.normal(scale=2.0, size=cps.size + 1), np.diff(np.r_[0, cps, n]))
            y = y + rng.normal(size=n)
        intervals = sample_intervals(n, int(rng.integers(1, 60)), int(rng.integers(2**32))).intervals
        if case % 4 >= 2:
            intervals = _nested_and_duplicated(intervals, n)
        cases.append((y, IntervalSet(n, intervals)))
    y = np.repeat([0.0, 1.5, -0.5, 1.0], [500, 400, 300, 400]) + rng.normal(size=1600)
    big = sample_intervals(1600, 40, 77)
    assert sum(b - a - 1 for a, b in big.intervals) > 2 * PASS_POINTS
    cases.append((y, big))
    return [
        (wbs_detect(y, ivals, tau), bs_detect(y, tau))
        for y, ivals in cases
        for tau in (0.3, 1.0, 2.0)
    ]


def test_detect_outputs_are_pinned():
    # Pins the exact splits, windows and score bits, so a change to the scan
    # kernel's rounding fails here even though it would move the
    # per-interval reference in step.
    digest = hashlib.sha256(repr(_pinned_corpus()).encode()).hexdigest()
    assert digest == "1e33c29ebb5fa3faae1a7ad2683328d1cebf3761f45e9af76f508e1960ff27ee"


def _step_with(bad):
    y = np.repeat([0.0, 3.0], 20)
    y[7] = bad
    return y


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_detect_rejects_non_finite_observations(method, bad):
    y = _step_with(bad)
    with pytest.raises(ValueError, match="observations must be finite"):
        if method == "wbs":
            wbs_detect(y, sample_intervals(40, 30, 2), 1.0)
        else:
            bs_detect(y, 1.0)


@pytest.mark.parametrize("y", [
    [1e308] * 50 + [-1e308] * 50,  # the mean overflows
    [1e308, -1e308, -1e308, 1e308],  # finite prefix sums, a window sum overflows
    [1.5e308, -1.5e308],  # finite window sums, the scan value overflows
])
@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_detect_rejects_observations_whose_partial_sums_overflow(method, y):
    y = np.array(y)
    with pytest.raises(ValueError, match="observations too large"):
        if method == "wbs":
            wbs_detect(y, IntervalSet(y.size, ((0, y.size), (0, 2))), 1.0)
        else:
            bs_detect(y, 1.0)


@pytest.mark.parametrize("tau", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_detect_rejects_tau_that_is_not_positive_and_finite(method, tau):
    y = _step_with(0.0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        if method == "wbs":
            wbs_detect(y, sample_intervals(40, 30, 2), tau)
        else:
            bs_detect(y, tau)


@pytest.mark.parametrize("method", ["wbs", "bs"])
def test_detect_rejects_observations_that_are_not_one_dimensional(method):
    y = _step_with(0.0).reshape(2, 20)
    with pytest.raises(ValueError, match=r"observations must have shape \(40,\), got \(2, 20\)"):
        if method == "wbs":
            wbs_detect(y, sample_intervals(40, 30, 2), 1.0)
        else:
            bs_detect(y, 1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda y: solve_l0(y, 1.0), id="solve_l0"),
    pytest.param(lambda y: detect(y, "l0", 1.0, spacing=2, seed=0), id="detect-l0"),
    pytest.param(lambda y: detect(y, "bs", 1.0, spacing=2, seed=0), id="detect-bs"),
    pytest.param(lambda y: detect(y, "wbs", 1.0, spacing=2, seed=0), id="detect-wbs"),
    pytest.param(estimate_sigma, id="estimate_sigma"),
    pytest.param(lambda y: cusum_scan(y, 0, 2), id="cusum_scan"),
])
@pytest.mark.parametrize("shape", [(), (4, 4), (2, 20), (3, 3, 1)])
def test_l0_and_the_scale_estimate_reject_observations_that_are_not_one_dimensional(call, shape):
    y = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"observations must have shape ({y.size},), got {shape}")):
        call(y)


@pytest.mark.parametrize("call, empty", [
    pytest.param(lambda y: solve_l0(y, 1.0), "need at least 1 observation, got 0", id="solve_l0"),
    pytest.param(estimate_sigma, "need at least 2 observations, got 0", id="estimate_sigma"),
    pytest.param(lambda y: bs_detect(y, 1.0), "need at least 2 observations, got 0", id="bs_detect"),
    # The interval set fixes the length, so an empty y has the wrong shape.
    pytest.param(lambda y: wbs_detect(y, sample_intervals(max(y.size, 2), 4, 0), 1.0),
                 "observations must have shape (2,), got (0,)", id="wbs_detect"),
    pytest.param(lambda y: detect(y, "l0", 1.0, spacing=1, seed=0),
                 "need at least 1 observation, got 0", id="detect-l0"),
    pytest.param(lambda y: detect(y, "bs", 1.0, spacing=1, seed=0),
                 "need at least 2 observations, got 0", id="detect-bs"),
    pytest.param(lambda y: detect(y, "wbs", 1.0, spacing=1, seed=0),
                 "need at least 2 observations, got 0", id="detect-wbs"),
    pytest.param(lambda y: cusum_scan(y, 0, max(y.size, 2)),
                 "need at least 2 observations, got 0", id="cusum_scan"),
])
@pytest.mark.parametrize("y", [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0, 3.0], []],
                         ids=["nan", "inf", "empty"])
def test_every_entry_point_gives_one_message_per_bad_input(call, empty, y):
    message = empty if len(y) == 0 else "observations must be finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(np.array(y))


@pytest.mark.parametrize("intervals", [((0.5, 10.0),), ((0, 10), (2, 7.0)), ((0, 10, 2),), (0, 10)])
def test_interval_set_rejects_endpoints_that_are_not_integer_pairs(intervals):
    with pytest.raises(ValueError):
        IntervalSet(10, intervals)


def test_interval_set_keeps_validated_endpoint_arrays():
    ivals = IntervalSet(10, ((np.int64(2), np.int64(9)), (0, 10)), seed=4)
    assert ivals.intervals == ((2, 9), (0, 10))
    assert ivals.alphas.tolist() == [2, 0] and ivals.betas.tolist() == [9, 10]
    assert ivals.alphas.dtype == ivals.betas.dtype == np.int64
    assert ivals == IntervalSet(10, ((2, 9), (0, 10)), seed=4)
    assert hash(ivals) == hash(IntervalSet(10, ((2, 9), (0, 10)), seed=4))
    assert repr(ivals) == f"IntervalSet(n=10, intervals={ivals.intervals!r}, seed=4, max_len=None)"
    empty = IntervalSet(10, ())
    assert empty.alphas.size == empty.betas.size == 0
    assert wbs_detect(np.arange(10.0), empty, 1.0).change_points == ()


def test_default_cli_wbs_stream_is_pinned():
    # The intervals of a default `steploc detect --method wbs` at n = 1e5:
    # min_intervals(100000, 10000) = 3685 and the CLI's default seed.
    intervals = sample_intervals(100_000, 3685, 1729).intervals
    assert hashlib.sha256(repr(intervals).encode()).hexdigest() == (
        "aa7ef89e83ee1ee193ea313da3b8570a911f8861758f954927d1db81d356c90e"
    )


@pytest.mark.parametrize("args, max_len", [((2, 3, 99), None), ((1024, 2048, 7), 16), ((2000, 355, 43), 10**6)])
def test_sampled_set_equals_the_set_of_its_pairs(args, max_len):
    s = sample_intervals(*args, max_len=max_len)
    pairs = IntervalSet(s.n, s.intervals, seed=s.seed, max_len=s.max_len)
    assert s == pairs and hash(s) == hash(pairs) and repr(s) == repr(pairs)
    assert s != IntervalSet(s.n, s.intervals[:-1], seed=s.seed, max_len=s.max_len)
    assert s.alphas.dtype == s.betas.dtype == np.int64


def test_interval_set_is_read_only():
    for ivals in (sample_intervals(40, 30, 2), IntervalSet(10, ((2, 9), (0, 10)))):
        before = (ivals.intervals, hash(ivals))
        for ends in (ivals.alphas, ivals.betas):
            with pytest.raises(ValueError, match="read-only"):
                ends[0] = 7
        with pytest.raises(AttributeError):
            ivals.alphas = np.zeros(ivals.alphas.size, dtype=np.int64)
        assert (ivals.intervals, hash(ivals)) == before


def test_interval_set_from_arrays_runs_the_pair_checks():
    alphas, betas = np.array([2, 0]), np.array([9, 10])
    ivals = IntervalSet.from_arrays(10, alphas, betas, seed=4)
    assert ivals == IntervalSet(10, ((2, 9), (0, 10)), seed=4)
    alphas[0] = 3  # the set keeps its own copy
    assert ivals.intervals == ((2, 9), (0, 10))
    assert IntervalSet.from_arrays(10, alphas[:0], betas[:0]).intervals == ()
    for a, b, max_len in [([0], [11], None), ([5], [5], None), ([-1], [4], None), ([0], [9], 5),
                          ([0.0], [9.0], None), ([0, 1], [9], None), ([[0]], [[9]], None),
                          (np.array([2**63], np.uint64), [4], None)]:
        with pytest.raises(ValueError):
            IntervalSet.from_arrays(10, a, b, max_len=max_len)


def test_interval_set_survives_pickling():
    s = sample_intervals(300, 200, 17, max_len=150)
    back = pickle.loads(pickle.dumps(s))
    assert back == s and repr(back) == repr(s)
    assert not back.alphas.flags.writeable and not back.betas.flags.writeable


def test_bs_holds_few_length_n_buffers():
    # The prefix sums and the root's scan values are length n; the scan's
    # temporaries are of one slice each, so a call stays below four arrays.
    n = 100_000
    y = np.repeat([0.0, 1.0, -0.5, 0.5], n // 4) + np.random.default_rng(6).normal(size=n)
    tracemalloc.start()
    try:
        res = bs_detect(y, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.change_points
    assert peak < 4 * n * 8


def test_default_tau_checks_its_multiplier():
    with pytest.raises(ValueError, match=re.escape("c_tau must be positive, got -1.0")):
        default_tau(1.0, 100, -1.0)


@pytest.mark.parametrize("sigma, c_tau, value", [(5e-324, 0.1, "0.0"), (1e308, 1.5, "inf")])
def test_default_tau_rejects_a_threshold_that_underflows_or_overflows(sigma, c_tau, value):
    message = (f"the default threshold is {value} for sigma = {sigma!r}, c_tau = {c_tau!r} "
               "and n = 100; pass tau explicitly")
    with pytest.raises(ValueError, match=re.escape(message)):
        default_tau(sigma, 100, c_tau)


def test_interval_set_checks_n_and_stays_frozen():
    with pytest.raises(ValueError, match=re.escape("n must be an integer >= 2, got 1")):
        IntervalSet(1, ())
    with pytest.raises(ValueError, match=re.escape("n must be a positive integer, got 0")):
        min_intervals(0, 1)
    ivals = IntervalSet(10, ((2, 9),))
    assert ivals.__eq__(((2, 9),)) is NotImplemented and ivals != ((2, 9),)
    with pytest.raises(AttributeError, match="cannot delete field 'seed'"):
        del ivals.seed
    assert ivals.seed is None
