import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steploc.signal import (
    NoChangePointsError,
    PiecewiseSignal,
    evaluate,
    make_signal,
    min_jump,
    min_spacing,
    signal_to_json,
    snr,
    spike_signal,
    two_point_pair,
)


@st.composite
def signals(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max(0, min(6, n - 1))))
    cps = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k, max_size=k))) if k else []
    levels = [0.0]
    for _ in cps:
        levels.append(levels[-1] + draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])))
    return make_signal(n, cps, levels)


def test_single_step():
    sig = make_signal(6, [3], [0, 1])
    assert np.array_equal(evaluate(sig), [0, 0, 0, 1, 1, 1])


def test_constant_signal():
    sig = make_signal(4, [], [5])
    assert sig.k == 0
    assert np.array_equal(evaluate(sig), [5, 5, 5, 5])


def test_equal_adjacent_levels_rejected():
    with pytest.raises(ValueError, match="equal"):
        make_signal(4, [2], [1, 1])


@pytest.mark.parametrize(
    "n,cps,levels",
    [
        (4, [3, 2], [0, 1, 2]),  # not increasing
        (4, [4], [0, 1]),  # out of range
        (4, [0], [0, 1]),  # out of range
        (4, [2], [0, 1, 2]),  # level count mismatch
        (0, [], [1]),  # bad n
        (4.5, [2], [0, 1]),  # fractional n, not truncated
        (4, [2.0], [0, 1]),  # float change point, not truncated
        (4, [2], [0, math.inf]),  # non-finite level
    ],
)
def test_invalid_construction(n, cps, levels):
    with pytest.raises(ValueError):
        make_signal(n, cps, levels)


def test_evaluate_examples():
    assert np.array_equal(evaluate(make_signal(5, [2], [0, 3])), [0, 0, 3, 3, 3])
    assert np.array_equal(evaluate(make_signal(3, [], [-1])), [-1, -1, -1])
    assert np.array_equal(evaluate(make_signal(4, [1, 3], [0, 2, 0])), [0, 2, 2, 0])


def test_spacing_jump_snr():
    sig = make_signal(10, [4], [0, 2])
    assert min_spacing(sig) == 4
    assert min_jump(sig) == 2.0
    assert snr(sig, 1.0) == pytest.approx(4.0)

    sig2 = make_signal(9, [3, 6], [0, 1, 5])
    assert min_spacing(sig2) == 3
    assert min_jump(sig2) == 1.0
    assert snr(sig2, 2.0) == pytest.approx(math.sqrt(3) / 2)


def test_constant_signal_conventions():
    sig = make_signal(7, [], [0])
    assert min_spacing(sig) == 7
    with pytest.raises(NoChangePointsError):
        min_jump(sig)
    with pytest.raises(NoChangePointsError):
        snr(sig, 1.0)


def test_snr_requires_positive_sigma():
    with pytest.raises(ValueError):
        snr(make_signal(10, [4], [0, 2]), 0.0)


def test_spike_interior():
    sig = spike_signal(5, 3, 2)
    assert sig.change_points == (2, 3)
    assert np.array_equal(evaluate(sig), [0, 0, 2, 0, 0])
    assert min_spacing(sig) == 1
    assert min_jump(sig) == 2.0


def test_spike_boundaries():
    left = spike_signal(5, 1, 2)
    assert left.change_points == (1,)
    assert np.array_equal(evaluate(left), [2, 0, 0, 0, 0])
    right = spike_signal(8, 8, -1)
    assert right.change_points == (7,)
    assert np.array_equal(evaluate(right), [0] * 7 + [-1])


def test_spike_validation():
    with pytest.raises(ValueError):
        spike_signal(5, 0, 1)
    with pytest.raises(ValueError):
        spike_signal(5, 6, 1)
    with pytest.raises(ValueError):
        spike_signal(5, 2, 0.0)


def test_two_point_pair():
    a, b = two_point_pair(10, 3, 2, 1.0)
    assert a.change_points == (3,) and b.change_points == (5,)
    assert a.levels == b.levels == (0.0, 1.0)

    c, d = two_point_pair(8, 2, 3, 0.5)
    assert c.change_points == (2,) and d.change_points == (5,)

    with pytest.raises(ValueError):
        two_point_pair(6, 5, 1, 1.0)  # 5 + 1 > n - 1


def test_immutable():
    sig = make_signal(4, [2], [0, 1])
    with pytest.raises(AttributeError):
        sig.n = 5


def test_json_round_trip():
    sig = make_signal(9, [3, 6], [0.5, -1.25, 2.0])
    text = signal_to_json(sig)
    assert json.loads(text) == {"n": 9, "change_points": [3, 6], "levels": [0.5, -1.25, 2.0]}


@given(signals())
@settings(max_examples=200, deadline=None)
def test_evaluate_respects_segments(sig):
    f = evaluate(sig)
    assert f.shape == (sig.n,)
    edges = sig.boundaries()
    for level, (a, b) in zip(sig.levels, zip(edges, edges[1:])):
        assert np.all(f[a:b] == level)
    for cp in sig.change_points:
        assert f[cp - 1] != f[cp]


@given(signals())
@settings(max_examples=200, deadline=None)
def test_spacing_bound(sig):
    assert min_spacing(sig) * sig.k <= sig.n


@given(signals(), st.sampled_from([0.5, 2.0, 7.25]))
@settings(max_examples=100, deadline=None)
def test_snr_scale_covariant(sig, scale):
    if sig.k == 0:
        return
    scaled = make_signal(sig.n, sig.change_points, [v * scale for v in sig.levels])
    assert snr(scaled, scale) == pytest.approx(snr(sig, 1.0), rel=1e-12)


@pytest.mark.parametrize("build, message", [
    (lambda: PiecewiseSignal(4, (2.0,), (0.0, 1.0)), "change points must be integers, got 2.0"),
    (lambda: spike_signal(1, 1, 1.0), "n must be an integer >= 2, got 1"),
    (lambda: two_point_pair(10, 0, 1, 1.0), "delta_spacing must be a positive integer, got 0"),
    (lambda: two_point_pair(10, 3, 0, 1.0), "shift must be a positive integer, got 0"),
    (lambda: two_point_pair(10, 3, 2, 0.0), "kappa must be nonzero"),
], ids=["float-change-point", "spike-n", "pair-spacing", "pair-shift", "pair-kappa"])
def test_constructors_name_the_argument_they_reject(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
