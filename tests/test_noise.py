import math

import numpy as np
import pytest

from steploc.noise import NoiseSpec, check_seed, generator, sample, subseed
from steploc.signal import evaluate, make_signal

CONST = make_signal(8, [], [0.0])


def test_zero_sigma_is_exact():
    sig = make_signal(10, [4], [1.5, -2.0])
    spec = NoiseSpec("gaussian", 0.0)
    y = sample(sig, spec, 99)
    assert np.array_equal(y, evaluate(sig))


@pytest.mark.parametrize("family", ["gaussian", "uniform", "rademacher"])
def test_determinism(family):
    sig = make_signal(50, [20], [0, 1])
    spec = NoiseSpec(family, 0.7)
    a = sample(sig, spec, 123456789)
    b = sample(sig, spec, 123456789)
    assert np.array_equal(a, b)
    c = sample(sig, spec, 123456790)
    assert not np.array_equal(a, c)


def test_invalid_spec():
    with pytest.raises(ValueError):
        NoiseSpec("cauchy", 1.0)
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", -0.1)


def test_seed_validation():
    check_seed(0)
    check_seed(2**64 - 1)
    for bad in (-1, 2**64, 1.5, "x"):
        with pytest.raises(ValueError):
            check_seed(bad)


def test_subseed_is_stable_and_distinct():
    assert subseed(7, 0, 0) == subseed(7, 0, 0)
    seen = {subseed(7, rep, stream) for rep in range(20) for stream in (0, 1)}
    assert len(seen) == 40


@pytest.mark.parametrize(
    "family,var",
    [("gaussian", 1.0), ("uniform", 1.0), ("rademacher", 1.0)],
)
def test_moments_large_sample(family, var):
    n = 100_000
    sig = make_signal(n, [], [0.0])
    y = sample(sig, NoiseSpec(family, 1.0), 2024)
    assert abs(y.mean()) <= 4 / math.sqrt(n)
    assert abs(y.var() - var) <= 0.05 * var


def test_rademacher_support():
    y = sample(CONST, NoiseSpec("rademacher", 2.5), 5)
    assert set(np.unique(y)) <= {-2.5, 2.5}


def test_uniform_support():
    y = sample(make_signal(10_000, [], [1.0]), NoiseSpec("uniform", 1.0), 5)
    half = math.sqrt(3.0)
    assert np.all(y >= 1.0 - half) and np.all(y <= 1.0 + half)


def test_mean_is_signal_across_replications():
    # E[Y] = f, empirically over many replications: 5 standard errors.
    sig = make_signal(8, [3], [0.0, 2.0])
    f = evaluate(sig)
    reps = 10_000
    for family in ("gaussian", "uniform", "rademacher"):
        spec = NoiseSpec(family, 1.0)
        acc = np.zeros(sig.n)
        for rep in range(reps):
            acc += sample(sig, spec, subseed(31, rep))
        dev = np.abs(acc / reps - f)
        assert np.all(dev <= 5 / math.sqrt(reps))


def test_generator_is_counter_based():
    # Philox: same seed, same stream, regardless of how much was drawn before.
    g1 = generator(42)
    g1.normal(size=1000)
    g2 = generator(42)
    a = generator(42).normal(size=5)
    b = g2.normal(size=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("family", ["gaussian", "uniform", "rademacher"])
def test_observations_that_overflow_are_rejected(family):
    # Gaussian draws at this scale overflow to inf, a uniform range of
    # 2 sqrt(3) 1e308 is refused by numpy, and level plus rademacher noise
    # overflows in the sum; none of them may warn (warnings are errors here).
    sig = make_signal(100, [50], [0.0, 1e308])
    with pytest.raises(ValueError, match="noise too large"):
        sample(sig, NoiseSpec(family, 1e308), 7)
