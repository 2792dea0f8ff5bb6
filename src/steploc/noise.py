"""Seeded generation of sub-Gaussian observations around a mean signal.

All randomness flows through 64-bit seeds fed to a counter-based Philox
generator.  Sub-streams (one per Monte Carlo replication, one per purpose)
are derived with :func:`subseed`, so results never depend on call order or
thread scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from steploc.cusum import INTEGER_TYPES
from steploc.signal import PiecewiseSignal, evaluate

__all__ = ["NoiseSpec", "FAMILIES", "check_sigma", "check_seed", "subseed", "generator", "sample"]

FAMILIES = ("gaussian", "uniform", "rademacher")

_SEED_MAX = 2**64


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus scale.

    All three families are calibrated to variance ``sigma**2`` so that
    experiments compare them at equal noise power: gaussian is
    N(0, sigma^2), uniform is U(-sigma*sqrt(3), sigma*sqrt(3)) and
    rademacher is +/- sigma with equal probability.
    """

    family: str
    sigma: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}, expected one of {FAMILIES}")
        check_sigma(self.sigma)


def check_sigma(sigma: float) -> None:
    """Raise ``ValueError`` unless the noise scale ``sigma`` is finite and >= 0."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")


def check_seed(seed: int) -> int:
    """A 64-bit unsigned seed, Python or numpy, as a Python ``int``."""
    if not isinstance(seed, INTEGER_TYPES):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    return int(seed)


def subseed(seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from a root seed and an index path.

    Hash-based (via ``numpy.random.SeedSequence``), so replication streams
    are independent of execution order.
    """
    check_seed(seed)
    state = np.random.SeedSequence((seed,) + tuple(int(p) for p in path))
    return int(state.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator for the given seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(check_seed(seed))))


def sample(sig: PiecewiseSignal, spec: NoiseSpec, seed: int) -> np.ndarray:
    """Draw one observation vector y = f + eps, deterministically in ``seed``.

    With ``sigma == 0`` the mean vector is returned exactly (no generator
    draw is consumed).  Observations that are not finite raise ``ValueError``.
    """
    f = evaluate(sig)
    if spec.sigma == 0:
        return f
    rng = generator(seed)
    if spec.family == "gaussian":
        eps = rng.normal(0.0, spec.sigma, size=sig.n)
    elif spec.family == "uniform":
        half = spec.sigma * math.sqrt(3.0)
        # numpy refuses a range 2 * half that overflows; the check below rejects it.
        eps = rng.uniform(-half, half, size=sig.n) if math.isfinite(2 * half) else math.inf
    else:  # rademacher
        eps = spec.sigma * (2.0 * rng.integers(0, 2, size=sig.n) - 1.0)
    with np.errstate(over="ignore"):
        y = f + eps
    if not np.isfinite(y).all():
        raise ValueError(f"noise too large: sigma = {spec.sigma!r} gives non-finite observations")
    return y
