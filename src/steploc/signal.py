"""Piecewise-constant mean signals and adversarial test constructions.

Index convention used throughout the package: positions are 1-based and a
change point ``eta`` is the *last* position of a segment, so the mean
differs between positions ``eta`` and ``eta + 1``.  The implicit boundaries
``eta_0 = 0`` and ``eta_{K+1} = n`` count toward the minimal spacing.
Observations are checked by ``steploc.cusum.check_observations``, not here.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from steploc.cusum import INTEGER_TYPES, check_integer

__all__ = [
    "PiecewiseSignal",
    "NoChangePointsError",
    "make_signal",
    "evaluate",
    "min_spacing",
    "min_jump",
    "snr",
    "spike_signal",
    "two_point_pair",
    "signal_to_json",
    "signal_from_json",
]


class NoChangePointsError(ValueError):
    """Raised by operations that require at least one change point."""


@dataclass(frozen=True)
class PiecewiseSignal:
    """Mean function on positions 1..n, constant between change points.

    ``change_points`` are strictly increasing integers in ``[1, n - 1]``;
    ``levels`` holds one value per segment (``K + 1`` in total) and adjacent
    levels must differ exactly.  ``n`` and the change points are stored as
    Python ints.  Instances are immutable and safe to share across threads.
    """

    n: int
    change_points: tuple[int, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        n = check_integer(self.n, 1, None, "n must be a positive integer, got %r", self.n)
        object.__setattr__(self, "n", n)
        cps = self.change_points
        for cp in cps:
            if not isinstance(cp, INTEGER_TYPES):
                raise ValueError(f"change points must be integers, got {cp!r}")
            if not 1 <= cp <= n - 1:
                raise ValueError(f"change point {cp} outside [1, {n - 1}]")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError(f"change points must be strictly increasing, got {cps}")
        if len(self.levels) != len(cps) + 1:
            raise ValueError(
                f"expected {len(cps) + 1} levels for {len(cps)} change points, "
                f"got {len(self.levels)}"
            )
        if not all(math.isfinite(v) for v in self.levels):
            raise ValueError(f"levels must be finite, got {self.levels}")
        for k, (a, b) in enumerate(zip(self.levels, self.levels[1:])):
            if a == b:
                raise ValueError(f"adjacent levels {k} and {k + 1} are equal ({a})")
        # operator.index gives a Python int, at half the cost of int().
        object.__setattr__(self, "change_points", tuple(map(operator.index, cps)))

    @property
    def k(self) -> int:
        """Number of change points."""
        return len(self.change_points)

    def boundaries(self) -> tuple[int, ...]:
        """All segment boundaries including the implicit 0 and n."""
        return (0,) + self.change_points + (self.n,)

    def jumps(self) -> tuple[float, ...]:
        """Absolute level difference at each change point, in order."""
        return tuple(abs(b - a) for a, b in zip(self.levels, self.levels[1:]))


def make_signal(n: int, change_points, levels) -> PiecewiseSignal:
    """Validate and build a :class:`PiecewiseSignal` from any sequences."""
    return PiecewiseSignal(n, tuple(change_points), tuple(float(v) for v in levels))


def evaluate(sig: PiecewiseSignal) -> np.ndarray:
    """Mean vector of length n: the level of the segment containing each position."""
    bounds = sig.boundaries()
    lengths = np.diff(bounds)
    return np.repeat(np.asarray(sig.levels, dtype=float), lengths)


def min_spacing(sig: PiecewiseSignal) -> int:
    """Smallest gap between consecutive boundaries (0 and n included)."""
    bounds = sig.boundaries()
    return int(min(b - a for a, b in zip(bounds, bounds[1:])))


def min_jump(sig: PiecewiseSignal) -> float:
    """Smallest absolute level change across the change points."""
    if sig.k == 0:
        raise NoChangePointsError("min_jump is undefined for a constant signal")
    return min(sig.jumps())


def snr(sig: PiecewiseSignal, sigma: float) -> float:
    """Signal-to-noise ratio min_jump * sqrt(min_spacing) / sigma."""
    if sig.k == 0:
        raise NoChangePointsError("snr is undefined for a constant signal")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return min_jump(sig) * math.sqrt(min_spacing(sig)) / sigma


def spike_signal(n: int, l: int, height: float) -> PiecewiseSignal:
    """Signal equal to ``height`` at position ``l`` and 0 elsewhere.

    An interior spike has two change points at ``l - 1`` and ``l`` (so its
    minimal spacing is 1); a spike at either end has a single change point.
    """
    n = check_integer(n, 2, None, "n must be an integer >= 2, got %r", n)
    l = check_integer(l, 1, n, "spike position must lie in [1, %s], got %r", n, l)
    if height == 0:
        raise ValueError("spike height must be nonzero")
    h = float(height)
    if l == 1:
        return PiecewiseSignal(n, (1,), (h, 0.0))
    if l == n:
        return PiecewiseSignal(n, (n - 1,), (0.0, h))
    return PiecewiseSignal(n, (l - 1, l), (0.0, h, 0.0))


def two_point_pair(n: int, delta_spacing: int, shift: int, kappa: float):
    """Two single-change-point signals whose change points differ by ``shift``.

    The first changes from 0 to ``kappa`` after position ``delta_spacing``,
    the second after ``delta_spacing + shift``.  Both are valid signals, so
    ``delta_spacing + shift`` must stay within ``[1, n - 1]``.
    """
    delta_spacing = check_integer(delta_spacing, 1, None,
                                  "delta_spacing must be a positive integer, got %r", delta_spacing)
    shift = check_integer(shift, 1, None, "shift must be a positive integer, got %r", shift)
    if delta_spacing + shift > n - 1:
        raise ValueError(
            f"delta_spacing + shift = {delta_spacing + shift} exceeds n - 1 = {n - 1}"
        )
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    levels = (0.0, float(kappa))
    return (
        PiecewiseSignal(n, (delta_spacing,), levels),
        PiecewiseSignal(n, (delta_spacing + shift,), levels),
    )


def signal_to_json(sig: PiecewiseSignal) -> str:
    return json.dumps(
        {"n": sig.n, "change_points": list(sig.change_points), "levels": list(sig.levels)}
    )


def signal_from_json(text: str) -> PiecewiseSignal:
    obj = json.loads(text)
    return make_signal(obj["n"], obj["change_points"], obj["levels"])
