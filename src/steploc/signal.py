"""Piecewise-constant mean signals and adversarial test constructions.

Index convention used throughout the package: positions are 1-based and a
change point ``eta`` is the *last* position of a segment, so the mean
differs between positions ``eta`` and ``eta + 1``.  The implicit boundaries
``eta_0 = 0`` and ``eta_{K+1} = n`` count toward the minimal spacing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseSignal",
    "NoChangePointsError",
    "check_observations",
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


def check_observations(y, n: int | None = None, least: int = 1) -> np.ndarray:
    """The observations ``y`` as a float64 array: shape ``(n,)`` (any n for None),
    at least ``least`` values, all finite.  ``ValueError`` otherwise."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size if n is None else n
    if y.shape != (n,):
        raise ValueError(f"observations must have shape ({n},), got {y.shape}")
    if n < least:
        raise ValueError(f"need at least {least} observation{'s' * (least != 1)}, got {n}")
    if not np.isfinite(y).all():
        raise ValueError("observations must be finite")
    return y


@dataclass(frozen=True)
class PiecewiseSignal:
    """Mean function on positions 1..n, constant between change points.

    ``change_points`` are strictly increasing integers in ``[1, n - 1]``;
    ``levels`` holds one value per segment (``K + 1`` in total) and adjacent
    levels must differ exactly.  Instances are immutable and safe to share
    across threads.
    """

    n: int
    change_points: tuple[int, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        cps = self.change_points
        for cp in cps:
            if not isinstance(cp, int):
                raise ValueError(f"change points must be integers, got {cp!r}")
            if not 1 <= cp <= self.n - 1:
                raise ValueError(f"change point {cp} outside [1, {self.n - 1}]")
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
    """Validate and build a :class:`PiecewiseSignal` (numpy ints welcome)."""
    return PiecewiseSignal(
        n=int(n),
        change_points=tuple(int(c) for c in change_points),
        levels=tuple(float(v) for v in levels),
    )


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
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not isinstance(l, int) or not 1 <= l <= n:
        raise ValueError(f"spike position must lie in [1, {n}], got {l!r}")
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
    if not isinstance(delta_spacing, int) or delta_spacing <= 0:
        raise ValueError(f"delta_spacing must be a positive integer, got {delta_spacing!r}")
    if not isinstance(shift, int) or shift <= 0:
        raise ValueError(f"shift must be a positive integer, got {shift!r}")
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
    return make_signal(int(obj["n"]), [int(c) for c in obj["change_points"]], obj["levels"])
