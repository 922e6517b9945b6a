"""Array and eavesdropper-region geometry.

Coordinates are 3-D Cartesian, in meters.  The transmit array sits near the
origin; each movable antenna is confined to an axis-aligned box and must keep
a minimum spacing from the movable antennas just before and after it.  The
eavesdropper's unknown location is a square patch on the ground, represented
by a finite set of sampled "virtual" positions inside the patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasibleRegionError",
    "EveRegion",
    "ArrayLayout",
    "sample_virtual_eves",
    "project_box",
    "project_min_distance",
    "project_move",
    "vector_norm",
    "complex_norm",
]

# Slack of the layout's box and spacing checks: an iterate that rounding puts
# this close outside a constraint still counts as feasible.
_ATOL = 1e-9


class InfeasibleRegionError(ValueError):
    """Raised when a region or layout cannot satisfy its own constraints."""


@dataclass(frozen=True)
class EveRegion:
    """Square ground patch of side 2r centered at distance d from the
    transmitter."""

    d: float
    r: float

    def __post_init__(self):
        if not (self.d > self.r > 0.0):
            raise InfeasibleRegionError(
                f"need center distance d > half-length r > 0, got d={self.d}, r={self.r}"
            )


def sample_virtual_eves(region: EveRegion, m: int, rng: np.random.Generator) -> np.ndarray:
    """m ground points drawn i.i.d. uniform over the square patch, shape (m, 3)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    x = rng.uniform(region.d - region.r, region.d + region.r, size=m)
    y = rng.uniform(-region.r, region.r, size=m)
    return np.column_stack([x, y, np.zeros(m)])


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D vector: ``np.linalg.norm(v)`` bit for bit.

    It runs the same ``v.dot(v)`` and a correctly rounded square root,
    without ``np.linalg.norm``'s dispatch, which costs more than the
    arithmetic at this size.
    """
    return math.sqrt(v.dot(v))


def complex_norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex 1-D vector: ``np.linalg.norm(v)`` bit for bit.

    ``np.linalg.norm`` adds the dot products of the real and of the
    imaginary parts; this runs the same two dots and a correctly rounded
    square root, without its dispatch.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def project_box(p: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per-axis clamp of p onto the box [lower, upper] (the Euclidean box projection)."""
    return np.minimum(np.maximum(p, lower), upper)


def project_min_distance(candidate: np.ndarray, anchor: np.ndarray, d_min: float) -> np.ndarray:
    """Push candidate out to distance d_min from anchor along their ray.

    Candidates already at distance >= d_min are returned unchanged.  A
    candidate coinciding with the anchor has no ray; it is displaced along +x.
    """
    delta = candidate - anchor
    dist = vector_norm(delta)
    if dist >= d_min:
        return candidate
    if dist == 0.0:
        return anchor + np.array([d_min, 0.0, 0.0])
    return anchor + (d_min / dist) * delta


def _too_close(p: np.ndarray, q: np.ndarray | None, d_min: float) -> bool:
    """The spacing rule's one test: q is set and p is closer than d_min to it, beyond the slack."""
    return q is not None and vector_norm(p - q) < d_min - _ATOL


def project_move(
    candidate: np.ndarray,
    previous: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    before: np.ndarray | None,
    after: np.ndarray | None,
    d_min: float,
) -> np.ndarray:
    """Full feasibility projection for one move between spacing neighbours ``before``/``after``.

    Order: spacing projection away from ``before`` if violated, then box
    clamp; a result closer than d_min to either neighbour (None: no neighbour)
    is rejected and ``previous`` (assumed feasible) is returned.
    """
    p = candidate
    if before is not None:
        p = project_min_distance(p, before, d_min)
    p = project_box(p, lower, upper)
    if _too_close(p, before, d_min) or _too_close(p, after, d_min):
        return previous
    return p


@dataclass(frozen=True)
class ArrayLayout:
    """Positions, movement boxes, and spacing rule for the transmit array.

    Antenna i's box is ``lower[i] <= p <= upper[i]`` per axis; a fixed
    antenna's rows equal its position.  ``movable_mask`` marks which antennas
    the optimizer may relocate; the spacing constraint keeps each movable
    antenna d_min from its ``neighbours``.
    """

    positions: np.ndarray  # (N, 3)
    lower: np.ndarray  # (N, 3) box minima
    upper: np.ndarray  # (N, 3) box maxima
    movable_mask: np.ndarray  # (N,) bool
    d_min: float

    def __post_init__(self):
        for name, dtype in (("positions", float), ("lower", float), ("upper", float), ("movable_mask", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        pos, mask = self.positions, self.movable_mask
        n = pos.shape[0]
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if n < 2:
            raise InfeasibleRegionError(f"need at least 2 antennas, got {n}")
        if self.lower.shape != pos.shape or self.upper.shape != pos.shape or mask.shape != (n,):
            raise ValueError("positions, bounds, and movable_mask shapes disagree")
        if not self.d_min > 0.0:
            raise InfeasibleRegionError(f"need d_min > 0, got {self.d_min}")
        problem = self._violation()
        if problem is not None:
            raise InfeasibleRegionError(problem)

    def movable_indices(self) -> np.ndarray:
        return np.flatnonzero(self.movable_mask)

    def neighbours(self, n: int) -> tuple[int | None, int | None]:
        """The movable antennas just before and after n in index order (None: no such antenna).

        The spacing rule ties n to exactly these two.
        """
        idx = self.movable_indices()
        before, after = idx[idx < n], idx[idx > n]
        return (int(before[-1]) if before.size else None), (int(after[0]) if after.size else None)

    def _violation(self) -> str | None:
        """The first broken constraint of the layout, or None when it is feasible."""
        lo, hi, pos = self.lower, self.upper, self.positions
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return "movement-box bounds must be finite"
        flipped = np.flatnonzero((lo > hi).any(axis=1))
        if flipped.size:
            i = flipped[0]
            return f"antenna {i} has a movement box with min > max: {lo[i]} > {hi[i]}"
        idx = self.movable_indices()
        outside = idx[((pos[idx] < lo[idx] - _ATOL) | (pos[idx] > hi[idx] + _ATOL)).any(axis=1)]
        if outside.size:
            i = outside[0]
            return f"antenna {i} at {pos[i]} outside its movement box"
        for a, b in zip(idx[:-1], idx[1:]):  # each antenna and the neighbour after it
            if _too_close(pos[a], pos[b], self.d_min):
                return f"antenna pair {(int(a), int(b))} closer than d_min={self.d_min}"
        return None

    def feasible(self) -> bool:
        return self._violation() is None
