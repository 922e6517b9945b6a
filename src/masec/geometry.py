"""Array and eavesdropper-region geometry.

Coordinates are 3-D Cartesian, in meters.  The transmit array sits near the
origin; each movable antenna is confined to an axis-aligned box and must keep
a minimum spacing from the previously indexed movable antenna (optionally from
every other movable antenna in strict mode).  The eavesdropper's unknown
location is a square patch on the ground, represented by a finite set of
sampled "virtual" positions inside the patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasibleRegionError",
    "MoveRegion",
    "EveRegion",
    "ArrayLayout",
    "sample_virtual_eves",
    "project_box",
    "project_min_distance",
    "project_move",
    "vector_norm",
]

_EPS = 1e-12


class InfeasibleRegionError(ValueError):
    """Raised when a region or layout cannot satisfy its own constraints."""


@dataclass(frozen=True)
class MoveRegion:
    """Axis-aligned movement box for one antenna (min <= max per axis)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        # The bound arrays are built once; every projection reads them.
        lo = np.array([self.x_min, self.y_min, self.z_min])
        hi = np.array([self.x_max, self.y_max, self.z_max])
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "_lower", lo)
        object.__setattr__(self, "_upper", hi)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("region bounds must be finite")
        if np.any(lo > hi):
            raise ValueError(f"region has min > max: {self}")

    @classmethod
    def point(cls, p: np.ndarray) -> "MoveRegion":
        """Degenerate box pinning an antenna at a fixed position."""
        x, y, z = (float(v) for v in p)
        return cls(x, x, y, y, z, z)

    def lower(self) -> np.ndarray:
        """Read-only (x_min, y_min, z_min)."""
        return self._lower

    def upper(self) -> np.ndarray:
        """Read-only (x_max, y_max, z_max)."""
        return self._upper

    def contains(self, p: np.ndarray, atol: float = 1e-9) -> bool:
        return bool(np.all(p >= self.lower() - atol) and np.all(p <= self.upper() + atol))


@dataclass(frozen=True)
class EveRegion:
    """Square ground patch of side 2r centered at distance d from the
    transmitter, whose array is elevated by h above the patch plane."""

    d: float
    r: float
    h: float

    def __post_init__(self):
        if not (self.d > self.r > 0.0):
            raise InfeasibleRegionError(
                f"need center distance d > half-length r > 0, got d={self.d}, r={self.r}"
            )
        if not self.h > 0.0:
            raise InfeasibleRegionError(f"need array height h > 0, got h={self.h}")


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


def project_box(p: np.ndarray, region: MoveRegion) -> np.ndarray:
    """Per-axis clamp of p onto the box (the Euclidean box projection)."""
    return np.minimum(np.maximum(p, region.lower()), region.upper())


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


def project_move(
    candidate: np.ndarray,
    previous: np.ndarray,
    region: MoveRegion,
    anchor: np.ndarray | None,
    d_min: float,
) -> np.ndarray:
    """Full feasibility projection for one position update.

    Order: spacing projection toward the anchor if violated, then box clamp,
    then one spacing re-check; a candidate that still violates spacing after
    the clamp is rejected and ``previous`` (assumed feasible) is returned.
    """
    p = candidate
    if anchor is not None:
        p = project_min_distance(p, anchor, d_min)
    p = project_box(p, region)
    if anchor is not None and vector_norm(p - anchor) < d_min - _EPS:
        return previous
    return p


@dataclass(frozen=True)
class ArrayLayout:
    """Positions, movement boxes, and spacing rule for the transmit array.

    ``movable_mask`` marks which antennas the optimizer may relocate; the
    spacing constraint ties each movable antenna to the movable antenna that
    precedes it in index order (``strict_spacing`` extends it to all movable
    pairs).
    """

    positions: np.ndarray  # (N, 3)
    regions: tuple[MoveRegion, ...]
    movable_mask: np.ndarray  # (N,) bool
    d_min: float
    strict_spacing: bool = False

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        mask = np.asarray(self.movable_mask, dtype=bool)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "movable_mask", mask)
        n = pos.shape[0]
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if n < 2:
            raise InfeasibleRegionError(f"need at least 2 antennas, got {n}")
        if len(self.regions) != n or mask.shape != (n,):
            raise ValueError("positions, regions, and movable_mask lengths disagree")
        if not self.d_min > 0.0:
            raise InfeasibleRegionError(f"need d_min > 0, got {self.d_min}")
        for i in np.flatnonzero(mask):
            if not self.regions[i].contains(pos[i]):
                raise InfeasibleRegionError(f"antenna {i} at {pos[i]} outside its region")
        ok, bad = self.spacing_ok()
        if not ok:
            raise InfeasibleRegionError(f"antenna pair {bad} closer than d_min={self.d_min}")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def movable_indices(self) -> np.ndarray:
        return np.flatnonzero(self.movable_mask)

    def spacing_ok(self, atol: float = 1e-9) -> tuple[bool, tuple[int, int] | None]:
        """Check the active spacing rule; returns (ok, offending pair)."""
        idx = self.movable_indices()
        if self.strict_spacing:
            pairs = [(int(a), int(b)) for i, a in enumerate(idx) for b in idx[i + 1 :]]
        else:
            pairs = [(int(a), int(b)) for a, b in zip(idx[:-1], idx[1:])]
        for a, b in pairs:
            if np.linalg.norm(self.positions[a] - self.positions[b]) < self.d_min - atol:
                return False, (a, b)
        return True, None

    def feasible(self, atol: float = 1e-9) -> bool:
        inside = all(
            self.regions[i].contains(self.positions[i], atol) for i in self.movable_indices()
        )
        return inside and self.spacing_ok(atol)[0]
