"""Array and eavesdropper-region geometry.

Coordinates are 3-D Cartesian, in meters.  The transmit array sits near the
origin; each movable antenna is confined to an axis-aligned box, and every
pair of movable antennas must keep a minimum spacing (fixed antennas are not
bound by it).  The eavesdropper's unknown location is a square patch on the
ground, represented by a finite set of sampled "virtual" positions inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasibleRegionError",
    "ArrayLayout",
    "sample_virtual_eves",
    "project_box",
    "project_move",
    "complex_norm",
]

# Slack of the layout's box and spacing checks: an iterate that rounding puts
# this close outside a constraint still counts as feasible.
_ATOL = 1e-9


class InfeasibleRegionError(ValueError):
    """Raised when a scenario or layout cannot satisfy its own constraints."""


def sample_virtual_eves(d: float, r: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m ground points drawn i.i.d. uniform over the square patch of side 2r
    centered at distance d from the transmitter, shape (m, 3)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    x = rng.uniform(d - r, d + r, size=m)
    y = rng.uniform(-r, r, size=m)
    return np.column_stack([x, y, np.zeros(m)])


def complex_norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex 1-D vector: ``np.linalg.norm(v)`` bit for bit.

    ``np.linalg.norm`` adds the dot products of the real and of the
    imaginary parts; this runs the same two dots and a correctly rounded
    square root, without its dispatch.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def project_box(p, lower, upper) -> list[float]:
    """Per-axis clamp of p onto the box [lower, upper] (the Euclidean box projection).

    It runs on Python floats and returns a list with the bits of
    ``np.minimum(np.maximum(p, lower), upper)``: a coordinate equal to a
    bound takes the bound, and a NaN stays NaN.
    """
    out = []
    for c, lo, hi in zip(p, lower, upper):
        c = lo if c <= lo else c
        out.append(hi if c >= hi else c)
    return out


def _too_close(dist, d_min: float):
    """The spacing rule's one test: a distance (or array of them) below d_min, beyond the slack."""
    return dist < d_min - _ATOL


def project_move(candidate, previous, lower, upper, others, d_min: float):
    """Feasibility projection for one move among the other movable antennas.

    The candidate is clamped to the box; a result closer than d_min to any
    row of ``others`` (M rows of 3) is rejected and ``previous`` (assumed
    feasible) itself is returned.  It runs on Python floats: a distance is
    the square root of the summed squares, which may differ in the last bit
    from ``np.linalg.norm`` (its BLAS dot fuses multiply-adds), so only a
    distance within a rounding of the slack's edge could be judged apart.
    """
    p = project_box(candidate, lower, upper)
    x, y, z = p
    for qx, qy, qz in others:
        dx, dy, dz = x - qx, y - qy, z - qz
        if _too_close(math.sqrt(dx * dx + dy * dy + dz * dz), d_min):
            return previous
    return p


@dataclass(frozen=True)
class ArrayLayout:
    """Positions, movement boxes, and spacing rule for the transmit array.

    Antenna i's box is ``lower[i] <= p <= upper[i]`` per axis; a fixed
    antenna's rows equal its position.  ``movable_mask`` marks which antennas
    the optimizer may relocate; the spacing constraint keeps every pair of
    movable antennas d_min apart.
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
        mov = pos[idx]
        outside = idx[((mov < lo[idx] - _ATOL) | (mov > hi[idx] + _ATOL)).any(axis=1)]
        if outside.size:
            i = outside[0]
            return f"antenna {i} at {pos[i]} outside its movement box"
        d = mov[:, None] - mov  # (M, M, 3): every movable pair, each counted once by the mask below
        rows, cols = np.nonzero(_too_close(np.sqrt((d * d).sum(-1)), self.d_min) & (idx[:, None] < idx))
        if rows.size:
            return f"antenna pair {(int(idx[rows[0]]), int(idx[cols[0]]))} closer than d_min={self.d_min}"
        return None

    def feasible(self) -> bool:
        return self._violation() is None
