"""Far-field multipath channel construction.

Each propagation path l contributes a complex gain sigma_l times a
unit-modulus phase factor exp(j*(2*pi/lam)*t.p_l) that depends on the antenna
position t and the path's unit direction vector p_l.  Receivers are far away,
so moving an antenna changes only these phases, never the angles or gains.
The legitimate receivers are static (all-ones receive response); the
eavesdropper's candidate position r contributes a receive phase
exp(-j*(2*pi/lam)*r.p_l) per path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayLayout

__all__ = [
    "PathSet",
    "ChannelWorkspace",
    "GainSampler",
    "FrozenGains",
    "direction_vector",
    "build_realization",
]


def direction_vector(theta, phi) -> np.ndarray:
    """Unit direction [cos(theta)cos(phi), cos(theta)sin(phi), sin(theta)].

    Accepts scalars or equal-shape arrays; (..., L) inputs give shape (..., L, 3).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)], axis=-1
    )


# Largest accepted |norm - 1| of a path direction: what np.allclose(norm, 1,
# atol=1e-12) accepted, whose default rtol=1e-5 adds 1e-5 at a norm of 1.
UNIT_NORM_TOL = 1e-12 + 1e-5


@dataclass(frozen=True)
class PathSet:
    """L paths of one link, or of K links stacked as (K, L): unit directions and gains."""

    p: np.ndarray  # (..., L, 3) unit direction per path
    sigma: np.ndarray  # (..., L) complex gain per path

    def __post_init__(self):
        if self.p.shape != self.sigma.shape + (3,):
            raise ValueError(f"p must be sigma's shape + (3,), got {self.p.shape} and {self.sigma.shape}")
        # The norm as np.linalg.norm sums it; a NaN norm fails the test.
        if not (np.abs(np.sqrt(np.add.reduce(self.p * self.p, axis=-1)) - 1.0) <= UNIT_NORM_TOL).all():
            raise ValueError("direction vectors must have unit norm")

    @classmethod
    def from_angles(cls, theta, phi, sigma) -> "PathSet":
        """Paths at elevations theta and azimuths phi; a complex sigma is kept, not copied."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        if theta.shape != phi.shape:
            raise ValueError(f"theta and phi must share a shape, got {theta.shape} and {phi.shape}")
        return cls(direction_vector(theta, phi), np.atleast_1d(np.asarray(sigma, dtype=complex)))


def _gain_scale(L: int, g0_db: float, dist: float, alpha: float):
    """Per-part standard deviation of a link's path gains: sqrt(var / 2)."""
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    if not dist > 0:
        raise ValueError(f"need dist > 0, got {dist}")
    var = (10.0 ** (g0_db / 10.0) / L) * dist ** (-alpha)
    return np.sqrt(var / 2.0)


class GainSampler:
    """Redraws the listed users' and Eve's complex path gains with geometry held fixed.

    ``draw_batch`` returns the gradient kernels' links-first layout, drawn from
    the sampler's own stream in a fixed link order, so a given seed and the same
    user lists always yield the same gains; ``FrozenGains`` always repeats one draw.

    Each link's scale, the per-part standard deviation sqrt((g0/L) d^-alpha / 2),
    is computed once, here, from one scalar distance (a numpy scalar per user,
    a float for Eve).  Taking the power over an array of distances instead
    differs in the last bits.
    """

    def __init__(
        self,
        num_paths: int,
        g0_db: float,
        bob_distances: np.ndarray,
        eve_distance: float,
        alpha: float,
        rng: np.random.Generator,
    ):
        self.num_paths = num_paths
        self.rng = rng
        dists = np.asarray(bob_distances, dtype=float)
        self._bob_scales = [_gain_scale(num_paths, g0_db, d, alpha) for d in dists]
        self._eve_scale = _gain_scale(num_paths, g0_db, float(eve_distance), alpha)

    def draw_batch(self, count: int, users) -> np.ndarray:
        """count sequential draws of the listed users' links and Eve's: (len(users) + 1, count, L).

        Row i holds users[i]'s link and the last row Eve's.  Per draw, every
        listed user's link in the order given, then Eve's, takes one
        ``standard_normal(L)`` call for its real part and one for its
        imaginary part; a link that is not listed draws nothing.
        """
        L = self.num_paths
        normal = self.rng.standard_normal
        scales = [self._bob_scales[k] for k in users] + [self._eve_scale]
        gains = np.empty((len(scales), count, L), dtype=complex)
        for s in range(count):
            for link, scale in zip(gains[:, s], scales):
                link[...] = scale * (normal(L) + 1j * normal(L))
        return gains


class FrozenGains:
    """Sampler stand-in that always draws the same gains: its (K + 1, L) links, repeated into a new batch."""

    def __init__(self, bob_sigma: np.ndarray, eve_sigma: np.ndarray):
        self.links = np.vstack([bob_sigma, eve_sigma], dtype=complex)

    def draw_batch(self, count: int, users) -> np.ndarray:
        return np.repeat(self.links[list(users) + [-1], None], count, axis=1)


class ChannelWorkspace:
    """Channel state for one array geometry: the only channel representation.

    ``h`` (K + M, N) holds every user's channel row, then every virtual-Eve
    position's; ``h_bob`` (K, N) and ``h_eve`` (M, N) are row views of it.
    The per-path phase factors are cached, so moving one antenna updates one
    column in O((K + M) * L), and ``pair_phases`` hands the gradient stages
    one (user, Eve) pair's phases.  A fresh build and ``move_antenna`` run the
    one column kernel, ``_columns``, so a channel's bits do not depend on how
    its positions were reached.  The users' paths come as one PathSet of
    (K, L) arrays, which the workspace reads in place.
    """

    def __init__(
        self,
        positions: np.ndarray,
        bob_paths: PathSet,
        eve_paths: PathSet,
        eve_positions: np.ndarray,
        lam: float,
    ):
        if bob_paths.sigma.ndim != 2:
            raise ValueError(f"user paths must be stacked (K, L), got {bob_paths.sigma.shape}")
        self.k0 = 2 * np.pi / lam
        self._jac_scale = -1j * self.k0  # d/dt of e^{-j k0 t.p} is -j k0 p e^{-j k0 t.p}
        self.wavelength = lam
        self.positions = np.array(positions, dtype=float)
        self.bob_paths = bob_paths
        self.eve_paths = eve_paths
        self.eve_positions = np.asarray(eve_positions, dtype=float)
        self.bob_p = bob_paths.p  # (K, L, 3)
        self.bob_sigma = bob_paths.sigma  # (K, L)
        self.eve_p = eve_paths.p  # (L, 3)
        self.eve_sigma = eve_paths.sigma  # (L,)
        # receive phases conj(f^e): e^{-j k0 r_m.p_u}, shape (M, L)
        self.eve_rx = np.exp(-1j * self.k0 * (self.eve_positions @ self.eve_p.T))
        self._eve_w = self.eve_rx * self.eve_sigma  # per-path weights of the Eve columns
        e_bob, e_eve, cols = self._columns(self.positions)
        self._e_bob = np.ascontiguousarray(e_bob.transpose(1, 0, 2))  # (K, N, L)
        self._e_eve_tx = e_eve  # (N, L)
        self.h = np.ascontiguousarray(cols.T)  # (K + M, N), the user rows first
        self.h_bob, self.h_eve = np.split(self.h, [len(self.bob_sigma)])  # row views of h
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel entries must be finite")

    @property
    def num_antennas(self) -> int:
        return self.positions.shape[0]

    def _columns(self, positions: np.ndarray):
        """Phases and channel columns at each of S positions (S, 3).

        Returns the user phases (S, K, L), the Eve transmit phases (S, L), and
        the columns h[:, n] (S, K + M), user entries first, that an antenna
        at each position has.  This is the one column kernel: the fresh build
        runs it over every antenna, ``move_antenna`` over one position and
        ``columns_at`` over any S, and row s has the same bits for any S.
        """
        t = np.asarray(positions, dtype=float)
        e_bob = np.exp(1j * self.k0 * (self.bob_p @ t[:, None, :, None]))[..., 0]
        e_eve = np.exp(1j * self.k0 * (self.eve_p @ t[:, :, None]))  # (S, L, 1)
        num_bobs = len(self.bob_sigma)
        cols = np.empty((len(t), num_bobs + len(self._eve_w)), dtype=complex)
        cols[:, :num_bobs] = np.einsum("skl,kl->sk", e_bob, self.bob_sigma)
        cols[:, num_bobs:] = (self._eve_w @ e_eve)[..., 0]
        return e_bob, e_eve[..., 0], cols

    def move_antenna(self, n: int, t: np.ndarray):
        """Relocate antenna n: ``_columns`` at t gives its phases and column n of ``h``."""
        e_bob, e_eve, cols = self._columns(np.reshape(t, (1, 3)))
        self.positions[n] = t
        self._e_bob[:, n, :] = e_bob[0]
        self._e_eve_tx[n, :] = e_eve[0]
        self.h[:, n] = cols[0]

    def columns_at(self, positions: np.ndarray) -> np.ndarray:
        """Channel column an antenna would have at each of S positions: (S, 3) -> (S, K + M).

        Row s is h[:, n] as ``move_antenna(n, positions[s])`` would set it for
        any antenna n, bit for bit.  The workspace itself does not change.
        """
        return self._columns(positions)[2]

    def pair_phases(self, k: int) -> np.ndarray:
        """User k's transmit phases beside Eve's: (N, 2L), row n antenna n's, a copy.

        The gradient kernels read a (user, Eve) pair's channel in this form:
        a draw's rows are its gains times these phases, so the stages never
        build the rows.
        """
        return np.concatenate([self._e_bob[k], self._e_eve_tx], axis=1)

    # Row form of the same channel: the rows and their Jacobians under a
    # batch of gain draws, which the gain-space kernels are checked against.

    def h_bob_batch(self, k: int, bob_sigma: np.ndarray) -> np.ndarray:
        """Bob k's channel under a batch of gain draws: (S, L) -> (S, N)."""
        return bob_sigma @ self._e_bob[k].T

    def h_eve_batch(self, m: int, eve_sigma: np.ndarray) -> np.ndarray:
        """Virtual Eve m's channel under a batch of gain draws: (S, L) -> (S, N)."""
        return (eve_sigma * self.eve_rx[m]) @ self._e_eve_tx.T

    def jac_bob_batch(self, k: int, n: int, bob_sigma: np.ndarray) -> np.ndarray:
        """d conj(h_bob[k][n]) / d(x_n, y_n, z_n) per draw: (S, L) -> (S, 3)."""
        terms = np.conj(bob_sigma * self._e_bob[k, n, :])
        return self._jac_scale * (terms @ self.bob_p[k])

    def jac_eve_batch(self, m: int, n: int, eve_sigma: np.ndarray) -> np.ndarray:
        """d conj(h_eve[m][n]) / d(x_n, y_n, z_n) per draw: (S, L) -> (S, 3)."""
        terms = np.conj(eve_sigma * (self._e_eve_tx[n, :] * self.eve_rx[m]))
        return self._jac_scale * (terms @ self.eve_p)


def build_realization(
    layout: ArrayLayout,
    bob_paths: PathSet,
    eve_paths: PathSet,
    eve_positions: np.ndarray,
    lam: float,
) -> ChannelWorkspace:
    """A fresh workspace with every user's and every virtual-Eve position's channel."""
    return ChannelWorkspace(layout.positions, bob_paths, eve_paths, eve_positions, lam)
