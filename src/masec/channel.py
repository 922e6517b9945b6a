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
    "bob_channel_pathsum",
    "eve_channel_pathsum",
    "sample_path_gains",
    "sample_path_angles",
    "build_realization",
]


def direction_vector(theta, phi) -> np.ndarray:
    """Unit direction [cos(theta)cos(phi), cos(theta)sin(phi), sin(theta)].

    Accepts scalars or equal-length arrays; array inputs give shape (L, 3).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), np.sin(theta)], axis=-1
    )
    return p


@dataclass(frozen=True)
class PathSet:
    """L propagation paths of one link: angles, unit directions, complex gains."""

    theta: np.ndarray  # (L,) elevation per path
    phi: np.ndarray  # (L,) azimuth per path
    p: np.ndarray  # (L, 3) unit direction per path
    sigma: np.ndarray  # (L,) complex gain per path

    def __post_init__(self):
        if self.theta.shape != self.phi.shape or self.sigma.shape != self.theta.shape:
            raise ValueError("theta, phi, sigma must share shape (L,)")
        if self.p.shape != self.theta.shape + (3,):
            raise ValueError(f"p must be (L, 3), got {self.p.shape}")
        norms = np.linalg.norm(self.p, axis=-1)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("direction vectors must have unit norm")

    @classmethod
    def from_angles(cls, theta, phi, sigma) -> "PathSet":
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        sigma = np.atleast_1d(np.asarray(sigma, dtype=complex))
        return cls(theta, phi, direction_vector(theta, phi), sigma)


def bob_channel_pathsum(positions: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """Test oracle for a user's channel row: per-antenna weighted path sum."""
    k0 = 2 * np.pi / lam
    return np.array(
        [np.sum(paths.sigma * np.exp(1j * k0 * (paths.p @ t))) for t in positions]
    )


def eve_channel_pathsum(
    positions: np.ndarray, r_m: np.ndarray, paths: PathSet, lam: float
) -> np.ndarray:
    """Test oracle for an Eve channel row: sum of sigma_l e^{j k0 (t - r).p_l}."""
    k0 = 2 * np.pi / lam
    return np.array(
        [
            np.sum(paths.sigma * np.exp(1j * k0 * (paths.p @ t - paths.p @ r_m)))
            for t in positions
        ]
    )


def _gain_scale(L: int, g0_db: float, dist: float, alpha: float):
    """Per-part standard deviation of a link's path gains: sqrt(var / 2)."""
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    if not dist > 0:
        raise ValueError(f"need dist > 0, got {dist}")
    var = (10.0 ** (g0_db / 10.0) / L) * dist ** (-alpha)
    return np.sqrt(var / 2.0)


def sample_path_gains(
    L: int, g0_db: float, dist: float, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Complex Gaussian path gains, per-path variance (g0/L) * dist^-alpha."""
    scale = _gain_scale(L, g0_db, dist, alpha)
    return scale * (rng.standard_normal(L) + 1j * rng.standard_normal(L))


def sample_path_angles(
    L: int, rng: np.random.Generator, side: str
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform departure/arrival angles: elevation range differs per side.

    side="bob": theta, phi in [-pi/2, pi/2]; side="eve": theta in [0, pi],
    phi in [-pi/2, pi/2].
    """
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    if side == "bob":
        theta = rng.uniform(-np.pi / 2, np.pi / 2, size=L)
    elif side == "eve":
        theta = rng.uniform(0.0, np.pi, size=L)
    else:
        raise ValueError(f"side must be 'bob' or 'eve', got {side!r}")
    phi = rng.uniform(-np.pi / 2, np.pi / 2, size=L)
    return theta, phi


class GainSampler:
    """Redraws every link's complex path gains with geometry held fixed.

    ``draw()`` consumes the sampler's own stream in a fixed link order, so a
    given seed always yields the same gain sequence; ``FrozenGains`` is the
    stand-in that always hands back the same gains.

    Each link's scale is computed once, here, as the same scalar that
    ``sample_path_gains`` computes for it (a per-user distance is a numpy
    scalar, Eve's a float), so a draw equals a loop of ``sample_path_gains``
    calls bit for bit.  Taking the power over an array of distances instead
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
        dists = [*np.asarray(bob_distances, dtype=float), float(eve_distance)]
        self._scales = [_gain_scale(num_paths, g0_db, d, alpha) for d in dists]

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """One fresh draw: (bob gains (K, L), eve gains (L,))."""
        bob, eve = self.draw_batch(1)
        return bob[0], eve[0]

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """count sequential draws: views (count, K, L) and (count, L) of one array.

        Every link of a draw takes one ``standard_normal(L)`` call for its real
        part and one for its imaginary part, users in order and Eve last.
        """
        L = self.num_paths
        normal = self.rng.standard_normal
        gains = np.empty((count, len(self._scales), L), dtype=complex)
        for row in gains:
            for link, scale in zip(row, self._scales):
                link[...] = scale * (normal(L) + 1j * normal(L))
        return gains[:, :-1], gains[:, -1]


class FrozenGains:
    """Sampler stand-in that always returns the same gain draw."""

    def __init__(self, bob_sigma: np.ndarray, eve_sigma: np.ndarray):
        self.bob_sigma = np.asarray(bob_sigma, dtype=complex)
        self.eve_sigma = np.asarray(eve_sigma, dtype=complex)

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.broadcast_to(self.bob_sigma, (count,) + self.bob_sigma.shape),
            np.broadcast_to(self.eve_sigma, (count,) + self.eve_sigma.shape),
        )


class ChannelWorkspace:
    """Channel state for one array geometry: the only channel representation.

    ``h_bob`` (K, N) and ``h_eve`` (M, N) hold every user's and every
    virtual-Eve position's channel row.  The per-path phase factors are
    cached, so moving one antenna updates one column in O((K + M) * L), and
    the batched channel and Jacobian helpers serve the gradient stages.
    A fresh build runs the products of ``move_antenna`` stacked over the
    antennas, so a channel's bits do not depend on how its positions were
    reached.
    """

    def __init__(
        self,
        positions: np.ndarray,
        bob_paths: tuple[PathSet, ...],
        eve_paths: PathSet,
        eve_positions: np.ndarray,
        lam: float,
    ):
        self.k0 = 2 * np.pi / lam
        self._jac_scale = -1j * self.k0  # d/dt of e^{-j k0 t.p} is -j k0 p e^{-j k0 t.p}
        self.wavelength = lam
        self.positions = np.array(positions, dtype=float)
        self.bob_paths = tuple(bob_paths)
        self.eve_paths = eve_paths
        self.eve_positions = np.asarray(eve_positions, dtype=float)
        self.bob_p = np.stack([ps.p for ps in bob_paths])  # (K, L, 3)
        self.bob_sigma = np.stack([ps.sigma for ps in bob_paths])  # (K, L)
        self.eve_p = eve_paths.p  # (L, 3)
        self.eve_sigma = eve_paths.sigma  # (L,)
        # receive phases conj(f^e): e^{-j k0 r_m.p_u}, shape (M, L)
        self.eve_rx = np.exp(-1j * self.k0 * (self.eve_positions @ self.eve_p.T))
        self._eve_w = self.eve_rx * self.eve_sigma  # per-path weights of the Eve columns
        e_bob, e_eve, h_b, h_e = self._columns(self.positions)
        self._e_bob = np.ascontiguousarray(e_bob.transpose(1, 0, 2))  # (K, N, L)
        self._e_eve_tx = e_eve  # (N, L)
        self.h_bob = np.ascontiguousarray(h_b.T)
        self.h_eve = np.ascontiguousarray(h_e.T)
        if not (np.all(np.isfinite(self.h_bob)) and np.all(np.isfinite(self.h_eve))):
            raise ValueError("channel entries must be finite")

    @property
    def num_antennas(self) -> int:
        return self.positions.shape[0]

    def _columns(self, positions: np.ndarray):
        """Phases and channel columns at each of S positions (S, 3).

        Returns the user phases (S, K, L), the Eve transmit phases (S, L), and
        the columns h_bob[:, n] (S, K) and h_eve[:, n] (S, M) that an antenna
        at each position has.  These are the products of ``move_antenna``,
        each stacked per position, so they run the same kernel on the same
        operands: row s has the bits ``move_antenna(n, positions[s])`` sets,
        for any S.  The fresh build and ``columns_at`` run it.
        """
        t = np.asarray(positions, dtype=float)
        e_bob = np.exp(1j * self.k0 * (self.bob_p @ t[:, None, :, None]))[..., 0]
        e_eve = np.exp(1j * self.k0 * (self.eve_p @ t[:, :, None]))  # (S, L, 1)
        h_b = np.einsum("skl,kl->sk", e_bob, self.bob_sigma)
        h_e = (self._eve_w @ e_eve)[..., 0]
        return e_bob, e_eve[..., 0], h_b, h_e

    def move_antenna(self, n: int, t: np.ndarray):
        """Relocate antenna n; only column n of each channel changes."""
        self.positions[n] = t
        self._e_bob[:, n, :] = np.exp(1j * self.k0 * (self.bob_p @ t))
        self._e_eve_tx[n, :] = np.exp(1j * self.k0 * (self.eve_p @ t))
        self.h_bob[:, n] = np.einsum("kl,kl->k", self._e_bob[:, n, :], self.bob_sigma)
        self.h_eve[:, n] = self._eve_w @ self._e_eve_tx[n, :]

    def move_pair_phases(self, n: int, t: np.ndarray, k: int):
        """Relocate antenna n as far as the batch helpers of user k and Eve read it.

        Sets ``positions[n]``, user k's phases and the Eve transmit phases of
        antenna n to the bits ``move_antenna(n, t)`` gives them.  The other
        users' phases and both channel columns keep the old position until
        ``move_antenna(n, ...)`` runs, so a position ascent on one (user, Eve)
        pair calls this per step and ``move_antenna`` once when it ends.
        """
        self.positions[n] = t
        self._e_bob[k, n, :] = np.exp(1j * self.k0 * (self.bob_p[k] @ t))
        self._e_eve_tx[n, :] = np.exp(1j * self.k0 * (self.eve_p @ t))

    def columns_at(self, positions: np.ndarray) -> np.ndarray:
        """Channel column an antenna would have at each of S positions: (S, 3) -> (S, K + M).

        Row s is [h_bob[:, n]; h_eve[:, n]] as ``move_antenna(n, positions[s])``
        would set it for any antenna n, bit for bit.  The workspace itself
        does not change.
        """
        _, _, h_b, h_e = self._columns(positions)
        return np.concatenate([h_b, h_e], axis=1)

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
    layout: ArrayLayout | np.ndarray,
    bob_paths: tuple[PathSet, ...],
    eve_paths: PathSet,
    eve_positions: np.ndarray,
    lam: float,
) -> ChannelWorkspace:
    """A fresh workspace with every user's and every virtual-Eve position's channel."""
    positions = layout.positions if isinstance(layout, ArrayLayout) else layout
    return ChannelWorkspace(positions, bob_paths, eve_paths, eve_positions, lam)
