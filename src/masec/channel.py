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

from dataclasses import dataclass, replace

import numpy as np

from .geometry import ArrayLayout

__all__ = [
    "PathSet",
    "ChannelRealization",
    "ChannelWorkspace",
    "GainSampler",
    "FrozenGains",
    "direction_vector",
    "transmit_frv",
    "bob_channel",
    "bob_channel_pathsum",
    "eve_channel",
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

    @property
    def count(self) -> int:
        return self.theta.shape[0]

    def with_sigma(self, sigma: np.ndarray) -> "PathSet":
        return replace(self, sigma=np.asarray(sigma, dtype=complex))


def transmit_frv(t: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """Transmit field-response vector of one antenna: entries e^{j k0 t.p_l}."""
    if not lam > 0:
        raise ValueError(f"need wavelength > 0, got {lam}")
    return np.exp(1j * (2 * np.pi / lam) * (paths.p @ np.asarray(t, dtype=float)))


def _tx_matrix(positions: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """(L, N) matrix whose columns are the per-antenna transmit FRVs."""
    return np.exp(1j * (2 * np.pi / lam) * (paths.p @ positions.T))


def bob_channel(positions: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """Legitimate channel vector, matrix composition (ones^T . diag(sigma) . G)^T."""
    g = _tx_matrix(positions, paths, lam)
    f = np.ones(paths.count)
    return (f @ np.diag(paths.sigma) @ g).T


def bob_channel_pathsum(positions: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """Oracle form of :func:`bob_channel`: per-antenna weighted path sum."""
    k0 = 2 * np.pi / lam
    return np.array(
        [np.sum(paths.sigma * np.exp(1j * k0 * (paths.p @ t))) for t in positions]
    )


def eve_channel(positions: np.ndarray, r_m: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """Eavesdropper channel vector, matrix composition (f^H . diag(sigma) . G)^T."""
    g = _tx_matrix(positions, paths, lam)
    f = np.exp(1j * (2 * np.pi / lam) * (paths.p @ np.asarray(r_m, dtype=float)))
    return (np.conj(f) @ np.diag(paths.sigma) @ g).T


def eve_channel_pathsum(
    positions: np.ndarray, r_m: np.ndarray, paths: PathSet, lam: float
) -> np.ndarray:
    """Oracle form of :func:`eve_channel`: sum of sigma_l e^{j k0 (t - r).p_l}."""
    k0 = 2 * np.pi / lam
    return np.array(
        [
            np.sum(paths.sigma * np.exp(1j * k0 * (paths.p @ t - paths.p @ r_m)))
            for t in positions
        ]
    )


def sample_path_gains(
    L: int, g0_db: float, dist: float, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Complex Gaussian path gains, per-path variance (g0/L) * dist^-alpha."""
    if L < 1:
        raise ValueError(f"need L >= 1, got {L}")
    if not dist > 0:
        raise ValueError(f"need dist > 0, got {dist}")
    var = (10.0 ** (g0_db / 10.0) / L) * dist ** (-alpha)
    scale = np.sqrt(var / 2.0)
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


@dataclass(frozen=True)
class ChannelRealization:
    """All channel vectors for one geometry and one gain draw."""

    h_bob: np.ndarray  # (K, N) complex, row k = channel of Bob k
    h_eve: np.ndarray  # (M, N) complex, row m = channel of virtual-Eve position m
    bob_paths: tuple[PathSet, ...]
    eve_paths: PathSet
    eve_positions: np.ndarray  # (M, 3)
    wavelength: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.h_bob)) and np.all(np.isfinite(self.h_eve))):
            raise ValueError("channel entries must be finite")
        if self.h_bob.shape[1] != self.h_eve.shape[1]:
            raise ValueError("Bob and Eve channel vectors must share antenna count")

    @property
    def num_bobs(self) -> int:
        return self.h_bob.shape[0]

    @property
    def num_eves(self) -> int:
        return self.h_eve.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.h_bob.shape[1]


def build_realization(
    layout: ArrayLayout | np.ndarray,
    bob_paths: tuple[PathSet, ...],
    eve_paths: PathSet,
    eve_positions: np.ndarray,
    lam: float,
) -> ChannelRealization:
    """Channel vectors for every Bob and every virtual-Eve position."""
    positions = layout.positions if isinstance(layout, ArrayLayout) else np.asarray(layout)
    h_bob = np.stack([bob_channel(positions, ps, lam) for ps in bob_paths])
    h_eve = np.stack([eve_channel(positions, r, eve_paths, lam) for r in eve_positions])
    return ChannelRealization(h_bob, h_eve, tuple(bob_paths), eve_paths, eve_positions, lam)


class GainSampler:
    """Redraws every link's complex path gains with geometry held fixed.

    ``draw()`` consumes the sampler's own stream in a fixed link order, so a
    given seed always yields the same gain sequence.  ``frozen()`` returns a
    sampler-compatible callable that always hands back the same gains.
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
        self.g0_db = g0_db
        self.bob_distances = np.asarray(bob_distances, dtype=float)
        self.eve_distance = float(eve_distance)
        self.alpha = alpha
        self.rng = rng

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """One fresh draw: (bob gains (K, L), eve gains (L,))."""
        bob = np.stack(
            [
                sample_path_gains(self.num_paths, self.g0_db, d, self.alpha, self.rng)
                for d in self.bob_distances
            ]
        )
        eve = sample_path_gains(self.num_paths, self.g0_db, self.eve_distance, self.alpha, self.rng)
        return bob, eve

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """count sequential draws stacked to (count, K, L) and (count, L)."""
        draws = [self.draw() for _ in range(count)]
        return np.stack([d[0] for d in draws]), np.stack([d[1] for d in draws])


class FrozenGains:
    """Sampler stand-in that always returns the same gain draw."""

    def __init__(self, bob_sigma: np.ndarray, eve_sigma: np.ndarray):
        self.bob_sigma = np.asarray(bob_sigma, dtype=complex)
        self.eve_sigma = np.asarray(eve_sigma, dtype=complex)

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        return self.bob_sigma, self.eve_sigma

    def draw_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.broadcast_to(self.bob_sigma, (count,) + self.bob_sigma.shape),
            np.broadcast_to(self.eve_sigma, (count,) + self.eve_sigma.shape),
        )


class ChannelWorkspace:
    """Mutable channel state for one array geometry.

    Caches the per-path phase factors so that redrawing gains or moving a
    single antenna updates channels in O(K*L) instead of rebuilding from
    scratch.  Exposes ``h_bob``/``h_eve`` like :class:`ChannelRealization`
    plus the per-antenna Jacobian columns the position gradient needs.
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
        self.wavelength = lam
        self.positions = np.array(positions, dtype=float)
        self.bob_paths = tuple(bob_paths)
        self.eve_paths = eve_paths
        self.eve_positions = np.asarray(eve_positions, dtype=float)
        self.bob_p = np.stack([ps.p for ps in bob_paths])  # (K, L, 3)
        self.bob_sigma = np.stack([ps.sigma for ps in bob_paths])  # (K, L)
        self.eve_p = eve_paths.p  # (L, 3)
        self.eve_sigma = eve_paths.sigma.copy()  # (L,)
        # receive phases conj(f^e): e^{-j k0 r_m.p_u}, shape (M, L)
        self.eve_rx = np.exp(-1j * self.k0 * (self.eve_positions @ self.eve_p.T))
        self._e_bob = np.exp(1j * self.k0 * np.einsum("nc,klc->knl", self.positions, self.bob_p))
        self._e_eve_tx = np.exp(1j * self.k0 * (self.positions @ self.eve_p.T))  # (N, L)
        self._refresh()

    def _refresh(self):
        self.h_bob = np.einsum("knl,kl->kn", self._e_bob, self.bob_sigma)
        self.h_eve = (self.eve_rx * self.eve_sigma) @ self._e_eve_tx.T  # (M, N)

    @property
    def num_antennas(self) -> int:
        return self.positions.shape[0]

    def set_gains(self, bob_sigma: np.ndarray, eve_sigma: np.ndarray):
        self.bob_sigma = np.asarray(bob_sigma, dtype=complex)
        self.eve_sigma = np.asarray(eve_sigma, dtype=complex)
        self._refresh()

    def move_antenna(self, n: int, t: np.ndarray):
        """Relocate antenna n; only column n of each channel changes."""
        self.positions[n] = t
        self._e_bob[:, n, :] = np.exp(1j * self.k0 * (self.bob_p @ t))
        self._e_eve_tx[n, :] = np.exp(1j * self.k0 * (self.eve_p @ t))
        self.h_bob[:, n] = np.einsum("kl,kl->k", self._e_bob[:, n, :], self.bob_sigma)
        self.h_eve[:, n] = (self.eve_rx * self.eve_sigma) @ self._e_eve_tx[n, :]

    def columns_at(self, positions: np.ndarray) -> np.ndarray:
        """Channel column an antenna would have at each of S positions: (S, 3) -> (S, K + M).

        Row s is [h_bob[:, n]; h_eve[:, n]] as ``move_antenna(n, positions[s])``
        would set it for any antenna n, bit for bit: every product below is
        stacked per position, so it runs the same kernel on the same operands
        as the single-position update.  The workspace itself does not change.
        """
        t = np.asarray(positions, dtype=float)
        e_bob = np.exp(1j * self.k0 * (self.bob_p @ t[:, None, :, None]))[..., 0]  # (S, K, L)
        e_eve = np.exp(1j * self.k0 * (self.eve_p @ t[:, :, None]))  # (S, L, 1)
        h_b = np.einsum("skl,kl->sk", e_bob, self.bob_sigma)
        h_e = ((self.eve_rx * self.eve_sigma) @ e_eve)[..., 0]
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
        return -1j * self.k0 * (terms @ self.bob_p[k])

    def jac_eve_batch(self, m: int, n: int, eve_sigma: np.ndarray) -> np.ndarray:
        """d conj(h_eve[m][n]) / d(x_n, y_n, z_n) per draw: (S, L) -> (S, 3)."""
        terms = np.conj(eve_sigma * (self._e_eve_tx[n, :] * self.eve_rx[m]))
        return -1j * self.k0 * (terms @ self.eve_p)

    def jac_bob(self, k: int, n: int) -> np.ndarray:
        """d conj(h_bob[k][n]) / d(x_n, y_n, z_n), shape (3,) complex."""
        return self.jac_bob_batch(k, n, self.bob_sigma[k][None])[0]

    def jac_eve(self, m: int, n: int) -> np.ndarray:
        """d conj(h_eve[m][n]) / d(x_n, y_n, z_n), shape (3,) complex."""
        return self.jac_eve_batch(m, n, self.eve_sigma[None])[0]

    def realization(self) -> ChannelRealization:
        bob_paths = tuple(
            ps.with_sigma(self.bob_sigma[k]) for k, ps in enumerate(self.bob_paths)
        )
        return ChannelRealization(
            self.h_bob.copy(),
            self.h_eve.copy(),
            bob_paths,
            self.eve_paths.with_sigma(self.eve_sigma),
            self.eve_positions,
            self.wavelength,
        )
