"""Reference oracles for the channel tests: per-link samplers and per-antenna path sums.

The program draws a rep's angles and gains in ``harness.draw_common_channel``
and builds its channel rows in ``ChannelWorkspace``; these loops restate
both one link and one antenna at a time, so the tests can check the
program's stream and rows against them.
"""

import numpy as np

from masec.channel import PathSet


def bob_channel_pathsum(positions: np.ndarray, paths: PathSet, lam: float) -> np.ndarray:
    """A user's channel row: per-antenna weighted path sum."""
    k0 = 2 * np.pi / lam
    return np.array(
        [np.sum(paths.sigma * np.exp(1j * k0 * (paths.p @ t))) for t in positions]
    )


def eve_channel_pathsum(
    positions: np.ndarray, r_m: np.ndarray, paths: PathSet, lam: float
) -> np.ndarray:
    """An Eve channel row: sum of sigma_l e^{j k0 (t - r).p_l}."""
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
    """Complex Gaussian path gains, per-path variance (g0/L) * dist^-alpha.

    One ``standard_normal(L)`` call for the real parts, then one for the
    imaginary parts.
    """
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
