"""Finite-difference audit of the solver's two analytic gradients.

``grad_w_batch`` and ``grad_t_batch`` are checked against central differences
of one (user, Eve) pair's unfloored rate difference on random instances;
``masec check-grad`` runs :func:`run_fd_audit`.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelWorkspace, FrozenGains
from .gradients import grad_t_batch, grad_w_batch
from .harness import ScenarioConfig, draw_common_channel
from .metrics import Beamformer, rates

__all__ = [
    "pair_objective",
    "fd_oracle",
    "fd_grad_w",
    "fd_grad_t",
    "pair_inputs",
    "random_instance",
    "run_fd_audit",
]


def pair_objective(h_b: np.ndarray, h_e: np.ndarray, w: np.ndarray, k: int, noise: float) -> float:
    """Unfloored rate difference for one (user, Eve) pair from raw channel vectors.

    May be negative: zeroing user k's beam always restores nonnegativity, so
    dropping the floor does not change the optimum.  Takes a raw beam matrix
    so the finite-difference oracle can evaluate unvalidated ones.
    """
    r = rates(np.stack([h_b, h_e]), w, noise)[:, k]
    return float(r[0] - r[1])


def fd_oracle(f, x0: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient (f(x+h e_i) - f(x-h e_i)) / 2h per coordinate."""
    if not step > 0:
        raise ValueError(f"need step > 0, got {step}")
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e.flat[i] = step
        fp = f(x0 + e)
        fm = f(x0 - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"finite-difference oracle hit a non-finite value at coordinate {i}")
        g.flat[i] = (fp - fm) / (2.0 * step)
    return g


def fd_grad_w(ch, W: Beamformer, k: int, m: int, noise: float, step: float = 1e-6) -> np.ndarray:
    """Numeric counterpart of grad_w_batch via central differences on re/im parts."""
    h_b, h_e = ch.h_bob[k], ch.h_eve[m]
    n = W.w.shape[0]

    def f(x):
        w = W.w.copy()
        w[:, k] = x[:n] + 1j * x[n:]
        return pair_objective(h_b, h_e, w, k, noise)

    x0 = np.concatenate([W.w[:, k].real, W.w[:, k].imag])
    g = fd_oracle(f, x0, step)
    return g[:n] + 1j * g[n:]


def fd_grad_t(
    ws: ChannelWorkspace, W: Beamformer, n: int, k: int, m: int, noise: float, step: float = 1e-9
) -> np.ndarray:
    """Numeric counterpart of grad_t_batch; restores the workspace afterwards."""
    t0 = ws.positions[n].copy()

    def f(t):
        ws.move_antenna(n, t)
        return pair_objective(ws.h_bob[k], ws.h_eve[m], W.w, k, noise)

    try:
        return fd_oracle(f, t0, step)
    finally:
        ws.move_antenna(n, t0)


def pair_inputs(ws: ChannelWorkspace, w: np.ndarray, k: int, m: int, G=None):
    """The kernels' inputs (G, C, E, P) for user k and Eve m under a raw batch G (2, S, L).

    G is a sampler's ``draw_batch(S, (k,))`` and is left unchanged; without
    it, one draw of the workspace's own gains.  The rest as for
    ``grad_w_batch`` and ``grad_t_batch``.
    """
    G = FrozenGains(ws.bob_sigma, ws.eve_sigma).draw_batch(1, (k,)) if G is None else G.copy()
    G[1] *= ws.eve_rx[m]
    E = ws.pair_phases(k)
    C = (E.T @ np.conj(w)).reshape(2, -1, w.shape[1])
    return G, C, E, np.stack([ws.bob_p[k], ws.eve_p])


def random_instance(rng: np.random.Generator, cfg=None):
    """One random (workspace, beamformer) instance of cfg's shapes and physics (default ScenarioConfig())."""
    cfg = cfg or ScenarioConfig()
    N, K = cfg.num_antennas, cfg.num_bobs
    positions = rng.uniform(0.0, 4 * cfg.wavelength, size=(N, 3))
    draw = draw_common_channel(cfg, rng)
    ws = ChannelWorkspace(positions, draw.bob_paths, draw.eve_paths, draw.eve_positions, cfg.wavelength)
    w = rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))
    w *= np.sqrt(cfg.p_max / np.sum(np.abs(w) ** 2))
    return ws, Beamformer(w, cfg.p_max)


def run_fd_audit(
    instances: int = 100,
    seed: int = 0,
    cfg=None,
    step_w: float = 1e-6,
    step_t: float = 1e-9,
) -> dict:
    """Compare analytic gradients against the FD oracle on random instances of cfg.

    cfg (default ``ScenarioConfig()``) gives their shapes and physics, noise
    included.  Returns the worst relative L2 errors, 'max_err_w' and 'max_err_t',
    NaN if any instance's error is.
    """
    cfg = cfg or ScenarioConfig()
    rng = np.random.default_rng(seed)
    max_w = 0.0
    max_t = 0.0
    for _ in range(instances):
        ws, W = random_instance(rng, cfg)
        k = int(rng.integers(ws.h_bob.shape[0]))
        m = int(rng.integers(ws.h_eve.shape[0]))
        n = int(rng.integers(ws.num_antennas))
        G, C, E, P = pair_inputs(ws, W.w, k, m)
        g_an = grad_w_batch(G, C, E, k, cfg.noise)
        g_fd = fd_grad_w(ws, W, k, m, cfg.noise, step_w)
        stack = lambda g: np.concatenate([g.real, g.imag])
        err_w = np.linalg.norm(stack(g_an - g_fd)) / np.linalg.norm(stack(g_fd))
        t_an = grad_t_batch(G, C, E[n].reshape(2, -1, 1), P, W.w[n], k, ws.k0, cfg.noise)
        t_fd = fd_grad_t(ws, W, n, k, m, cfg.noise, step_t)
        err_t = np.linalg.norm(t_an - t_fd) / np.linalg.norm(t_fd)
        max_w = float(np.maximum(max_w, err_w))  # a NaN error stays the worst
        max_t = float(np.maximum(max_t, err_t))
    return {"instances": instances, "seed": seed, "max_err_w": max_w, "max_err_t": max_t}
