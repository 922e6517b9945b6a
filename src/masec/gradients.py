"""Analytic ascent directions for the fixed-pair rate objective.

Two gradients drive the optimizer: the complex gradient with respect to the
worst user's beam column, and the real 3-vector gradient with respect to one
antenna's position.  Both follow from the quotient/chain rule applied to

    f = log2(1 + chi/alpha) - log2(1 + gamma/beta)

with chi/gamma the own-signal powers and alpha/beta the interference-plus-
noise terms at the worst user and at the selected Eve position.  The complex
gradient uses the convention Re(g) = df/dRe(w), Im(g) = df/dIm(w), i.e. twice
the conjugate Wirtinger derivative, which is the steepest-ascent direction;
d|s|^2/dc pairs the derivative with the conjugate factor, 2*Re(conj(s)*ds/dc).
Both are averaged over S gain draws in gain space: a draw's channel row is its
L path gains times the (N, L) transmit phases, so the draws are summed per
path before the one N-wide (beam) or 3-wide (position) product, and no
channel row is built.  A central-difference oracle doubles as the
correctness audit for both.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelWorkspace, FrozenGains
from .metrics import Beamformer, pair_objective

__all__ = [
    "grad_w_batch",
    "grad_t_batch",
    "fd_oracle",
    "fd_grad_w",
    "fd_grad_t",
    "pair_inputs",
    "random_instance",
    "run_fd_audit",
]

_LN2 = np.log(2.0)


def grad_w_batch(G: np.ndarray, C: np.ndarray, E: np.ndarray, k: int, noise: float) -> np.ndarray:
    """Beam-column gradient averaged over S gain draws of one (user, Eve) pair.

    G: (2, S, L) the draws' path gains, user k's and Eve's (times her receive
    phases); E: (N, 2L) the pair's transmit phases, user k's paths beside
    Eve's (``ChannelWorkspace.pair_phases``); C: (2, L, K) = E_r^T conj(w) per
    receiver r, so conj(y) = G @ C.  Each draw's channel row is G_r E_r^T, so
    the draws are summed in gain space before the one N-wide product.
    Returns the (N,) complex mean gradient.
    """
    Y = G @ C  # conj(y): (2, S, K)
    den = np.add.reduce(np.abs(Y) ** 2, 2)  # full receive power
    den += noise
    a = np.conj(Y[:, :, k]) / den
    a[1] *= -1.0  # the user's term minus Eve's
    v = a[:, None, :] @ G  # (2, 1, L): the draws summed per path
    return (E @ v.ravel()) * (2.0 / (G.shape[1] * _LN2))


def grad_t_batch(
    G: np.ndarray, C: np.ndarray, e_n: np.ndarray, P: np.ndarray, w_n: np.ndarray, k: int, k0: float, noise: float
) -> np.ndarray:
    """Position gradient of antenna n averaged over S gain draws of one (user, Eve) pair.

    G and C as for ``grad_w_batch``; e_n: (2, L, 1) antenna n's transmit
    phases per receiver; P: (2, L, 3) the pair's path directions; w_n: (K,)
    row n of the beam.  Returns the (3,) real mean gradient.

    Per receiver, with own = chi (gamma at Eve), rest = alpha (beta) and
    coef_j = conj(y_j) w_n[j], d/dt log2(1 + own/rest) is
    2 Re(c dconj(h_n)/dt) / ln 2 with
    c = (coef_k rest - (sum_j coef_j - coef_k) own) / (rest (rest + own)),
    and dconj(h_n)/dt = -j k0 (conj(g) conj(e_n)) @ P for the draw's gains g,
    so the draws fold into c @ conj(G) before the 3-wide product.
    """
    Y = G @ C  # conj(y): (2, S, K)
    power = np.abs(Y) ** 2
    own = power[:, :, k]
    rest = np.add.reduce(power, 2)
    rest -= own
    rest += noise
    coef = Y * w_n  # (2, S, K)
    coef_k = coef[:, :, k]
    others = np.add.reduce(coef, 2)
    others -= coef_k  # exactly 0 at K = 1, where own / rest can be large
    c = np.conj((coef_k * rest - others * own) / (rest * (rest + own)))
    c[1] *= -1.0  # the user's term minus Eve's
    u = (c[:, None, :] @ G).ravel()  # (2L,): the draws summed per path, conjugated
    u *= e_n.ravel()  # conj((c @ conj(G)) conj(e_n))
    # Re(-j conj(u) @ P) = -Im(u) @ P, as P is real
    return (u.imag @ P.reshape(-1, 3)) * (-2.0 * k0 / (G.shape[1] * _LN2))


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
    from .harness import ScenarioConfig, draw_common_channel  # harness imports this module via optimizer

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
    included.  Returns the worst relative L2 errors, 'max_err_w' and 'max_err_t'.
    """
    from .harness import ScenarioConfig  # harness imports this module via optimizer

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
        max_w = max(max_w, float(err_w))
        max_t = max(max_t, float(err_t))
    return {"instances": instances, "seed": seed, "max_err_w": max_w, "max_err_t": max_t}
