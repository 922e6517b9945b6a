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
A central-difference oracle doubles as the correctness audit for both.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelWorkspace
from .metrics import Beamformer, pair_objective

__all__ = [
    "grad_w_batch",
    "grad_t_batch",
    "fd_oracle",
    "fd_grad_w",
    "fd_grad_t",
    "random_instance",
    "run_fd_audit",
]

_LN2 = np.log(2.0)


def grad_w_batch(H: np.ndarray, w: np.ndarray, k: int, noise: float) -> np.ndarray:
    """Beam-column gradient for a batch of gain draws.

    H: (2, S, N) stacked channel rows per draw, H[0] the worst user's and
    H[1] the selected Eve position's; w: (N, K).  One pass serves both
    receivers.  Returns (S, N) complex gradients.
    """
    y = np.conj(H) @ w  # (2, S, K)
    # np.add.reduce is .sum without its Python wrapper: the same bits.
    den = np.add.reduce(np.abs(y) ** 2, 2)  # full receive power
    den += noise
    q = 2.0 * H * y[:, :, k : k + 1] / den[:, :, None]
    return (q[0] - q[1]) / _LN2


def grad_t_batch(H: np.ndarray, J: np.ndarray, w: np.ndarray, n: int, k: int, noise: float) -> np.ndarray:
    """Position gradient of antenna n for a batch of gain draws.

    H: (2, S, N) stacked [user; Eve] channel rows as for ``grad_w_batch``;
    J: (2, S, 3) the matching derivatives of the conjugated n-th channel
    entry with respect to (x_n, y_n, z_n).  Returns (S, 3) real gradients.

    Per receiver, with own = chi (gamma at Eve) and rest = alpha (beta):
    d/dt log2(1 + own/rest) = rest/(rest + own) * (d_own*rest - d_rest*own) / rest**2 / ln 2,
    the user's term minus Eve's.  The real-valued steps run in place; each
    element still takes the same operations in the same order.
    """
    y = np.conj(H) @ w  # (2, S, K)
    power = np.abs(y) ** 2
    own = power[:, :, k].copy()  # contiguous, so the real steps below take the fast loops
    rest = np.add.reduce(power, 2)
    rest -= own
    rest += noise

    # d|y_j|^2/dc = 2 Re(conj(y_j) * w[n,j] * J[c]); only antenna n moves.
    # The row w[n : n + 1] stays (1, K): broadcasting a 1-D row runs another
    # loop, which changes the last bits in some cases.
    coef = np.conj(y) * w[n : n + 1]  # (2, S, K)
    d_own = (coef[:, :, k : k + 1] * J).real * 2.0
    d_rest = ((np.add.reduce(coef, 2) - coef[:, :, k])[:, :, None] * J).real * 2.0

    weight = rest / (rest + own)
    quot = d_own * rest[:, :, None]
    d_rest *= own[:, :, None]
    quot -= d_rest
    quot /= (rest * rest)[:, :, None]
    quot *= weight[:, :, None]
    g = quot[0] - quot[1]
    g /= _LN2
    return g


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


def random_instance(rng: np.random.Generator, num_antennas=9, num_bobs=5, num_eves=3, num_paths=3):
    """One random (workspace, beamformer) problem instance for gradient audits."""
    from .harness import ScenarioConfig, draw_common_channel  # harness imports this module via optimizer

    cfg = ScenarioConfig(num_antennas=num_antennas, num_bobs=num_bobs, num_eves=num_eves, num_paths=num_paths)
    positions = rng.uniform(0.0, 4 * cfg.wavelength, size=(num_antennas, 3))
    draw = draw_common_channel(cfg, rng)
    ws = ChannelWorkspace(positions, draw.bob_paths, draw.eve_paths, draw.eve_positions, cfg.wavelength)
    w = rng.standard_normal((num_antennas, num_bobs)) + 1j * rng.standard_normal(
        (num_antennas, num_bobs)
    )
    w *= np.sqrt(cfg.p_max / np.sum(np.abs(w) ** 2))
    return ws, Beamformer(w, cfg.p_max)


def run_fd_audit(
    instances: int = 100,
    seed: int = 0,
    noise: float = 0.0005,
    step_w: float = 1e-6,
    step_t: float = 1e-9,
) -> dict:
    """Compare analytic gradients against the FD oracle on random instances.

    Returns the worst relative L2 errors observed, keyed 'max_err_w' and
    'max_err_t'.
    """
    rng = np.random.default_rng(seed)
    max_w = 0.0
    max_t = 0.0
    for _ in range(instances):
        ws, W = random_instance(rng)
        k = int(rng.integers(ws.h_bob.shape[0]))
        m = int(rng.integers(ws.h_eve.shape[0]))
        n = int(rng.integers(ws.num_antennas))
        H = np.stack([ws.h_bob[k], ws.h_eve[m]])[:, None, :]
        g_an = grad_w_batch(H, W.w, k, noise)[0]
        g_fd = fd_grad_w(ws, W, k, m, noise, step_w)
        stack = lambda g: np.concatenate([g.real, g.imag])
        err_w = np.linalg.norm(stack(g_an - g_fd)) / np.linalg.norm(stack(g_fd))
        J = np.stack(
            [ws.jac_bob_batch(k, n, ws.bob_sigma[k][None]), ws.jac_eve_batch(m, n, ws.eve_sigma[None])]
        )
        t_an = grad_t_batch(H, J, W.w, n, k, noise)[0]
        t_fd = fd_grad_t(ws, W, n, k, m, noise, step_t)
        err_t = np.linalg.norm(t_an - t_fd) / np.linalg.norm(t_fd)
        max_w = max(max_w, float(err_w))
        max_t = max(max_t, float(err_t))
    return {"instances": instances, "seed": seed, "max_err_w": max_w, "max_err_t": max_t}
