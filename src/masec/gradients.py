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
channel row is built.  ``masec.audit`` checks both by central differences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grad_w_batch", "grad_t_batch"]

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
