"""SINRs, achievable rates, and the worst-user secrecy objective.

Rates are log2(1 + SINR) in bits/s/Hz.  A user's secrecy rate is its own rate
minus the best rate any virtual-Eve position achieves against it, floored at
zero.  The optimizer works on the unfloored difference for one fixed
(worst user, best Eve) pair, selected by exhaustive enumeration.

Every rate here comes from one batched kernel, :func:`rates`, over stacked
channel rows: the secrecy report and the fixed-pair objective both read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Beamformer",
    "SecrecyReport",
    "rates",
    "secrecy_rates",
    "secrecy_report",
    "pair_objective",
    "power_budget",
]

POWER_TOL = 1e-9  # slack of the power check per watt of budget, and at least this many watts


def power_budget(p_max: float) -> float:
    """The most total power the power check accepts: p_max plus a slack that scales with it."""
    return p_max + POWER_TOL * max(1.0, p_max)


@dataclass(frozen=True)
class Beamformer:
    """N x K beamforming matrix (column k serves user k) with a total power cap."""

    w: np.ndarray  # (N, K) complex
    p_max: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        object.__setattr__(self, "w", w)
        if w.ndim != 2:
            raise ValueError(f"beamformer must be a matrix, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("beamformer entries must be finite")
        if not self.p_max > 0:
            raise ValueError(f"need p_max > 0, got {self.p_max}")
        if self.total_power() > power_budget(self.p_max):
            raise ValueError(
                f"power {self.total_power():.6g} exceeds budget {self.p_max:.6g}"
            )

    def total_power(self) -> float:
        """trace(W W^H) = sum of squared column norms."""
        return float(np.sum(np.abs(self.w) ** 2))


def rates(H: np.ndarray, w: np.ndarray, noise: float) -> np.ndarray:
    """log2(1 + SINR) of every stream at every receiver: (..., R, N) -> (..., R, K).

    Entry [..., r, k] treats stream k as signal and the other K - 1 streams as
    interference at receiver row r.  The powers |h_r^H w_k|^2 come from a
    stacked (..., R, 1, N) @ (N, K) product: it runs the same matrix-vector
    kernel per row as ``np.conj(h) @ w`` does for a single row, so a batch
    gives the bits of a per-row loop.  A 2-D (R, N) @ (N, K) product runs a
    matrix-matrix kernel that differs in the last bits.
    """
    if not noise > 0:
        raise ValueError(f"need noise > 0, got {noise}")
    p = np.abs(np.conj(H)[..., None, :] @ w)[..., 0, :] ** 2
    return np.log2(1.0 + p / (p.sum(axis=-1, keepdims=True) - p + noise))


def secrecy_rates(H: np.ndarray, w: np.ndarray, noise: float, num_bobs: int):
    """Rates and floored secrecy rates for stacked channels H = [h_bob; h_eve].

    H: (..., K + M, N) with the K user rows first.  Returns rate_bob (..., K),
    each user's rate on its own stream; rate_eve (..., M, K); and the secrecy
    rates (..., K), floored at zero.
    """
    r = rates(H, w, noise)
    users = np.arange(num_bobs)
    rate_bob = r[..., users, users]
    rate_eve = r[..., num_bobs:, :]
    return rate_bob, rate_eve, np.maximum(rate_bob - rate_eve.max(axis=-2), 0.0)


@dataclass(frozen=True)
class SecrecyReport:
    """Per-user rates, per-(Eve, user) rates, and the worst-case selection."""

    rate_bob: np.ndarray  # (K,)
    rate_eve: np.ndarray  # (M, K)
    secrecy: np.ndarray  # (K,) floored at zero
    worst_k: int
    best_m: int

    @property
    def worst_secrecy(self) -> float:
        return float(self.secrecy[self.worst_k])


def secrecy_report(ch, W: Beamformer, noise: float) -> SecrecyReport:
    """Rates for all (user, Eve) pairs plus the exhaustive worst/best selection.

    worst_k minimizes the floored secrecy rate over users, best_m maximizes
    the Eve rate against that user; ties break to the lowest index.
    """
    rate_bob, rate_eve, secrecy = secrecy_rates(ch.h, W.w, noise, ch.h_bob.shape[0])
    worst_k = int(np.argmin(secrecy))
    best_m = int(np.argmax(rate_eve[:, worst_k]))
    return SecrecyReport(rate_bob, rate_eve, secrecy, worst_k, best_m)


def pair_objective(h_b: np.ndarray, h_e: np.ndarray, w: np.ndarray, k: int, noise: float) -> float:
    """Unfloored rate difference for one (user, Eve) pair from raw channel vectors.

    May be negative: zeroing user k's beam always restores nonnegativity, so
    dropping the floor does not change the optimum.  Takes a raw beam matrix
    so the finite-difference oracle can evaluate unvalidated ones.
    """
    r = rates(np.stack([h_b, h_e]), w, noise)[:, k]
    return float(r[0] - r[1])
