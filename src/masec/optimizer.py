"""Joint beamforming and antenna-position optimization.

The solver alternates two projected-gradient-ascent stages for a fixed
worst-user / best-Eve pair: an AdaGrad ascent on the worst user's beam column
projected back onto the total-power ball, and a per-antenna AdaGrad ascent on
each movable position projected onto its box and spacing constraints.  A
simulated-annealing outer loop re-selects the pair each iteration, accepts
improvements always and regressions with probability exp(dR/T), cools the
temperature geometrically, and tracks the best accepted solution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelWorkspace
from .geometry import ArrayLayout, complex_norm, project_move, vector_norm
from .gradients import grad_t_batch, grad_w_batch
from .metrics import POWER_TOL, Beamformer, SecrecyReport, secrecy_report

if TYPE_CHECKING:
    from .harness import ScenarioConfig

__all__ = [
    "AdaGradState",
    "Solution",
    "SaState",
    "TraceRecord",
    "PgaWStats",
    "PgaTStats",
    "init_beamformer",
    "metropolis_accept",
    "pga_w",
    "pga_t",
    "sa_pga",
]


@dataclass
class AdaGradState:
    """Per-coordinate squared-gradient accumulator with base step delta.

    The effective step delta/sqrt(acc + eps) never increases for any
    coordinate.
    """

    acc: np.ndarray
    delta: float
    eps: float = 1e-8

    def update(self, grad: np.ndarray) -> np.ndarray:
        """Accumulate grad**2 and return the per-coordinate step sizes."""
        self.acc += grad * grad
        return self.delta / np.sqrt(self.acc + self.eps)


@dataclass(frozen=True)
class Solution:
    """One feasible (layout, beamformer) pair and its secrecy report on that layout."""

    layout: ArrayLayout
    W: Beamformer
    report: SecrecyReport

    @property
    def secrecy(self) -> float:
        return self.report.worst_secrecy

    @property
    def worst_k(self) -> int:
        """The solution's own worst user."""
        return self.report.worst_k

    @property
    def best_m(self) -> int:
        """The solution's own best Eve position against its worst user."""
        return self.report.best_m


@dataclass
class SaState:
    """Annealing bookkeeping: the temperature and the incumbent (last accepted) solution."""

    temperature: float
    previous: Solution


@dataclass(frozen=True)
class TraceRecord:
    """One outer iteration of the annealed search."""

    iteration: int
    objective: float
    accepted: bool
    temperature: float
    power: float
    proj_fired: bool
    proj_power_err: float
    feasible: bool  # the power check; the layout half is enforced when the layout is built
    nonfinite: bool = False  # a PGA stage stopped on a non-finite gradient


@dataclass
class PgaWStats:
    iterations: int = 0
    proj_fired: bool = False
    max_proj_power_err: float = 0.0
    nonfinite: bool = False  # stopped on a non-finite gradient


@dataclass
class PgaTStats:
    nonfinite: bool = False  # some antenna's loop stopped on a non-finite gradient


def init_beamformer(ch, p_max: float) -> Beamformer:
    """Per-user matched beams with an equal power split.

    Column k points along Bob k's channel with squared norm p_max/K, so the
    total power is exactly p_max.  A zero channel falls back to a uniform
    vector.
    """
    h = ch.h_bob
    num_users, num_antennas = h.shape
    w = np.empty((num_antennas, num_users), dtype=complex)
    col_amp = np.sqrt(p_max / num_users)
    for k in range(num_users):
        norm = np.linalg.norm(h[k])
        if norm > 0.0:
            w[:, k] = col_amp * h[k] / norm
        else:
            w[:, k] = col_amp * np.ones(num_antennas) / np.sqrt(num_antennas)
    return Beamformer(w, p_max)


def metropolis_accept(r_new: float, r_prev: float, temp: float, rng: np.random.Generator) -> bool:
    """Accept improvements always, regressions with probability exp(dR/temp).

    temp <= 0 degenerates to a pure hill-climb (never accept worse).
    """
    if r_new > r_prev:
        return True
    if temp <= 0.0:
        return False
    return bool(rng.random() < np.exp((r_new - r_prev) / temp))


def pga_w(
    ws: ChannelWorkspace,
    W: Beamformer,
    k: int,
    m: int,
    noise: float,
    cfg: ScenarioConfig,
    sampler,
) -> tuple[Beamformer, PgaWStats]:
    """Projected gradient ascent on beam column k with the pair (k, m) fixed.

    Each iteration averages the gradient over cfg.m_w gain draws from
    ``sampler``, takes an AdaGrad step, and rescales the column whenever the
    update would push the total power above the budget, landing exactly on it.
    Stops once the post-projection move is below tau_w, the iteration cap is
    hit, or the gradient turns non-finite (the last feasible iterate is
    returned and ``stats.nonfinite`` is set).  Only column k changes.
    """
    w = W.w.copy()
    num_antennas = w.shape[0]
    col = w[:, k]  # the column this stage moves, a view into w
    p_max = W.p_max
    p_other = float(np.sum(np.abs(w) ** 2) - np.sum(np.abs(col) ** 2))
    ada = AdaGradState(np.zeros(2 * num_antennas), cfg.delta_w)
    stats = PgaWStats()
    draws = cfg.m_w
    H = np.empty((2, draws, num_antennas), dtype=complex)  # [user k; Eve m] rows per draw
    for _ in range(cfg.cap_w()):
        bob_sig, eve_sig = sampler.draw_batch(draws)
        H[0] = ws.h_bob_batch(k, bob_sig[:, k, :])
        H[1] = ws.h_eve_batch(m, eve_sig)
        # The mean over the draws; sum / count has mean's bits without its call overhead.
        g = grad_w_batch(H, w, k, noise).sum(axis=0) / draws
        if not np.isfinite(g).all():
            stats.nonfinite = True
            break
        stats.iterations += 1
        step = ada.update(np.concatenate([g.real, g.imag]))
        new_col = col + step[:num_antennas] * g.real + 1j * step[num_antennas:] * g.imag
        col_power = float((np.abs(new_col) ** 2).sum())
        if p_other + col_power > p_max and col_power > 0.0:
            new_col *= np.sqrt(max(p_max - p_other, 0.0) / col_power)
            stats.proj_fired = True
            err = abs(p_other + (np.abs(new_col) ** 2).sum() - p_max)
            stats.max_proj_power_err = max(stats.max_proj_power_err, float(err))
        move = complex_norm(new_col - col)
        col[:] = new_col
        if move < cfg.tau_w:
            break
    return Beamformer(w, p_max), stats


def pga_t(
    ws: ChannelWorkspace,
    layout: ArrayLayout,
    W: Beamformer,
    k: int,
    m: int,
    noise: float,
    cfg: ScenarioConfig,
    sampler,
) -> tuple[ArrayLayout, PgaTStats]:
    """Per-antenna projected gradient ascent over the movable positions.

    Antennas are visited in index order; each runs its own AdaGrad loop with
    gradients averaged over cfg.m_t gain draws.  Every candidate goes through
    ``project_move`` against both spacing neighbours' current positions, so
    every step keeps the whole layout feasible; a candidate that cannot be
    made feasible is rejected in favor of the current position.  An antenna's
    loop stops once its move is below tau_t, at the iteration cap, or when the
    gradient turns non-finite (the antenna keeps its last feasible position
    and ``stats.nonfinite`` is set).  The workspace is left at the returned
    layout.
    """
    if not np.array_equal(ws.positions, layout.positions):
        raise ValueError("workspace and layout positions disagree")
    stats = PgaTStats()
    draws, d_min, tau = cfg.m_t, layout.d_min, cfg.tau_t
    H = np.empty((2, draws, ws.num_antennas), dtype=complex)  # [user k; Eve m] rows per draw
    J = np.empty((2, draws, 3), dtype=complex)  # their Jacobians at antenna n
    for n in layout.movable_indices().tolist():
        lower, upper = layout.lower[n], layout.upper[n]
        # The neighbours stand still during n's loop; the one before has already had its turn.
        before, after = (None if i is None else ws.positions[i] for i in layout.neighbours(n))
        current = ws.positions[n]  # a view: follows every move of antenna n
        ada = AdaGradState(np.zeros(3), cfg.delta_t)
        try:
            for _ in range(cfg.cap_t()):
                bob_sig, eve_sig = sampler.draw_batch(draws)
                bob_k = bob_sig[:, k, :]
                H[0] = ws.h_bob_batch(k, bob_k)
                H[1] = ws.h_eve_batch(m, eve_sig)
                J[0] = ws.jac_bob_batch(k, n, bob_k)
                J[1] = ws.jac_eve_batch(m, n, eve_sig)
                g = grad_t_batch(H, J, W.w, n, k, noise).sum(axis=0) / draws
                if not np.isfinite(g).all():
                    stats.nonfinite = True
                    break
                candidate = current + ada.update(g) * g
                new_pos = project_move(candidate, current, lower, upper, before, after, d_min)
                move = vector_norm(new_pos - current)
                ws.move_pair_phases(n, new_pos, k)
                if move < tau:
                    break
        finally:
            # The steps refreshed only what the pair reads; bring every user's
            # phases and both channel columns to the antenna's final position.
            ws.move_antenna(n, current)
    return dataclasses.replace(layout, positions=ws.positions.copy()), stats


def _restore_positions(ws: ChannelWorkspace, layout: ArrayLayout):
    for n in layout.movable_indices():
        if not np.array_equal(ws.positions[n], layout.positions[n]):
            ws.move_antenna(int(n), layout.positions[n])


def sa_pga(scenario, rng: np.random.Generator, cfg: ScenarioConfig) -> tuple[Solution, list[TraceRecord], SaState]:
    """Simulated-annealing outer loop over the two PGA stages.

    Runs exactly cfg.i_ter iterations.  Each iteration re-selects the worst
    user and best Eve position on the incumbent, improves the beam column and
    the movable positions, and feeds the resulting worst-user secrecy rate to
    the Metropolis rule; rejected proposals revert both variables.  Returns
    the best accepted solution, the full per-iteration trace, and the final
    annealing state.
    """
    rng_gains, rng_accept = rng.spawn(2)
    sampler = scenario.gain_sampler(rng_gains)
    noise = scenario.cfg.noise
    # The channel is back at the incumbent's layout whenever a new iteration
    # starts, so the incumbent's stored report need not be recomputed.
    prev = scenario.initial
    ws = scenario.workspace(prev.layout)
    best = prev
    state = SaState(cfg.t0, prev)
    trace: list[TraceRecord] = []
    for it in range(cfg.i_ter):
        k, m = prev.report.worst_k, prev.report.best_m
        w_op, wstats = pga_w(ws, prev.W, k, m, noise, cfg, sampler)
        layout_op, tstats = pga_t(ws, prev.layout, w_op, k, m, noise, cfg, sampler)
        rep_op = secrecy_report(ws, w_op, noise)
        r_op = rep_op.worst_secrecy
        accepted = metropolis_accept(r_op, prev.secrecy, state.temperature, rng_accept)
        if accepted:
            prev = Solution(layout_op, w_op, rep_op)
            if r_op > best.secrecy:
                best = prev
        else:
            _restore_positions(ws, prev.layout)
        power = w_op.total_power()
        trace.append(
            TraceRecord(
                iteration=it,
                objective=r_op,
                accepted=accepted,
                temperature=state.temperature,
                power=power,
                proj_fired=wstats.proj_fired,
                proj_power_err=wstats.max_proj_power_err,
                feasible=power <= w_op.p_max + POWER_TOL,
                nonfinite=wstats.nonfinite or tstats.nonfinite,
            )
        )
        state.temperature *= cfg.beta
        state.previous = prev
    return best, trace, state
