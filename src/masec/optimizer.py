"""Joint beamforming and antenna-position optimization.

The solver alternates two projected-gradient-ascent stages for a fixed
worst-user / best-Eve pair: an AdaGrad ascent on the worst user's beam column
projected back onto the total-power ball, and a per-antenna AdaGrad ascent on
each movable position, clamped to its box and kept only if it keeps the
spacing rule.  A simulated-annealing outer loop re-selects the pair each
iteration, accepts improvements always and regressions with probability
exp(dR/T), cools the temperature geometrically, and tracks the best accepted
solution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelWorkspace
from .geometry import ArrayLayout, complex_norm, project_move, vector_norm
from .gradients import grad_t_batch, grad_w_batch
from .metrics import Beamformer, SecrecyReport, power_budget, secrecy_report

if TYPE_CHECKING:
    from .harness import ScenarioConfig

__all__ = [
    "OptimizerInvariantError",
    "AdaGradState",
    "Solution",
    "TraceRecord",
    "PgaWStats",
    "PgaTStats",
    "init_beamformer",
    "metropolis_accept",
    "pga_w",
    "pga_t",
    "sa_pga",
]


class OptimizerInvariantError(RuntimeError):
    """A stage of ``sa_pga`` raised a ``ValueError`` on a scenario that built fine."""


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
    feasible: bool  # the power check, True since Beamformer refuses a non-finite or over-budget matrix
    nonfinite: bool = False  # a PGA stage stopped on a non-finite gradient


@dataclass
class PgaWStats:
    iterations: int = 0  # steps taken
    proj_fired: bool = False
    max_proj_power_err: float = 0.0
    stop: str = "cap"  # why the loop ended: "tau", "cap" or "nonfinite"

    @property
    def nonfinite(self) -> bool:
        """The loop stopped on a non-finite gradient."""
        return self.stop == "nonfinite"


@dataclass
class PgaTStats:
    # Per movable antenna, in visiting order: steps taken and why its loop
    # ended ("tau", "cap" or "nonfinite").
    steps: list[int] = dataclasses.field(default_factory=list)
    stops: list[str] = dataclasses.field(default_factory=list)

    @property
    def nonfinite(self) -> bool:
        """Some antenna's loop stopped on a non-finite gradient."""
        return "nonfinite" in self.stops


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
        norm = complex_norm(h[k])
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
    ``sampler`` of the pair's two links only, user k's and then Eve's, takes
    an AdaGrad step, and rescales the column whenever the update would push
    the total power above the budget, landing exactly on it.
    Stops once the post-projection move is below tau_w, the iteration cap is
    hit, or the gradient turns non-finite (the last feasible iterate is
    returned); ``stats`` counts the steps and names the stop.  Only column k
    changes.  The draws are folded in gain space: ``C`` holds E^T conj(w)
    for the pair's phases E, and a step refreshes only its column k.
    """
    w = W.w.copy()
    num_antennas, num_users = w.shape
    col = w[:, k]  # the column this stage moves, a view into w
    p_max = W.p_max
    p_other = float(np.sum(np.abs(w) ** 2) - np.sum(np.abs(col) ** 2))
    ada = AdaGradState(np.zeros(2 * num_antennas), cfg.delta_w)
    stats = PgaWStats()
    E = ws.pair_phases(k)  # (N, 2L)
    C = (E.T @ np.conj(w)).reshape(2, -1, num_users)  # conj(y) = G @ C
    for _ in range(cfg.cap_w()):
        G = sampler.draw_batch(cfg.m_w, (k,))  # (2, S, L): [user k; Eve] gains per draw
        G[1] *= ws.eve_rx[m]
        g = grad_w_batch(G, C, E, k, noise)
        if not np.isfinite(g).all():
            stats.stop = "nonfinite"
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
            stats.stop = "tau"
            break
        C[:, :, k] = (E.T @ np.conj(col)).reshape(2, -1)
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
    gradients averaged over cfg.m_t gain draws of the pair's two links only,
    user k's and then Eve's.  Every candidate goes through ``project_move``:
    it is clamped to the antenna's box and, if it then comes closer than
    d_min to another movable antenna's current position, rejected in favor
    of the current position, so every step keeps the whole layout feasible.
    An antenna's loop stops once its move is below tau_t, at the iteration
    cap, or when the gradient turns non-finite (the antenna keeps its last
    feasible position); ``stats`` records each antenna's steps and stop.
    During antenna n's loop only its own (2, L) pair phases change, so the
    other antennas' share of E^T conj(W) is summed once per antenna, and
    ``move_antenna`` brings the workspace to the antenna's final position
    when its loop ends.  The workspace is left at the returned layout.
    """
    if not np.array_equal(ws.positions, layout.positions):
        raise ValueError("workspace and layout positions disagree")
    stats = PgaTStats()
    d_min, tau, k0 = layout.d_min, cfg.tau_t, ws.k0
    P = np.stack([ws.bob_p[k], ws.eve_p])  # (2, L, 3) the pair's path directions
    w_conj = np.conj(W.w)
    movable = layout.movable_indices().tolist()
    for j, n in enumerate(movable):
        lower, upper = layout.lower[n], layout.upper[n]
        others = ws.positions[movable[:j] + movable[j + 1:]]  # they stand still during n's loop
        E = ws.pair_phases(k)
        rest = np.arange(ws.num_antennas) != n
        C_rest = (E[rest].T @ w_conj[rest]).reshape(2, -1, w_conj.shape[1])  # every antenna but n
        phase = E[n].reshape(2, -1, 1)  # antenna n's phases per receiver
        w_n, w_conj_n = W.w[n], w_conj[n]
        current = ws.positions[n].copy()
        ada = AdaGradState(np.zeros(3), cfg.delta_t)
        steps, stop = 0, "cap"
        try:
            for _ in range(cfg.cap_t()):
                G = sampler.draw_batch(cfg.m_t, (k,))  # (2, S, L): [user k; Eve] gains per draw
                G[1] *= ws.eve_rx[m]
                C = phase * w_conj_n
                C += C_rest
                g = grad_t_batch(G, C, phase, P, w_n, k, k0, noise)
                if not np.isfinite(g).all():
                    stop = "nonfinite"
                    break
                steps += 1
                candidate = current + ada.update(g) * g
                new_pos = project_move(candidate, current, lower, upper, others, d_min)
                move = vector_norm(new_pos - current)
                current = new_pos
                if move < tau:
                    stop = "tau"
                    break
                # The bits move_antenna gives the pair's phases at this position.
                phase = np.exp(1j * k0 * (P @ current[:, None]))
        finally:
            ws.move_antenna(n, current)
        stats.steps.append(steps)
        stats.stops.append(stop)
    return dataclasses.replace(layout, positions=ws.positions.copy()), stats


def _restore_positions(ws: ChannelWorkspace, layout: ArrayLayout):
    for n in layout.movable_indices():
        if not np.array_equal(ws.positions[n], layout.positions[n]):
            ws.move_antenna(int(n), layout.positions[n])


def sa_pga(scenario, rng: np.random.Generator, cfg: ScenarioConfig) -> tuple[Solution, list[TraceRecord], float]:
    """Simulated-annealing outer loop over the two PGA stages.

    Runs exactly cfg.i_ter iterations.  Each iteration re-selects the worst
    user and best Eve position on the incumbent, improves the beam column and
    the movable positions, and feeds the resulting worst-user secrecy rate to
    the Metropolis rule; rejected proposals revert both variables.  Returns
    the best accepted solution, the full per-iteration trace, and the final
    temperature: cfg.t0 cooled by cfg.beta once per iteration.  A stage's
    ``ValueError``, an infeasibility among them, is raised as
    ``OptimizerInvariantError``.
    """
    rng_gains, rng_accept = rng.spawn(2)
    sampler = scenario.gain_sampler(rng_gains)
    noise = scenario.cfg.noise
    # The channel is back at the incumbent's layout whenever a new iteration
    # starts, so the incumbent's stored report need not be recomputed.
    prev = scenario.initial
    ws = scenario.workspace(prev.layout)
    best = prev
    temperature = cfg.t0
    trace: list[TraceRecord] = []
    for it in range(cfg.i_ter):
        k, m = prev.report.worst_k, prev.report.best_m
        try:
            w_op, wstats = pga_w(ws, prev.W, k, m, noise, cfg, sampler)
            layout_op, tstats = pga_t(ws, prev.layout, w_op, k, m, noise, cfg, sampler)
            rep_op = secrecy_report(ws, w_op, noise)
        except ValueError as exc:  # the scenario built fine, so the optimizer is at fault
            raise OptimizerInvariantError(str(exc)) from exc
        r_op = rep_op.worst_secrecy
        accepted = metropolis_accept(r_op, prev.secrecy, temperature, rng_accept)
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
                temperature=temperature,
                power=power,
                proj_fired=wstats.proj_fired,
                proj_power_err=wstats.max_proj_power_err,
                feasible=power <= power_budget(w_op.p_max),
                nonfinite=wstats.nonfinite or tstats.nonfinite,
            )
        )
        temperature *= cfg.beta
    return best, trace, temperature
