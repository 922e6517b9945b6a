"""Experiment harness: scenario construction, baselines, searches, and sweeps.

A scenario bundles one channel draw (user placements, path angles, path
gains, candidate Eve positions) with one transmit-array geometry.  Three
array kinds are supported: the optimizable corner-movable planar array
("MA"), and two fixed baselines, a half-wavelength line ("ULA") and a
half-wavelength square grid ("UPA").  Sweeps compare the three kinds under
common random numbers: every method of a replication consumes the identical
channel draw.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelWorkspace,
    FrozenGains,
    GainSampler,
    PathSet,
    build_realization,
)
from .geometry import _ATOL, ArrayLayout, InfeasibleRegionError, sample_virtual_eves
from .metrics import secrecy_rates, secrecy_report
from .optimizer import Solution, init_beamformer, sa_pga

__all__ = [
    "ScenarioConfig",
    "CommonDraw",
    "Scenario",
    "SweepResult",
    "OneDimSearchResult",
    "build_scenario",
    "draw_common_channel",
    "scenario_from_draw",
    "one_dim_search",
    "run_sweep",
    "sweep_cells",
]

# Each sweep variable and the config field its grid values set.
SWEEP_FIELDS = {"paths": "num_paths", "alpha": "alpha", "noise": "noise", "distance": "eve_distance"}
SWEEP_VARIABLES = tuple(SWEEP_FIELDS)
ARRAY_KINDS = ("MA", "ULA", "UPA")


@dataclass(frozen=True)
class ScenarioConfig:
    """All simulation parameters.  Units: meters, watts, dB, radians.

    Defaults are the reference operating point: a 28 GHz carrier
    (wavelength 0.0107 m), 5 users at 25-35 m, a 2 m-half-length Eve patch
    centered 50 m out, 9 antennas, 3 paths per link, 10 mW budget, 0.5 mW
    noise, and the annealing/step constants used throughout; the PGA stages
    and the annealing loop read their tunables from here.
    """

    wavelength: float = 0.0107
    num_bobs: int = 5
    num_eves: int = 3
    num_antennas: int = 9
    num_paths: int = 3
    bob_dist_min: float = 25.0
    bob_dist_max: float = 35.0
    eve_distance: float = 50.0
    eve_half_length: float = 2.0
    p_max: float = 0.01
    noise: float = 0.0005
    g0_db: float = 30.0
    alpha: float = 2.0
    array_kind: str = "MA"
    move_range: float | None = None  # box side A; default 4 * wavelength
    d_min: float | None = None  # default 4*wavelength (MA) or wavelength/2 (ULA/UPA)
    movable: str | None = None  # "corners" | "all" | "none" | comma-separated indices
    t0: float = 1.0
    beta: float = 0.9
    delta_w: float = 0.01
    delta_t: float = 0.001
    tau_w: float = 0.005
    tau_t: float = 0.0001
    i_ter: int = 1000
    m_w: int = 10
    m_t: int = 10
    inner_iter_w: int | None = None  # caps for the PGA loops; default i_ter
    inner_iter_t: int | None = None
    freeze_gains: bool = False
    seed: int = 0

    def __post_init__(self):
        # Physics values and the beam step must be finite; other solver tunables need not be
        # (t0 = inf is a random walk, and the box clamps a position step of delta_t = inf).
        for name in ("wavelength", "bob_dist_min", "bob_dist_max", "eve_distance", "eve_half_length",
                     "p_max", "noise", "g0_db", "alpha", "move_range", "d_min", "delta_w"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InfeasibleRegionError(f"{name} must be finite, got {value}")
        positive = {
            "wavelength": self.wavelength,
            "num_bobs": self.num_bobs,
            "num_eves": self.num_eves,
            "num_antennas": self.num_antennas,
            "num_paths": self.num_paths,
            "bob_dist_min": self.bob_dist_min,
            "eve_distance": self.eve_distance,
            "eve_half_length": self.eve_half_length,
            "p_max": self.p_max,
            "noise": self.noise,
            "i_ter": self.i_ter,
            "m_w": self.m_w,
            "m_t": self.m_t,
            "delta_w": self.delta_w,
            "delta_t": self.delta_t,
            "beta": self.beta,
        }
        for name, value in positive.items():
            if not value > 0:
                raise InfeasibleRegionError(f"{name} must be positive, got {value}")
        for name in ("inner_iter_w", "inner_iter_t"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise InfeasibleRegionError(f"{name} must be at least 1 when set, got {cap}")
        for name in ("tau_w", "tau_t", "t0", "move_range"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise InfeasibleRegionError(f"{name} must be nonnegative, got {value}")
        if self.beta > 1:
            raise InfeasibleRegionError(f"beta must be at most 1, got {self.beta}")
        if self.bob_dist_max < self.bob_dist_min:
            raise InfeasibleRegionError("bob_dist_max < bob_dist_min")
        if not self.eve_distance > self.eve_half_length:
            raise InfeasibleRegionError(
                f"need eve_distance > eve_half_length, got {self.eve_distance} and {self.eve_half_length}"
            )
        if self.array_kind not in ARRAY_KINDS:
            raise InfeasibleRegionError(f"array_kind must be one of {ARRAY_KINDS}")

    def resolved_move_range(self) -> float:
        return self.move_range if self.move_range is not None else 4.0 * self.wavelength

    def resolved_d_min(self) -> float:
        if self.d_min is not None:
            return self.d_min
        return 4.0 * self.wavelength if self.array_kind == "MA" else self.wavelength / 2.0

    def cap_w(self) -> int:
        return self.inner_iter_w if self.inner_iter_w is not None else self.i_ter

    def cap_t(self) -> int:
        return self.inner_iter_t if self.inner_iter_t is not None else self.i_ter

    def sa_config(self) -> ScenarioConfig:
        # Kept only for perfbench/workloads.py, which still calls it.
        return self


@dataclass(frozen=True)
class CommonDraw:
    """Geometry-independent randomness shared by all array kinds of one rep."""

    bob_positions: np.ndarray  # (K, 3)
    bob_distances: np.ndarray  # (K,)
    eve_positions: np.ndarray  # (M, 3)
    bob_paths: PathSet  # every user's paths, stacked (K, L)
    eve_paths: PathSet


@dataclass(frozen=True)
class Scenario:
    """One ready-to-optimize problem instance.

    ``draw`` is the rep's randomness, shared with every other array kind built
    on it.  ``initial`` is the matched-filter beam on ``layout`` with its
    secrecy report on ``channel``, the fresh channel of ``layout`` (never moved).
    """

    cfg: ScenarioConfig
    layout: ArrayLayout
    draw: CommonDraw
    initial: Solution
    channel: ChannelWorkspace = dataclasses.field(repr=False, compare=False)

    def workspace(self, layout: ArrayLayout | None = None) -> ChannelWorkspace:
        d = self.draw
        return build_realization(
            layout or self.layout, d.bob_paths, d.eve_paths, d.eve_positions, self.cfg.wavelength
        )

    def gain_sampler(self, rng: np.random.Generator):
        cfg = self.cfg
        if cfg.freeze_gains:
            return FrozenGains(self.draw.bob_paths.sigma, self.draw.eve_paths.sigma)
        return GainSampler(cfg.num_paths, cfg.g0_db, self.draw.bob_distances, cfg.eve_distance, cfg.alpha, rng)


def draw_common_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> CommonDraw:
    """Draw everything that does not depend on the transmit-array kind.

    Draw order is fixed, so one seed pins the whole rep; passing the same
    draw to several array kinds realizes common random numbers.
    """
    dists = rng.uniform(cfg.bob_dist_min, cfg.bob_dist_max, size=cfg.num_bobs)
    azimuth = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.num_bobs)
    bob_positions = np.column_stack(
        [dists * np.cos(azimuth), dists * np.sin(azimuth), np.zeros(cfg.num_bobs)]
    )
    eve_positions = sample_virtual_eves(cfg.eve_distance, cfg.eve_half_length, cfg.num_eves, rng)
    # Per user, L elevations then L azimuths in [-pi/2, pi/2]; Eve's elevations lie in [0, pi].
    theta, phi = rng.uniform(-np.pi / 2, np.pi / 2, size=(cfg.num_bobs, 2, cfg.num_paths)).transpose(1, 0, 2)
    eve_theta = rng.uniform(0.0, np.pi, size=cfg.num_paths)
    eve_phi = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.num_paths)
    gains = GainSampler(cfg.num_paths, cfg.g0_db, dists, cfg.eve_distance, cfg.alpha, rng)
    links = gains.draw_batch(1, range(cfg.num_bobs))[:, 0]  # (K + 1, L): every user's, then Eve's
    bob_paths = PathSet.from_angles(theta, phi, links[:-1])
    eve_paths = PathSet.from_angles(eve_theta, eve_phi, links[-1])
    return CommonDraw(bob_positions, dists, eve_positions, bob_paths, eve_paths)


def _parse_movable(spec: str | None, kind: str, n: int) -> np.ndarray:
    if spec is None:
        spec = {"MA": "corners", "ULA": "all", "UPA": "none"}[kind]
    mask = np.zeros(n, dtype=bool)
    if spec == "all":
        mask[:] = True
    elif spec == "none":
        pass
    elif spec == "corners":
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise InfeasibleRegionError(f"corner mask needs a square antenna count, got {n}")
        mask[[0, side - 1, n - side, n - 1]] = True
    else:
        try:
            idx = [int(tok) for tok in spec.split(",")]
        except ValueError as exc:
            raise InfeasibleRegionError(f"cannot parse movable spec {spec!r}") from exc
        if any(i < 0 or i >= n for i in idx):
            raise InfeasibleRegionError(f"movable index out of range in {spec!r}")
        mask[idx] = True
    return mask


def _build_layout(cfg: ScenarioConfig) -> ArrayLayout:
    """Transmit-array geometry in the x=0 plane, coordinates (y, z)."""
    n = cfg.num_antennas
    lam = cfg.wavelength
    d_min = cfg.resolved_d_min()
    a = cfg.resolved_move_range()
    mask = _parse_movable(cfg.movable, cfg.array_kind, n)

    if cfg.array_kind == "ULA":
        y0 = np.arange(n) * (lam / 2.0)
        positions = np.column_stack([np.zeros(n), y0, np.zeros(n)])
        if np.any(mask) and (n - 1) * lam / 2.0 > a:
            raise InfeasibleRegionError(
                f"{n} antennas at wavelength/2 spacing do not fit the [0, {a}] segment"
            )
        lower = np.where(mask[:, None], 0.0, positions)
        upper = np.where(mask[:, None], [0.0, a, 0.0], positions)
        return ArrayLayout(positions, lower, upper, mask, d_min)

    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise InfeasibleRegionError(f"planar array needs a square antenna count, got {n}")
    # MA grids are spaced d_min/2 so diagonally opposite movement boxes of the
    # four corners stay d_min apart; fixed baselines use wavelength/2.
    spacing = d_min / 2.0 if cfg.array_kind == "MA" else lam / 2.0
    gy, gz = np.meshgrid(np.arange(side) * spacing, np.arange(side) * spacing, indexing="ij")
    positions = np.column_stack([np.zeros(n), gy.ravel(), gz.ravel()])
    center = (side - 1) * spacing / 2.0
    # A movable antenna's box reaches A outward from the grid center along y
    # and z, or A/2 to either side on an axis where it sits at the center; x
    # has no reach.  A fixed antenna's box is its position.
    reach = np.array([0.0, a, a])
    conds = [~mask[:, None], positions == center, positions >= center]
    lower = np.select(conds, [positions, positions - reach / 2, positions], positions - reach)
    upper = np.select(conds, [positions, positions + reach / 2, positions + reach], positions)
    return ArrayLayout(positions, lower, upper, mask, d_min)


def scenario_from_draw(cfg: ScenarioConfig, draw: CommonDraw, layout: ArrayLayout | None = None) -> Scenario:
    """Attach an array geometry (cfg's own unless given) to a draw, holding the draw itself,
    and build the initial solution."""
    layout = layout or _build_layout(cfg)
    ws = build_realization(layout, draw.bob_paths, draw.eve_paths, draw.eve_positions, cfg.wavelength)
    w0 = init_beamformer(ws, cfg.p_max)
    rep = secrecy_report(ws, w0, cfg.noise)
    return Scenario(cfg=cfg, layout=layout, draw=draw, initial=Solution(layout, w0, rep), channel=ws)


def build_scenario(cfg: ScenarioConfig, rng: np.random.Generator) -> Scenario:
    """Draw a channel and build the configured scenario around it."""
    return scenario_from_draw(cfg, draw_common_channel(cfg, rng))


@dataclass(frozen=True)
class OneDimSearchResult:
    """Grid-search outcome indexed by how many leading antennas may move."""

    cfg: ScenarioConfig  # the config the search ran: an all-movable ULA
    baseline: float
    move_all: np.ndarray  # (N,) greedy rate after antennas 1..c all took a turn
    move_parts: np.ndarray  # (N,) best rate over every subset of the first c antennas


# Cap on the stacked channel rows of one batched rate call in one_dim_search.
# Each row's rates come out bit for bit the same in any batch, so the cap
# bounds the trial channels of one call without changing a result.
_BLOCK_ROWS = 1 << 12


def one_dim_search(cfg: ScenarioConfig, rng: np.random.Generator) -> OneDimSearchResult:
    """Exhaustive per-antenna line search on a movable ULA with a frozen beamformer.

    The search always runs on an all-movable ULA, whatever array kind and
    movable set ``cfg`` names; it keeps cfg's d_min, so a d_min that the
    wavelength/2 slots cannot keep is refused as infeasible.

    The slots are the wavelength/2 points of the layout's segment
    [0, move_range], within its slack; the antennas start on the first N.
    A "turn" moves one antenna to the best unoccupied slot, keeping it
    in place when no slot beats the current rate (ties to the lowest slot).
    move_all[c] gives antennas 1..c a turn in index order; move_parts[c] is
    the best final rate over *every subset* of the first c antennas, each
    processed the same way.  Both searches include the do-nothing option, so
    move_parts >= move_all >= baseline hold by construction, with move_parts
    strictly ahead whenever moving fewer antennas wins.

    A turn's outcome depends only on the layout it starts from and the
    antenna that moves.  So the search is one pass over the antennas that
    keeps every layout some subset's pass has reached, with its rate:
    antenna a's turn from each reached layout adds the layouts of the
    subsets whose highest antenna is a.  Before that turn, the layouts first
    reached by the previous one are scored for antennas a..N-1 in one
    batched rate call (more only past the row cap), so each distinct turn is
    scored once.  Trial channels are gathered from a table of per-slot
    columns taken from the scenario's own channel, and each row's rates have
    the same bits in any batch, so each subset's result equals its pass
    alone, bit for bit.
    """
    cfg = dataclasses.replace(cfg, array_kind="ULA", movable="all")
    scenario = build_scenario(cfg, rng)
    n = cfg.num_antennas
    half = cfg.wavelength / 2.0
    top = scenario.layout.upper[:, 1].max()  # the segment's end
    slots = np.arange(int(top / half) + 2) * half
    slots = slots[slots <= top + _ATOL]
    num_slots = len(slots)
    baseline = scenario.initial.secrecy
    # Every channel column a pass can use, rows [h_bob; h_eve], one per slot:
    # antenna j starts on slot j, and its fresh column is that slot's column.
    positions = slots[:, None] * [0.0, 1.0, 0.0]
    table = scenario.channel.columns_at(positions).T  # (K + M, num_slots)
    rows = np.arange(table.shape[0])[:, None]  # (K + M, 1)
    block = max(1, _BLOCK_ROWS // max(1, (num_slots - n) * table.shape[0]))  # turns per call
    # A layout holds each antenna's slot.  reached maps every layout that some
    # subset's pass ended at to its rate; fresh lists those the last turn added.
    chain = tuple(range(n))  # the layout after every antenna so far took its turn
    reached = {chain: baseline}
    fresh = [chain]
    turn = {}  # (layout, antenna) -> (end layout, rate)
    move_all, move_parts = np.empty((2, n))
    for a in range(n):
        if fresh:  # score antennas a..N-1's turns from each layout the last turn first reached
            start = np.repeat(np.array(fresh), n - a, axis=0)  # (turns, N)
            i = np.arange(len(start))
            moves = np.eye(n, dtype=bool)[a + i % (n - a)]  # (turns, N): the antenna that moves
            free = np.ones((len(start), num_slots), dtype=bool)
            free[i[:, None], start] = False
            free = np.nonzero(free)[1].reshape(len(start), num_slots - n)  # ascending
            # Option 0 stays, keeping the layout's own rate; then the free slots, ascending.
            scores = np.empty((len(start), free.shape[1] + 1))
            scores[:, 0] = np.repeat([reached[layout] for layout in fresh], n - a)
            for lo in range(0, len(start), block):
                b = slice(lo, lo + block)
                trial = np.where(moves[b, None], free[b, :, None], start[b, None])  # (b, F, N)
                H = table[rows, trial[:, :, None, :]]  # (b, F, K + M, N)
                scores[b, 1:] = secrecy_rates(H, scenario.initial.W.w, cfg.noise, cfg.num_bobs)[2].min(axis=-1)
            # argmax keeps the first maximum: staying wins ties, then the lowest slot.
            best = np.argmax(scores, axis=1)
            end = np.where(moves, np.column_stack([start[moves], free])[i, best, None], start)
            keys = [(layout, m) for layout in fresh for m in range(a, n)]
            turn.update(zip(keys, zip(map(tuple, end.tolist()), scores[i, best].tolist())))
        # Antenna a's turn from every reached layout; where it stays, the layout is reached already.
        ends = dict(turn[layout, a] for layout in reached)
        fresh = [layout for layout in ends if layout not in reached]
        reached.update(ends)
        chain = turn[chain, a][0]
        move_all[a] = reached[chain]
        move_parts[a] = max(reached.values())
    return OneDimSearchResult(cfg, baseline, move_all, move_parts)


@dataclass(frozen=True)
class SweepResult:
    """Aggregated outcome of one (sweep point, method) cell."""

    sweep_var: str
    sweep_value: float
    method: str
    rep_count: int
    mean_secrecy: float
    mean_bob_capacity: float
    mean_eve_capacity: float
    seed_base: int


def sweep_cells(cfg: ScenarioConfig, variable: str, grid, methods=ARRAY_KINDS) -> list:
    """Per grid point, a list of each method's (config, layout), all built before a sweep runs a rep.

    A ``paths`` value that is not a whole number raises ValueError; a config
    or layout that breaks its own rules raises InfeasibleRegionError.
    """
    if variable not in SWEEP_FIELDS:
        raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}")
    cells = []
    for value in grid:
        if variable == "paths" and value != int(value):
            raise ValueError(f"a paths grid value must be a whole number, got {value}")
        point = {SWEEP_FIELDS[variable]: int(value) if variable == "paths" else float(value)}
        configs = [dataclasses.replace(cfg, array_kind=meth, movable=None, **point) for meth in methods]
        cells.append([(meth_cfg, _build_layout(meth_cfg)) for meth_cfg in configs])
    return cells


def _evaluate_method(
    cfg: ScenarioConfig, layout: ArrayLayout, draw: CommonDraw, opt_seed
) -> tuple[float, float, float]:
    """(worst secrecy, its Bob rate, its Eve rate) for one method's layout on one draw."""
    scenario = scenario_from_draw(cfg, draw, layout)
    best = scenario.initial  # a fixed array keeps its initial beam
    if cfg.array_kind == "MA":
        best, _, _ = sa_pga(scenario, np.random.default_rng(opt_seed), cfg)
    rep = best.report
    return (
        rep.worst_secrecy,
        float(rep.rate_bob[rep.worst_k]),
        float(rep.rate_eve[rep.best_m, rep.worst_k]),
    )


def run_sweep(
    variable: str,
    grid,
    reps: int,
    cfg: ScenarioConfig,
    seed: int,
    methods: tuple[str, ...] = ARRAY_KINDS,
) -> list[SweepResult]:
    """Monte-Carlo comparison of the array kinds over a parameter grid.

    Each replication draws one channel from a seed derived from
    (seed, grid index, rep) and evaluates every method on it; the movable
    array runs the annealed optimizer, the fixed baselines keep their matched
    initial beams.  Results are per-cell means.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    results = []
    for gi, (value, cells) in enumerate(zip(grid, sweep_cells(cfg, variable, grid, methods))):
        sums = np.zeros((len(cells), 3))
        for rep_idx in range(reps):
            ss = np.random.SeedSequence([seed, gi, rep_idx])
            draw_seed, opt_seed = ss.spawn(2)
            # The draw reads no array field, so any method's config draws it.
            draw = draw_common_channel(cells[0][0], np.random.default_rng(draw_seed))
            for i, (meth_cfg, layout) in enumerate(cells):
                sums[i] += _evaluate_method(meth_cfg, layout, draw, opt_seed)
        for (meth_cfg, _), total in zip(cells, sums):
            mean = total / reps
            results.append(
                SweepResult(
                    variable, float(value), meth_cfg.array_kind, reps,
                    float(mean[0]), float(mean[1]), float(mean[2]), seed,
                )
            )
    return results

