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

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelWorkspace,
    FrozenGains,
    GainSampler,
    PathSet,
    build_realization,
    sample_path_angles,
)
from .geometry import ArrayLayout, EveRegion, InfeasibleRegionError, sample_virtual_eves
from .metrics import secrecy_rates, secrecy_report
from .optimizer import Solution, TraceRecord, init_beamformer, sa_pga

__all__ = [
    "ScenarioConfig",
    "CommonDraw",
    "Scenario",
    "OptimizerInvariantError",
    "SweepResult",
    "OneDimSearchResult",
    "build_scenario",
    "draw_common_channel",
    "scenario_from_draw",
    "one_dim_search",
    "run_sweep",
    "write_results",
    "parse_results",
    "write_trace",
    "write_gnuplot_stub",
    "SWEEP_CSV_HEADER",
    "TRACE_CSV_HEADER",
]

SWEEP_CSV_HEADER = (
    "sweep_var,sweep_value,method,rep_count,mean_secrecy,"
    "mean_bob_capacity,mean_eve_capacity,seed_base"
)
TRACE_CSV_HEADER = "iter,objective,accepted,temperature"

SWEEP_VARIABLES = ("paths", "alpha", "noise", "distance")
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
    bob_angles: tuple[tuple[np.ndarray, np.ndarray], ...]  # per user (theta, phi)
    eve_angles: tuple[np.ndarray, np.ndarray]
    bob_gains: np.ndarray  # (K, L)
    eve_gains: np.ndarray  # (L,)


class OptimizerInvariantError(RuntimeError):
    """``sa_pga`` raised an infeasibility on a scenario that built fine."""


@dataclass(frozen=True)
class Scenario:
    """One ready-to-optimize problem instance.

    ``initial`` is the matched-filter beam on ``layout`` with its secrecy
    report on the fresh channel of ``layout``.
    """

    cfg: ScenarioConfig
    layout: ArrayLayout
    bob_positions: np.ndarray
    bob_distances: np.ndarray
    bob_paths: tuple[PathSet, ...]
    eve_paths: PathSet
    eve_positions: np.ndarray
    initial: Solution

    def workspace(self, layout: ArrayLayout | None = None) -> ChannelWorkspace:
        return build_realization(
            layout or self.layout,
            self.bob_paths,
            self.eve_paths,
            self.eve_positions,
            self.cfg.wavelength,
        )

    def gain_sampler(self, rng: np.random.Generator):
        if self.cfg.freeze_gains:
            bob_sigma = np.stack([ps.sigma for ps in self.bob_paths])
            return FrozenGains(bob_sigma, self.eve_paths.sigma.copy())
        return GainSampler(
            self.cfg.num_paths,
            self.cfg.g0_db,
            self.bob_distances,
            self.cfg.eve_distance,
            self.cfg.alpha,
            rng,
        )


def draw_common_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> CommonDraw:
    """Draw everything that does not depend on the transmit-array kind.

    Draw order is fixed, so one seed pins the whole rep; passing the same
    draw to several array kinds realizes common random numbers.
    """
    region = EveRegion(cfg.eve_distance, cfg.eve_half_length)
    dists = rng.uniform(cfg.bob_dist_min, cfg.bob_dist_max, size=cfg.num_bobs)
    azimuth = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.num_bobs)
    bob_positions = np.column_stack(
        [dists * np.cos(azimuth), dists * np.sin(azimuth), np.zeros(cfg.num_bobs)]
    )
    eve_positions = sample_virtual_eves(region, cfg.num_eves, rng)
    bob_angles = tuple(sample_path_angles(cfg.num_paths, rng, "bob") for _ in range(cfg.num_bobs))
    eve_angles = sample_path_angles(cfg.num_paths, rng, "eve")
    gains = GainSampler(cfg.num_paths, cfg.g0_db, dists, cfg.eve_distance, cfg.alpha, rng)
    bob_gains, eve_gains = gains.draw()
    return CommonDraw(bob_positions, dists, eve_positions, bob_angles, eve_angles, bob_gains, eve_gains)


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


def scenario_from_draw(cfg: ScenarioConfig, draw: CommonDraw) -> Scenario:
    """Attach an array geometry to a channel draw and build the initial solution."""
    layout = _build_layout(cfg)
    bob_paths = tuple(
        PathSet.from_angles(th, ph, draw.bob_gains[k])
        for k, (th, ph) in enumerate(draw.bob_angles)
    )
    eve_paths = PathSet.from_angles(*draw.eve_angles, draw.eve_gains)
    ws = build_realization(layout, bob_paths, eve_paths, draw.eve_positions, cfg.wavelength)
    w0 = init_beamformer(ws, cfg.p_max)
    rep = secrecy_report(ws, w0, cfg.noise)
    return Scenario(
        cfg=cfg,
        layout=layout,
        bob_positions=draw.bob_positions,
        bob_distances=draw.bob_distances,
        bob_paths=bob_paths,
        eve_paths=eve_paths,
        eve_positions=draw.eve_positions,
        initial=Solution(layout, w0, rep),
    )


def build_scenario(cfg: ScenarioConfig, rng: np.random.Generator) -> Scenario:
    """Draw a channel and build the configured scenario around it."""
    return scenario_from_draw(cfg, draw_common_channel(cfg, rng))


@dataclass(frozen=True)
class OneDimSearchResult:
    """Grid-search outcome indexed by how many leading antennas may move."""

    baseline: float
    move_all: np.ndarray  # (N,) greedy rate after antennas 1..c all took a turn
    move_parts: np.ndarray  # (N,) best rate over every subset of the first c antennas


# Cap on the stacked channel rows of one batched rate call in one_dim_search.
# Each row's rates come out bit for bit the same in any batch, so the cap
# bounds memory without changing a result.
_BLOCK_ROWS = 1 << 12


def one_dim_search(cfg: ScenarioConfig, rng: np.random.Generator) -> OneDimSearchResult:
    """Exhaustive per-antenna line search on a movable ULA with a frozen beamformer.

    Antennas start on consecutive wavelength/2 slots of the [0, move_range]
    grid.  A "turn" moves one antenna to the best unoccupied slot, keeping it
    in place when no slot beats the current rate (ties to the lowest slot).
    move_all[c] gives antennas 1..c a turn in index order; move_parts[c] is
    the best final rate over *every subset* of the first c antennas, each
    processed the same way.  Both searches include the do-nothing option, so
    move_parts >= move_all >= baseline hold by construction, with move_parts
    strictly ahead whenever moving fewer antennas wins.

    A subset's pass is the pass of the subset without its highest antenna
    plus one turn of that antenna, so the passes form a trie with one node
    per nonempty subset: 2^N - 1 turns in all, and move_all[c] is the node
    {1..c}.  The nodes of one subset size are scored together, in N batched
    rate calls (more only when a level's trials exceed the row cap).  Only
    one level is held, each node as its antennas' slots, which index one
    table of per-slot channel columns, so memory is bounded by the widest
    level and the row cap.  Every trial channel is gathered from that table,
    so each subset's result equals its pass run on its own, bit for bit.
    """
    if cfg.array_kind != "ULA":
        cfg = dataclasses.replace(cfg, array_kind="ULA", movable="all", d_min=None)
    scenario = build_scenario(cfg, rng)
    lam = cfg.wavelength
    n = cfg.num_antennas
    num_slots = int(round(cfg.resolved_move_range() / (lam / 2.0))) + 1
    slots = np.arange(num_slots) * (lam / 2.0)
    if num_slots < n:
        raise InfeasibleRegionError(f"{n} antennas cannot occupy {num_slots} slots")
    w0 = scenario.initial.W
    noise = cfg.noise
    baseline = scenario.initial.secrecy
    # Every channel column a pass can use, rows [h_bob; h_eve], one per slot:
    # antenna j starts on slot j, and its fresh column is that slot's column.
    positions = np.column_stack([np.zeros(num_slots), slots, np.zeros(num_slots)])
    table = scenario.workspace().columns_at(positions).T  # (K + M, num_slots)
    rows = np.arange(table.shape[0])[:, None]  # (K + M, 1)
    block = max(1, _BLOCK_ROWS // max(1, (num_slots - n) * table.shape[0]))  # children per call

    # One trie level: node p's antenna j stands on slot col[p, j]; top[p] is
    # the highest antenna that took a turn (-1 for the empty root).
    col = np.arange(n)[None]
    rate = np.array([baseline])
    top = np.array([-1])
    move_all = np.empty(n)
    best_by_top = np.full(n, -np.inf)
    for depth in range(n):
        # Children in (parent, antenna) order, so child 0 is antennas 0..depth.
        parent, antenna = np.nonzero(np.arange(n) > top[:, None])
        child = np.arange(len(parent))
        col = col[parent]
        occupied = np.zeros((len(child), num_slots), dtype=bool)
        occupied[child[:, None], col] = True
        free = np.nonzero(~occupied)[1].reshape(len(child), -1)  # ascending per child
        # Staying first, then the free slots in ascending order: argmax keeps
        # the first maximum, so staying (it keeps the parent's rate) wins ties,
        # then the lowest slot.
        options = np.column_stack([col[child, antenna], free])
        scores = np.empty(options.shape)
        scores[:, 0] = rate[parent]
        for lo in range(0, len(child), block):
            b = child[lo : lo + block]
            trial = np.repeat(col[b, None, :], free.shape[1], axis=1)  # (b, F, N)
            trial[b - lo, :, antenna[b]] = options[b, 1:]
            H = table[rows, trial[:, :, None, :]]  # (b, F, K + M, N)
            scores[b, 1:] = secrecy_rates(H, w0.w, noise, cfg.num_bobs)[2].min(axis=-1)
        best = np.argmax(scores, axis=1)
        col[child, antenna] = options[child, best]
        rate = scores[child, best]
        top = antenna
        move_all[depth] = rate[0]
        np.maximum.at(best_by_top, antenna, rate)
    move_parts = np.maximum.accumulate(np.maximum(best_by_top, baseline))
    return OneDimSearchResult(baseline, move_all, move_parts)


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


def _apply_sweep_value(cfg: ScenarioConfig, variable: str, value: float) -> ScenarioConfig:
    if variable == "paths":
        return dataclasses.replace(cfg, num_paths=int(round(value)))
    if variable == "alpha":
        return dataclasses.replace(cfg, alpha=float(value))
    if variable == "noise":
        return dataclasses.replace(cfg, noise=float(value))
    if variable == "distance":
        return dataclasses.replace(cfg, eve_distance=float(value))
    raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}")


def _evaluate_method(cfg: ScenarioConfig, draw: CommonDraw, opt_seed) -> tuple[float, float, float]:
    """(worst secrecy, its Bob rate, its Eve rate) for one method on one draw."""
    scenario = scenario_from_draw(cfg, draw)
    best = scenario.initial  # a fixed array keeps its initial beam
    if cfg.array_kind == "MA":
        try:
            best, _, _ = sa_pga(scenario, np.random.default_rng(opt_seed), cfg)
        except InfeasibleRegionError as exc:  # the scenario built fine
            raise OptimizerInvariantError(str(exc)) from exc
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
    for gi, value in enumerate(grid):
        point_cfg = _apply_sweep_value(cfg, variable, value)
        sums = {meth: np.zeros(3) for meth in methods}
        for rep_idx in range(reps):
            ss = np.random.SeedSequence([seed, gi, rep_idx])
            draw_seed, opt_seed = ss.spawn(2)
            draw = draw_common_channel(point_cfg, np.random.default_rng(draw_seed))
            for meth in methods:
                meth_cfg = dataclasses.replace(point_cfg, array_kind=meth, movable=None)
                sums[meth] += _evaluate_method(meth_cfg, draw, opt_seed)
        for meth in methods:
            mean = sums[meth] / reps
            results.append(
                SweepResult(
                    variable, float(value), meth, reps,
                    float(mean[0]), float(mean[1]), float(mean[2]), seed,
                )
            )
    return results


def write_results(results: list[SweepResult], path):
    """Write sweep rows as CSV with the fixed schema; floats use repr."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_CSV_HEADER.split(","))
            for row in results:
                writer.writerow(
                    [
                        row.sweep_var,
                        repr(row.sweep_value),
                        row.method,
                        row.rep_count,
                        repr(row.mean_secrecy),
                        repr(row.mean_bob_capacity),
                        repr(row.mean_eve_capacity),
                        row.seed_base,
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write sweep results to {path}: {exc}") from exc


def parse_results(path) -> list[SweepResult]:
    """Inverse of :func:`write_results`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != SWEEP_CSV_HEADER.split(","):
            raise ValueError(f"unexpected sweep CSV header in {path}: {header}")
        return [
            SweepResult(
                row[0], float(row[1]), row[2], int(row[3]),
                float(row[4]), float(row[5]), float(row[6]), int(row[7]),
            )
            for row in reader
        ]


def write_trace(trace: list[TraceRecord], path):
    """Write the per-iteration optimizer trace (fixed 4-column schema)."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_HEADER.split(","))
            for rec in trace:
                writer.writerow(
                    [rec.iteration, repr(rec.objective), int(rec.accepted), repr(rec.temperature)]
                )
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def write_gnuplot_stub(csv_path, gp_path, ylabel="mean secrecy rate (bits/s/Hz)"):
    """Minimal gnuplot script plotting mean secrecy per method from a sweep CSV."""
    script = (
        "set datafile separator ','\n"
        f"set ylabel '{ylabel}'\n"
        "set key top left\n"
        f"plot for [meth in 'MA ULA UPA'] '{csv_path}' "
        "using 2:(strcol(3) eq meth ? $5 : 1/0) with linespoints title meth\n"
    )
    with open(gp_path, "w") as fh:
        fh.write(script)
