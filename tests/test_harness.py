import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masec import harness
from masec.geometry import InfeasibleRegionError
from masec.harness import (
    ScenarioConfig,
    SweepResult,
    build_scenario,
    draw_common_channel,
    one_dim_search,
    parse_results,
    run_sweep,
    scenario_from_draw,
    write_results,
    write_trace,
)
from masec.metrics import secrecy_report
from masec.optimizer import TraceRecord

LITE = dict(i_ter=3, m_w=2, m_t=2, inner_iter_w=10, inner_iter_t=10)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.wavelength == 0.0107
        assert (cfg.num_bobs, cfg.num_eves, cfg.num_antennas, cfg.num_paths) == (5, 3, 9, 3)
        assert (cfg.eve_distance, cfg.eve_half_length) == (50.0, 2.0)
        assert (cfg.p_max, cfg.noise) == (0.01, 0.0005)
        assert (cfg.g0_db, cfg.alpha) == (30.0, 2.0)
        assert (cfg.t0, cfg.beta) == (1.0, 0.9)
        assert (cfg.delta_w, cfg.delta_t) == (0.01, 0.001)
        assert (cfg.tau_w, cfg.tau_t) == (0.005, 0.0001)
        assert (cfg.i_ter, cfg.m_w, cfg.m_t) == (1000, 10, 10)
        assert cfg.resolved_move_range() == pytest.approx(4 * 0.0107)
        assert cfg.resolved_d_min() == pytest.approx(4 * 0.0107)
        assert dataclasses.replace(cfg, array_kind="ULA").resolved_d_min() == pytest.approx(
            0.0107 / 2
        )

    def test_invalid_rejected(self):
        with pytest.raises(InfeasibleRegionError):
            ScenarioConfig(noise=0.0)
        with pytest.raises(InfeasibleRegionError):
            ScenarioConfig(array_kind="ring")
        with pytest.raises(InfeasibleRegionError):
            ScenarioConfig(bob_dist_min=40.0, bob_dist_max=30.0)


class TestBuildScenario:
    def test_default_ma_scenario(self):
        cfg = ScenarioConfig()
        scen = build_scenario(cfg, np.random.default_rng(0))
        lay = scen.layout
        assert lay.positions.shape[0] == 9
        assert list(lay.movable_indices()) == [0, 2, 6, 8]  # the four grid corners
        assert lay.d_min == pytest.approx(4 * cfg.wavelength)
        assert scen.bob_distances.shape == (5,)
        assert np.all((scen.bob_distances >= 25.0) & (scen.bob_distances <= 35.0))
        np.testing.assert_allclose(
            np.linalg.norm(scen.bob_positions, axis=1), scen.bob_distances, rtol=1e-12
        )
        assert scen.eve_positions.shape == (3, 3)
        assert lay.feasible()
        assert scen.initial.W.total_power() == pytest.approx(cfg.p_max, abs=1e-12)
        # movable boxes have the configured side and touch their corner
        for i in lay.movable_indices():
            side = lay.upper[i] - lay.lower[i]
            np.testing.assert_allclose(side, [0.0, cfg.resolved_move_range(), cfg.resolved_move_range()])
            assert np.all(lay.lower[i] <= lay.positions[i])
            assert np.all(lay.positions[i] <= lay.upper[i])

    def test_corner_boxes_stay_separated(self):
        # any two points in distinct corner boxes respect the 4-wavelength rule
        cfg = ScenarioConfig()
        scen = build_scenario(cfg, np.random.default_rng(1))
        lay = scen.layout
        rng = np.random.default_rng(2)
        idx = list(lay.movable_indices())
        for _ in range(200):
            pts = []
            for i in idx:
                pts.append(rng.uniform(lay.lower[i], lay.upper[i]))
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    assert np.linalg.norm(pts[a] - pts[b]) >= lay.d_min - 1e-12

    def test_ula_spacing(self):
        cfg = ScenarioConfig(array_kind="ULA", num_antennas=6)
        scen = build_scenario(cfg, np.random.default_rng(0))
        gaps = np.diff(scen.layout.positions[:, 1])
        np.testing.assert_allclose(gaps, cfg.wavelength / 2, rtol=1e-12)
        assert scen.layout.d_min == pytest.approx(cfg.wavelength / 2)

    def test_upa_grid(self):
        cfg = ScenarioConfig(array_kind="UPA")
        scen = build_scenario(cfg, np.random.default_rng(0))
        lay = scen.layout
        assert lay.positions.shape[0] == 9
        assert len(lay.movable_indices()) == 0
        ys = np.unique(np.round(lay.positions[:, 1], 12))
        zs = np.unique(np.round(lay.positions[:, 2], 12))
        np.testing.assert_allclose(np.diff(ys), cfg.wavelength / 2, rtol=1e-12)
        np.testing.assert_allclose(np.diff(zs), cfg.wavelength / 2, rtol=1e-12)

    def test_same_seed_identical(self):
        cfg = ScenarioConfig()
        a = build_scenario(cfg, np.random.default_rng(9))
        b = build_scenario(cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a.layout.positions, b.layout.positions)
        np.testing.assert_array_equal(a.eve_positions, b.eve_positions)
        np.testing.assert_array_equal(a.initial.W.w, b.initial.W.w)
        for pa, pb in zip(a.bob_paths, b.bob_paths):
            np.testing.assert_array_equal(pa.sigma, pb.sigma)
            np.testing.assert_array_equal(pa.theta, pb.theta)
        assert a.initial.secrecy == b.initial.secrecy

    @pytest.mark.parametrize("kind", ["MA", "ULA", "UPA"])
    def test_initial_report_is_the_fresh_channel_report(self, kind):
        # The fixed-array sweep rows reuse this report instead of a rebuild.
        cfg = ScenarioConfig(array_kind=kind)
        scen = build_scenario(cfg, np.random.default_rng(13))
        want = secrecy_report(scen.workspace(), scen.initial.W, cfg.noise)
        got = scen.initial.report
        for field in ("rate_bob", "rate_eve", "secrecy"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.worst_k, got.best_m) == (want.worst_k, want.best_m)
        assert scen.initial.secrecy == want.worst_secrecy

    def test_infeasible_construction_raises(self):
        # 10 antennas at wavelength/2 spacing cannot fit a 4-wavelength segment
        cfg = ScenarioConfig(array_kind="ULA", num_antennas=10)
        with pytest.raises(InfeasibleRegionError):
            build_scenario(cfg, np.random.default_rng(0))
        with pytest.raises(InfeasibleRegionError):
            build_scenario(ScenarioConfig(num_antennas=8), np.random.default_rng(0))


def _box_loop_layout(cfg: ScenarioConfig):
    """(positions, lower, upper, mask) from one box per antenna, built in a loop.

    The reference for the bound arrays of ``harness._build_layout``: each
    box is (x_min, x_max, y_min, y_max, z_min, z_max), and a fixed antenna's
    box is the point at its position.
    """
    n = cfg.num_antennas
    lam = cfg.wavelength
    d_min = cfg.resolved_d_min()
    a = cfg.resolved_move_range()
    mask = harness._parse_movable(cfg.movable, cfg.array_kind, n)

    def point(p):
        x, y, z = (float(v) for v in p)
        return (x, x, y, y, z, z)

    if cfg.array_kind == "ULA":
        y0 = np.arange(n) * (lam / 2.0)
        positions = np.column_stack([np.zeros(n), y0, np.zeros(n)])
        boxes = [(0.0, 0.0, 0.0, a, 0.0, 0.0) if mask[i] else point(positions[i]) for i in range(n)]
        if np.any(mask) and (n - 1) * lam / 2.0 > a:
            raise InfeasibleRegionError("antennas do not fit the segment")
    else:
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise InfeasibleRegionError("planar array needs a square antenna count")
        spacing = d_min / 2.0 if cfg.array_kind == "MA" else lam / 2.0
        gy, gz = np.meshgrid(np.arange(side) * spacing, np.arange(side) * spacing, indexing="ij")
        positions = np.column_stack([np.zeros(n), gy.ravel(), gz.ravel()])
        extent = (side - 1) * spacing
        center = extent / 2.0
        boxes = []
        for i in range(n):
            if not mask[i]:
                boxes.append(point(positions[i]))
                continue
            _, y, z = positions[i]
            y_lo, y_hi = (y, y + a) if y >= center else (y - a, y)
            z_lo, z_hi = (z, z + a) if z >= center else (z - a, z)
            if y == center:
                y_lo, y_hi = y - a / 2, y + a / 2
            if z == center:
                z_lo, z_hi = z - a / 2, z + a / 2
            boxes.append((0.0, 0.0, y_lo, y_hi, z_lo, z_hi))
    boxes = np.array(boxes)
    return positions, boxes[:, 0::2], boxes[:, 1::2], mask


@st.composite
def layout_configs(draw):
    kind = draw(st.sampled_from(["MA", "ULA", "UPA"]))
    n = draw(st.integers(2, 10) if kind == "ULA" else st.sampled_from([4, 9, 16, 25]))
    subsets = st.sets(st.integers(0, n - 1), min_size=1).map(lambda s: ",".join(map(str, sorted(s))))
    spec = draw(st.sampled_from([None, "all", "none", "corners"]) | subsets)
    move_range = draw(st.none() | st.floats(0.0, 0.2))
    return ScenarioConfig(array_kind=kind, num_antennas=n, movable=spec, move_range=move_range)


class TestBuildLayout:
    @settings(max_examples=300, deadline=None)
    @given(cfg=layout_configs())
    def test_bound_arrays_equal_the_box_loop(self, cfg):
        # ArrayLayout is stubbed out so layouts that break the spacing rule
        # are compared too.
        with mock.patch.object(harness, "ArrayLayout", lambda *fields: fields):
            try:
                want = _box_loop_layout(cfg)
            except InfeasibleRegionError:
                with pytest.raises(InfeasibleRegionError):
                    harness._build_layout(cfg)
                return
            positions, lower, upper, mask, d_min = harness._build_layout(cfg)
        for got, expected in zip((positions, lower, upper, mask), want):
            assert np.array_equal(got, expected)
        assert d_min == cfg.resolved_d_min()


class TestCommonDraw:
    def test_draw_is_array_kind_independent(self):
        cfg = ScenarioConfig()
        draw = draw_common_channel(cfg, np.random.default_rng(5))
        scen_ma = scenario_from_draw(dataclasses.replace(cfg, array_kind="MA"), draw)
        scen_ula = scenario_from_draw(
            dataclasses.replace(cfg, array_kind="ULA", num_antennas=9), draw
        )
        for pa, pb in zip(scen_ma.bob_paths, scen_ula.bob_paths):
            np.testing.assert_array_equal(pa.sigma, pb.sigma)
            np.testing.assert_array_equal(pa.p, pb.p)
        np.testing.assert_array_equal(scen_ma.eve_positions, scen_ula.eve_positions)
        np.testing.assert_array_equal(scen_ma.eve_paths.sigma, scen_ula.eve_paths.sigma)

    def test_draw_deterministic(self):
        cfg = ScenarioConfig()
        a = draw_common_channel(cfg, np.random.default_rng(3))
        b = draw_common_channel(cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(a.bob_gains, b.bob_gains)
        np.testing.assert_array_equal(a.eve_positions, b.eve_positions)


def _one_dim_search_reference(cfg: ScenarioConfig, seed) -> tuple[float, np.ndarray, np.ndarray]:
    """Every subset's greedy pass run on its own, from a fresh workspace.

    Each turn moves the antenna to every free slot in turn and scores the
    workspace with secrecy_report; staying keeps the current rate and wins
    ties, then the lowest slot.  The antenna then moves to the chosen slot
    (its own slot when it stays).
    """
    scen = build_scenario(cfg, np.random.default_rng(seed))
    n = cfg.num_antennas
    half = cfg.wavelength / 2.0
    num_slots = int(round(cfg.resolved_move_range() / half)) + 1
    positions = np.column_stack([np.zeros(num_slots), np.arange(num_slots) * half, np.zeros(num_slots)])
    W = scen.initial.W
    baseline = secrecy_report(scen.workspace(), W, cfg.noise).worst_secrecy
    final = {}
    for mask in range(1, 1 << n):
        ws = scen.workspace()
        occupied = list(range(n))
        rate = baseline
        rates = []
        for i in (i for i in range(n) if mask >> i & 1):
            choice = occupied[i]
            for s in range(num_slots):
                if s in occupied:
                    continue
                ws.move_antenna(i, positions[s])
                score = secrecy_report(ws, W, cfg.noise).worst_secrecy
                if score > rate:
                    choice, rate = s, score
            ws.move_antenna(i, positions[choice])
            occupied[i] = choice
            rates.append(rate)
        final[mask] = rate
        if mask & (mask + 1) == 0:  # antennas 0..c-1: the move-all pass
            move_all = np.array(rates)
    move_parts = np.array(
        [max([baseline] + [r for mask, r in final.items() if mask < 1 << c]) for c in range(1, n + 1)]
    )
    return baseline, move_all, move_parts


def _assert_matches_reference(cfg: ScenarioConfig, seed):
    res = one_dim_search(cfg, np.random.default_rng(seed))
    baseline, move_all, move_parts = _one_dim_search_reference(cfg, seed)
    assert res.baseline == baseline
    assert np.array_equal(res.move_all, move_all)
    assert np.array_equal(res.move_parts, move_parts)


class TestOneDimSearch:
    CFG = ScenarioConfig(array_kind="ULA", num_antennas=6, movable="all")

    def test_shapes_and_dominance(self):
        res = one_dim_search(self.CFG, np.random.default_rng(0))
        assert res.move_all.shape == (6,)
        assert res.move_parts.shape == (6,)
        assert np.all(res.move_parts >= res.move_all)
        assert np.all(res.move_parts >= res.baseline)
        assert np.all(res.move_all >= res.baseline)
        assert np.all(np.diff(res.move_parts) >= 0)

    def test_deterministic(self):
        a = one_dim_search(self.CFG, np.random.default_rng(4))
        b = one_dim_search(self.CFG, np.random.default_rng(4))
        assert a.baseline == b.baseline
        np.testing.assert_array_equal(a.move_all, b.move_all)
        np.testing.assert_array_equal(a.move_parts, b.move_parts)

    def test_dominance_is_exact_on_former_rounding_case(self):
        # Passes that started from a workspace reset by incremental moves once
        # left move_parts[0] 1.1e-15 below move_all[0] on this draw.
        res = one_dim_search(self.CFG, np.random.default_rng([14, 72]))
        assert np.all(res.move_parts >= res.move_all)
        assert np.all(res.move_all >= res.baseline)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 7),
        k=st.integers(1, 5),
        m=st.integers(1, 3),
        free=st.integers(0, 4),
        block_rows=st.sampled_from([harness._BLOCK_ROWS, 1, 50]),
    )
    def test_equals_per_subset_reference(self, seed, n, k, m, free, block_rows):
        cfg = dataclasses.replace(
            self.CFG, num_antennas=n, num_bobs=k, num_eves=m,
            move_range=(n - 1 + free) * (self.CFG.wavelength / 2.0),
        )
        # A smaller row cap splits the levels into more batched calls.
        with mock.patch.object(harness, "_BLOCK_ROWS", block_rows):
            _assert_matches_reference(cfg, seed)

    def test_equals_reference_across_blocks(self):
        # 8 antennas, 7 free slots, 5 + 10 receivers: the 70 four-antenna
        # subsets stack more trial rows than one batched call takes.  On
        # seed 8 the result depends on the scores of a level's later blocks.
        cfg = dataclasses.replace(
            self.CFG, num_antennas=8, num_eves=10, move_range=14 * (self.CFG.wavelength / 2.0)
        )
        assert math.comb(8, 4) * 7 * (5 + 10) > harness._BLOCK_ROWS
        _assert_matches_reference(cfg, 8)

    def test_single_antenna_rejected(self):
        with pytest.raises(InfeasibleRegionError):
            one_dim_search(dataclasses.replace(self.CFG, num_antennas=1), np.random.default_rng(0))

    def test_subset_search_beats_full_set_sometimes(self):
        hits = 0
        for seed in range(12):
            res = one_dim_search(self.CFG, np.random.default_rng(seed))
            if np.any(res.move_parts > res.move_all + 1e-12):
                hits += 1
        assert hits >= 1  # moving only a part of the antennas can win


class TestRunSweep:
    def test_single_rep_deterministic_rows(self):
        cfg = ScenarioConfig(**LITE)
        rows1 = run_sweep("paths", [2], 1, cfg, seed=11)
        rows2 = run_sweep("paths", [2], 1, cfg, seed=11)
        assert rows1 == rows2
        assert len(rows1) == 3
        assert {r.method for r in rows1} == {"MA", "ULA", "UPA"}
        assert all(r.rep_count == 1 and r.sweep_var == "paths" for r in rows1)

    def test_row_count_contract(self):
        cfg = ScenarioConfig(**LITE)
        rows = run_sweep("paths", [1, 2, 3, 4], 2, cfg, seed=0)
        assert len(rows) == 12

    def test_methods_share_channel_draw(self):
        # identical (seed, grid index, rep) must hand every method one draw;
        # verified through the deterministic draw function the sweep uses
        cfg = ScenarioConfig(**LITE)
        ss = np.random.SeedSequence([21, 0, 0])
        draw_seed, _ = ss.spawn(2)
        d1 = draw_common_channel(cfg, np.random.default_rng(draw_seed))
        ss2 = np.random.SeedSequence([21, 0, 0])
        draw_seed2, _ = ss2.spawn(2)
        d2 = draw_common_channel(cfg, np.random.default_rng(draw_seed2))
        np.testing.assert_array_equal(d1.bob_gains, d2.bob_gains)
        np.testing.assert_array_equal(d1.eve_gains, d2.eve_gains)

    def test_sweep_variables_applied(self):
        cfg = ScenarioConfig(**LITE)
        rows = run_sweep("noise", [0.0002, 0.001], 1, cfg, seed=1, methods=("ULA",))
        assert [r.sweep_value for r in rows] == [0.0002, 0.001]
        with pytest.raises(ValueError):
            run_sweep("bandwidth", [1], 1, cfg, seed=0)
        with pytest.raises(ValueError):
            run_sweep("paths", [], 1, cfg, seed=0)


class TestSerialization:
    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_results([], path)
        text = path.read_text()
        assert text.strip() == (
            "sweep_var,sweep_value,method,rep_count,mean_secrecy,"
            "mean_bob_capacity,mean_eve_capacity,seed_base"
        )

    def test_single_row(self, tmp_path):
        path = tmp_path / "sweep.csv"
        row = SweepResult("paths", 3.0, "MA", 5, 0.123, 1.5, 0.9, 42)
        write_results([row], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "paths,3.0,MA,5,0.123,1.5,0.9,42"

    def test_round_trip(self, tmp_path):
        rows = [
            SweepResult("alpha", 2.1, "MA", 7, 0.1234567890123, 1.1, 0.2, 3),
            SweepResult("alpha", 2.1, "ULA", 7, 0.0333333333333333, 1.0, 0.5, 3),
        ]
        path = tmp_path / "sweep.csv"
        write_results(rows, path)
        assert parse_results(path) == rows

    def test_trace_schema(self, tmp_path):
        trace = [
            TraceRecord(0, 0.5, True, 1.0, 0.01, True, 0.0, True),
            TraceRecord(1, 0.4, False, 0.9, 0.01, False, 0.0, True, nonfinite=True),
        ]
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,accepted,temperature"
        assert lines[1] == "0,0.5,1,1.0"
        assert lines[2] == "1,0.4,0,0.9"

    def test_write_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such/dir"):
            write_results([], tmp_path / "no" / "such" / "dir" / "x.csv")
