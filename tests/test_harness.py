import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_oracles import sample_path_angles
from masec import harness
from masec.channel import GainSampler, PathSet, build_realization, direction_vector
from masec.geometry import InfeasibleRegionError, sample_virtual_eves
from masec.harness import (
    ScenarioConfig,
    build_scenario,
    draw_common_channel,
    one_dim_search,
    run_sweep,
    scenario_from_draw,
)
from masec.metrics import secrecy_report
from masec.optimizer import init_beamformer

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

    def test_patch_must_lie_beyond_its_half_length(self):
        # The patch rule d > r is the config's own, so it refuses before any draw.
        for distance in (2.0, 1.5):  # d = r, then d < r
            with pytest.raises(InfeasibleRegionError, match="eve_half_length"):
                ScenarioConfig(eve_distance=distance, eve_half_length=2.0)


class TestBuildScenario:
    def test_default_ma_scenario(self):
        cfg = ScenarioConfig()
        scen = build_scenario(cfg, np.random.default_rng(0))
        lay = scen.layout
        assert lay.positions.shape[0] == 9
        assert list(lay.movable_indices()) == [0, 2, 6, 8]  # the four grid corners
        assert lay.d_min == pytest.approx(4 * cfg.wavelength)
        draw = scen.draw
        assert draw.bob_distances.shape == (5,)
        assert np.all((draw.bob_distances >= 25.0) & (draw.bob_distances <= 35.0))
        np.testing.assert_allclose(
            np.linalg.norm(draw.bob_positions, axis=1), draw.bob_distances, rtol=1e-12
        )
        assert draw.eve_positions.shape == (3, 3)
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
        np.testing.assert_array_equal(a.draw.eve_positions, b.draw.eve_positions)
        np.testing.assert_array_equal(a.initial.W.w, b.initial.W.w)
        # Every user's row at once; p fixes the angles.
        np.testing.assert_array_equal(a.draw.bob_paths.sigma, b.draw.bob_paths.sigma)
        np.testing.assert_array_equal(a.draw.bob_paths.p, b.draw.bob_paths.p)
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

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from([9, 16, 25]),
        d_min=st.none() | st.floats(0.001, 0.2),
        move_range=st.none() | st.floats(0.0, 0.2),
        where=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=4, max_size=4),
    )
    def test_ma_corner_boxes_keep_d_min(self, n, d_min, move_range, where):
        # The corner boxes point outward from the grid, so any four points in
        # them keep every pair d_min apart: adjacent in index order or not.
        cfg = ScenarioConfig(num_antennas=n, d_min=d_min, move_range=move_range)
        lay = harness._build_layout(cfg)
        corners = lay.movable_indices()
        lo, hi = lay.lower[corners], lay.upper[corners]
        points = lo + np.array(where) * (hi - lo)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(points[i] - points[j]) >= lay.d_min - 1e-9


class TestCommonDraw:
    def test_draw_is_array_kind_independent(self):
        cfg = ScenarioConfig()
        draw = draw_common_channel(cfg, np.random.default_rng(5))
        scen_ma = scenario_from_draw(dataclasses.replace(cfg, array_kind="MA"), draw)
        scen_ula = scenario_from_draw(
            dataclasses.replace(cfg, array_kind="ULA", num_antennas=9), draw
        )
        ma, ula = scen_ma.draw, scen_ula.draw
        np.testing.assert_array_equal(ma.bob_paths.sigma, ula.bob_paths.sigma)
        np.testing.assert_array_equal(ma.bob_paths.p, ula.bob_paths.p)
        np.testing.assert_array_equal(ma.eve_positions, ula.eve_positions)
        np.testing.assert_array_equal(ma.eve_paths.sigma, ula.eve_paths.sigma)

    def test_draw_deterministic(self):
        cfg = ScenarioConfig()
        a = draw_common_channel(cfg, np.random.default_rng(3))
        b = draw_common_channel(cfg, np.random.default_rng(3))
        for pa, pb in ((a.bob_paths, b.bob_paths), (a.eve_paths, b.eve_paths)):
            np.testing.assert_array_equal(pa.sigma, pb.sigma)
        np.testing.assert_array_equal(a.eve_positions, b.eve_positions)

    def test_draw_builds_one_path_set_per_side(self, monkeypatch):
        # The users' paths are one stacked set: 2 PathSets per draw, not K + 1.
        built = []
        check = PathSet.__post_init__
        monkeypatch.setattr(PathSet, "__post_init__", lambda ps: (built.append(ps), check(ps)))
        cfg = ScenarioConfig()
        draw = draw_common_channel(cfg, np.random.default_rng(3))
        assert len(built) == 2 and built[0] is draw.bob_paths and built[1] is draw.eve_paths
        assert draw.bob_paths.sigma.shape == (cfg.num_bobs, cfg.num_paths)
        # Both gain sets are views of the one array the gain draw filled.
        base = draw.bob_paths.sigma.base
        assert base is not None and draw.eve_paths.sigma.base is base


def _angles(p):
    """Elevations and azimuths of unit directions, with the azimuth in [-pi/2, pi/2]."""
    s = np.where(p[..., 0] < 0, -1.0, 1.0)  # the sign of cos(theta), as cos(phi) >= 0
    return np.arctan2(p[..., 2], s * np.hypot(p[..., 0], p[..., 1])), np.arctan2(s * p[..., 1], s * p[..., 0])


class TestCommonDrawDistribution:
    # The program's draw against the sampling model: uniform angles over each
    # side's ranges and complex Gaussian gains of per-path variance (g0/L) d^-alpha.
    CFG = ScenarioConfig(num_paths=4, g0_db=20.0, alpha=2.5)

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(2027)
        return [draw_common_channel(self.CFG, rng) for _ in range(2000)]

    @pytest.mark.parametrize("side, low, high", [("bob", -np.pi / 2, np.pi / 2), ("eve", 0.0, np.pi)])
    def test_angle_ranges(self, draws, side, low, high):
        p = np.stack([getattr(d, f"{side}_paths").p for d in draws])
        theta, phi = _angles(p)
        np.testing.assert_allclose(direction_vector(theta, phi), p, atol=1e-12)
        assert np.all((theta >= low) & (theta <= high))
        assert np.all(np.abs(phi) <= np.pi / 2)
        # Uniform over the whole range: both ends are reached and the mean sits mid-range.
        for angle, (a, b) in ((theta, (low, high)), (phi, (-np.pi / 2, np.pi / 2))):
            assert angle.min() < a + 0.01 and angle.max() > b - 0.01
            assert np.mean(angle) == pytest.approx((a + b) / 2, abs=0.03)

    def test_gain_variance(self, draws):
        cfg = self.CFG
        dists = [np.append(d.bob_distances, cfg.eve_distance) for d in draws]
        var = 10.0 ** (cfg.g0_db / 10.0) / cfg.num_paths * np.stack(dists) ** -cfg.alpha  # (draws, K + 1)
        gains = np.stack([np.vstack([d.bob_paths.sigma, d.eve_paths.sigma]) for d in draws])
        # |gain|^2 / variance is exponential with mean 1: over a link's 8,000
        # gains, users in order and Eve last, the standard error is 0.011.
        np.testing.assert_allclose(np.mean(np.abs(gains) ** 2 / var[..., None], axis=(0, 2)), 1.0, atol=0.06)


def _scenario_reference(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    """A scenario built one user at a time: a sample_path_angles call and a
    PathSet.from_angles call per user, and a channel built for the beam."""
    dists = rng.uniform(cfg.bob_dist_min, cfg.bob_dist_max, size=cfg.num_bobs)
    azimuth = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.num_bobs)
    bob_positions = np.column_stack(
        [dists * np.cos(azimuth), dists * np.sin(azimuth), np.zeros(cfg.num_bobs)]
    )
    eve_positions = sample_virtual_eves(cfg.eve_distance, cfg.eve_half_length, cfg.num_eves, rng)
    bob_angles = [sample_path_angles(cfg.num_paths, rng, "bob") for _ in range(cfg.num_bobs)]
    eve_angles = sample_path_angles(cfg.num_paths, rng, "eve")
    gains = GainSampler(cfg.num_paths, cfg.g0_db, dists, cfg.eve_distance, cfg.alpha, rng)
    links = gains.draw_batch(1, range(cfg.num_bobs))[:, 0]
    bob_gains, eve_gains = links[:-1], links[-1]
    bob_paths = tuple(PathSet.from_angles(th, ph, bob_gains[k]) for k, (th, ph) in enumerate(bob_angles))
    eve_paths = PathSet.from_angles(*eve_angles, eve_gains)
    layout = harness._build_layout(cfg)
    users = PathSet(np.stack([ps.p for ps in bob_paths]), np.stack([ps.sigma for ps in bob_paths]))
    ws = build_realization(layout, users, eve_paths, eve_positions, cfg.wavelength)
    W = init_beamformer(ws, cfg.p_max)
    return dict(
        bob_positions=bob_positions, bob_distances=dists, eve_positions=eve_positions,
        bob_paths=bob_paths, eve_paths=eve_paths, layout=layout, ws=ws, W=W,
        report=secrecy_report(ws, W, cfg.noise),
    )


class TestScenarioReference:
    @pytest.mark.parametrize("num_paths", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["MA", "ULA", "UPA"])
    def test_stacked_construction_is_bit_identical(self, kind, num_paths):
        for seed in range(4):
            cfg = ScenarioConfig(array_kind=kind, num_paths=num_paths, num_bobs=1 + seed % 5 * 2)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = draw_common_channel(cfg, rng)
            scen = scenario_from_draw(cfg, draw)
            want = _scenario_reference(cfg, ref_rng)
            # The draw consumed the stream exactly as the reference did.
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            for name in ("bob_positions", "bob_distances", "eve_positions"):
                assert np.array_equal(getattr(draw, name), want[name])
                assert np.array_equal(getattr(scen.draw, name), want[name])
            assert draw.bob_paths.sigma.shape == (cfg.num_bobs, cfg.num_paths)
            # The stacked users against the per-user reference sets; p fixes the angles.
            for field in ("p", "sigma"):
                ref = np.stack([getattr(ps, field) for ps in want["bob_paths"]])
                assert np.array_equal(getattr(draw.bob_paths, field), ref)
                assert np.array_equal(getattr(draw.eve_paths, field), getattr(want["eve_paths"], field))
            # Every array kind built on the draw holds the draw itself.
            assert scen.draw is draw
            frozen = scenario_from_draw(dataclasses.replace(cfg, freeze_gains=True), draw)
            sampler = frozen.gain_sampler(None)
            assert np.array_equal(sampler.links, np.vstack([draw.bob_paths.sigma, draw.eve_paths.sigma]))
            batch = sampler.draw_batch(3, range(cfg.num_bobs))
            for s in range(3):
                assert np.array_equal(batch[:-1, s], np.stack([ps.sigma for ps in want["bob_paths"]]))
                assert np.array_equal(batch[-1, s], want["eve_paths"].sigma)
            for field in ("positions", "lower", "upper", "movable_mask"):
                assert np.array_equal(getattr(scen.layout, field), getattr(want["layout"], field))
            assert np.array_equal(scen.channel.h_bob, want["ws"].h_bob)
            assert np.array_equal(scen.channel.h_eve, want["ws"].h_eve)
            assert np.array_equal(scen.initial.W.w, want["W"].w)
            got, ref = scen.initial.report, want["report"]
            for field in ("rate_bob", "rate_eve", "secrecy"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))
            assert (got.worst_k, got.best_m) == (ref.worst_k, ref.best_m)


def _one_dim_search_reference(cfg: ScenarioConfig, seed) -> tuple[float, np.ndarray, np.ndarray, set]:
    """Every subset's greedy pass run on its own, from a fresh workspace.

    Each turn moves the antenna to every free slot in turn and scores the
    workspace with secrecy_report; staying keeps the current rate and wins
    ties, then the lowest slot.  The antenna then moves to the chosen slot
    (its own slot when it stays).  Also returns the set of distinct turns
    the passes take, each as (every antenna's slot before it, antenna).
    """
    scen = build_scenario(cfg, np.random.default_rng(seed))
    n = cfg.num_antennas
    half = cfg.wavelength / 2.0
    # Every wavelength/2 point of [0, move_range], with the layout's 1e-9 slack.
    num_slots = next(s for s in itertools.count() if s * half > cfg.resolved_move_range() + 1e-9)
    positions = np.column_stack([np.zeros(num_slots), np.arange(num_slots) * half, np.zeros(num_slots)])
    W = scen.initial.W
    baseline = secrecy_report(scen.workspace(), W, cfg.noise).worst_secrecy
    final, turns = {}, set()
    for mask in range(1, 1 << n):
        ws = scen.workspace()
        occupied = list(range(n))
        rate = baseline
        rates = []
        for i in (i for i in range(n) if mask >> i & 1):
            turns.add((tuple(occupied), i))
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
    return baseline, move_all, move_parts, turns


def _assert_matches_reference(cfg: ScenarioConfig, seed):
    res = one_dim_search(cfg, np.random.default_rng(seed))
    baseline, move_all, move_parts, _ = _one_dim_search_reference(cfg, seed)
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
        # 8 antennas, 14 free slots, 5 + 10 receivers: one batched call takes
        # 4096 // (14 * 15) = 19 turns, and on seed 8 one antenna's step scores
        # more.  A step makes one call unless the row cap splits it, so more
        # calls than antennas means some step was split.
        cfg = dataclasses.replace(
            self.CFG, num_antennas=8, num_eves=10, move_range=21 * (self.CFG.wavelength / 2.0)
        )
        with mock.patch.object(harness, "secrecy_rates", wraps=harness.secrecy_rates) as spy:
            _assert_matches_reference(cfg, 8)
        assert spy.call_count > cfg.num_antennas

    @pytest.mark.parametrize("free", [3, 0])
    @pytest.mark.parametrize("seed", [0, 5, 11, 29])
    def test_scores_each_distinct_turn_once(self, seed, free):
        # A turn is fixed by the layout it starts from and the antenna that
        # moves, so each distinct one is scored once, whichever subsets share it.
        cfg = dataclasses.replace(self.CFG, move_range=(5 + free) * (self.CFG.wavelength / 2.0))
        with mock.patch.object(harness, "secrecy_rates", wraps=harness.secrecy_rates) as spy:
            res = one_dim_search(cfg, np.random.default_rng(seed))
        scored = sum(call.args[0].shape[0] for call in spy.call_args_list)  # (turns, free slots, K + M, N)
        _, move_all, move_parts, turns = _one_dim_search_reference(cfg, seed)
        assert np.array_equal(res.move_all, move_all) and np.array_equal(res.move_parts, move_parts)
        assert scored == len(turns) < 2**6 - 1
        if free == 0:  # no antenna can move, so the layout never changes
            assert scored == 6

    @pytest.mark.parametrize("kind", ["MA", "ULA", "UPA"])
    def test_d_min_the_slots_cannot_keep_rejected_whatever_the_kind(self, kind):
        # The search runs on a movable ULA whatever kind the config names, with the config's d_min.
        cfg = ScenarioConfig(num_antennas=6, array_kind=kind, d_min=0.01)
        with pytest.raises(InfeasibleRegionError, match="d_min"):
            one_dim_search(cfg, np.random.default_rng(11))

    @pytest.mark.parametrize("kind", ["MA", "UPA"])
    def test_config_kind_does_not_change_the_search(self, kind):
        want = one_dim_search(self.CFG, np.random.default_rng(3))
        cfg = dataclasses.replace(self.CFG, array_kind=kind, movable=None)
        got = one_dim_search(cfg, np.random.default_rng(3))
        assert got.baseline == want.baseline
        assert np.array_equal(got.move_all, want.move_all) and np.array_equal(got.move_parts, want.move_parts)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_segment_leaves_no_move(self, seed):
        # Six antennas fill every wavelength/2 point of [0, 0.03]; a slot past
        # the segment's end once let antennas leave it and gain.
        cfg = dataclasses.replace(self.CFG, move_range=0.03)
        res = one_dim_search(cfg, np.random.default_rng(seed))
        assert np.all(res.move_all == res.baseline)
        assert np.all(res.move_parts == res.baseline)

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
        for pa, pb in ((d1.bob_paths, d2.bob_paths), (d1.eve_paths, d2.eve_paths)):
            np.testing.assert_array_equal(pa.sigma, pb.sigma)

    def test_sweep_variables_applied(self):
        cfg = ScenarioConfig(**LITE)
        rows = run_sweep("noise", [0.0002, 0.001], 1, cfg, seed=1, methods=("ULA",))
        assert [r.sweep_value for r in rows] == [0.0002, 0.001]
        with pytest.raises(ValueError):
            run_sweep("bandwidth", [1], 1, cfg, seed=0)
        with pytest.raises(ValueError):
            run_sweep("paths", [], 1, cfg, seed=0)

