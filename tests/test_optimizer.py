import dataclasses

import numpy as np
import pytest

from masec.channel import FrozenGains, build_realization
from masec.harness import Scenario, ScenarioConfig, build_scenario
from masec.metrics import Beamformer, pair_objective, secrecy_report
from masec.optimizer import (
    AdaGradState,
    init_beamformer,
    metropolis_accept,
    pga_t,
    pga_w,
    sa_pga,
)

NOISE = 0.0005


def small_scenario(seed=0, **overrides):
    cfg = ScenarioConfig(**overrides)
    return cfg, build_scenario(cfg, np.random.default_rng(seed))


class TestAdaGrad:
    def test_effective_step_nonincreasing(self):
        state = AdaGradState(np.zeros(3), delta=0.1)
        rng = np.random.default_rng(0)
        prev = np.full(3, np.inf)
        for _ in range(50):
            step = state.update(rng.standard_normal(3))
            assert np.all(step <= prev + 1e-15)
            prev = step

    def test_accumulator_nondecreasing(self):
        state = AdaGradState(np.zeros(2), delta=0.1)
        state.update(np.array([1.0, -2.0]))
        np.testing.assert_allclose(state.acc, [1.0, 4.0])
        state.update(np.array([0.0, 1.0]))
        np.testing.assert_allclose(state.acc, [1.0, 5.0])

    def test_first_step_magnitude(self):
        # with acc = g^2 the first move per coordinate is delta * sign(g)
        state = AdaGradState(np.zeros(2), delta=0.01, eps=0.0)
        g = np.array([3.0, -0.2])
        step = state.update(g)
        np.testing.assert_allclose(step * g, [0.01, -0.01])


class TestMetropolis:
    def test_improvement_always_accepted(self):
        rng = np.random.default_rng(0)
        assert metropolis_accept(1.0, 0.5, 1e-12, rng)
        assert metropolis_accept(1.0, 0.5, 100.0, rng)

    def test_half_probability_at_ln2_drop(self):
        # dR = -T ln 2 gives acceptance probability exactly 1/2
        rng = np.random.default_rng(1)
        temp = 0.7
        draws = 100_000
        hits = sum(
            metropolis_accept(1.0 - temp * np.log(2.0), 1.0, temp, rng) for _ in range(draws)
        )
        assert hits / draws == pytest.approx(0.5, abs=0.01)

    def test_zero_temperature_is_greedy(self):
        rng = np.random.default_rng(2)
        assert not metropolis_accept(0.4, 0.5, 0.0, rng)
        assert metropolis_accept(0.6, 0.5, 0.0, rng)

    def test_vanishing_temperature_rejects_worse(self):
        rng = np.random.default_rng(3)
        hits = sum(metropolis_accept(0.4, 0.5, 1e-6, rng) for _ in range(1000))
        assert hits == 0


class TestInitBeamformer:
    def test_single_user_full_power_matched(self):
        _, scen = small_scenario(num_bobs=1)
        ch = scen.workspace()
        W = init_beamformer(ch, 0.01)
        assert W.total_power() == pytest.approx(0.01, abs=1e-15)
        h = ch.h_bob[0]
        own = abs(np.conj(h) @ W.w[:, 0]) ** 2
        assert own == pytest.approx(0.01 * np.linalg.norm(h) ** 2, rel=1e-12)

    def test_total_power_exact(self):
        _, scen = small_scenario()
        W = init_beamformer(scen.workspace(), 0.01)
        assert W.total_power() == pytest.approx(0.01, abs=1e-12)

    def test_own_signal_power_identity(self):
        _, scen = small_scenario(seed=3)
        ch = scen.workspace()
        W = init_beamformer(ch, 0.01)
        num_bobs = ch.h_bob.shape[0]
        for k in range(num_bobs):
            own = abs(np.conj(ch.h_bob[k]) @ W.w[:, k]) ** 2
            assert own == pytest.approx(
                0.01 / num_bobs * np.linalg.norm(ch.h_bob[k]) ** 2, rel=1e-12
            )

    def test_zero_channel_fallback(self):
        class Fake:
            h_bob = np.zeros((2, 4), dtype=complex)

        W = init_beamformer(Fake(), 1.0)
        assert W.total_power() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(W.w), np.sqrt(1.0 / 2 / 4), atol=1e-12)


class TestPgaW:
    def test_zero_gradient_returns_unchanged_after_one_iteration(self):
        # Eve channel identical to the worst Bob's: the two gradient terms
        # cancel, so the first post-projection move is zero.  Eve sits at the
        # origin (receive phases 1) and shares Bob 0's paths and gains.
        cfg, scen = small_scenario(num_bobs=1, num_eves=1)
        ws = build_realization(
            scen.layout, scen.bob_paths, scen.bob_paths[0], np.zeros((1, 3)), cfg.wavelength
        )
        np.testing.assert_allclose(ws.h_eve[0], ws.h_bob[0], atol=1e-14)
        W0 = scen.initial.W
        frozen = FrozenGains(ws.bob_sigma, ws.eve_sigma)
        sa = dataclasses.replace(cfg, m_w=1)
        W1, stats = pga_w(ws, W0, 0, 0, NOISE, sa, frozen)
        np.testing.assert_allclose(W1.w, W0.w, atol=1e-12)
        assert stats.iterations == 1

    def test_power_projection_lands_on_budget(self):
        cfg, scen = small_scenario(seed=5)
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(3))
        W1, stats = pga_w(ws, scen.initial.W, 0, 0, cfg.noise, cfg, sampler)
        assert stats.proj_fired
        assert stats.max_proj_power_err <= 1e-9
        assert W1.total_power() <= W1.p_max + 1e-9

    def test_only_selected_column_changes(self):
        cfg, scen = small_scenario(seed=6)
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(4))
        k = 2
        W1, _ = pga_w(ws, scen.initial.W, k, 1, cfg.noise, cfg, sampler)
        for j in range(cfg.num_bobs):
            if j == k:
                continue
            np.testing.assert_array_equal(W1.w[:, j], scen.initial.W.w[:, j])

    def test_ascent_sanity_with_frozen_gains(self):
        # small steps + frozen gains: the fixed-pair objective should rarely
        # decrease across iterations (pure ascent up to projection effects)
        cfg, scen = small_scenario(seed=7, freeze_gains=True, delta_w=1e-4, m_w=1)
        ws = scen.workspace()
        frozen = scen.gain_sampler(None)
        rep = secrecy_report(ws, scen.initial.W, cfg.noise)
        k, m = rep.worst_k, rep.best_m
        sa = dataclasses.replace(cfg, inner_iter_w=200)

        values = []
        W = scen.initial.W
        for _ in range(60):
            W, _ = pga_w(ws, W, k, m, cfg.noise, dataclasses.replace(sa, inner_iter_w=1), frozen)
            values.append(pair_objective(ws.h_bob[k], ws.h_eve[m], W.w, k, cfg.noise))
        increases = sum(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert increases / (len(values) - 1) >= 0.95


class TestPgaT:
    def test_all_fixed_layout_unchanged(self):
        cfg, scen = small_scenario(movable="none")
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(0))
        lay, _ = pga_t(ws, scen.layout, scen.initial.W, 0, 0, cfg.noise, cfg, sampler)
        np.testing.assert_array_equal(lay.positions, scen.layout.positions)

    def test_box_clamp_on_escape(self):
        # huge step pushes the candidate far outside; the result must sit
        # inside the box (possibly short of it when spacing rejects the move)
        cfg, scen = small_scenario(seed=8, delta_t=1.0)
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(1))
        sa = dataclasses.replace(cfg, inner_iter_t=3)
        lay, _ = pga_t(ws, scen.layout, scen.initial.W, 0, 0, cfg.noise, sa, sampler)
        assert lay.feasible()
        for i in lay.movable_indices():
            assert np.all(lay.positions[i] >= lay.lower[i] - 1e-12)
            assert np.all(lay.positions[i] <= lay.upper[i] + 1e-12)

    def test_spacing_projection_exact_distance(self):
        from masec.geometry import project_move

        d_min = 0.0428
        anchor = np.zeros(3)
        prev = np.array([0.06, 0.0, 0.0])
        candidate = np.array([0.01, 0.005, 0.0])  # inside the spacing circle
        out = project_move(candidate, prev, np.full(3, -1.0), np.ones(3), anchor, d_min)
        assert np.linalg.norm(out - anchor) == pytest.approx(d_min, rel=1e-12)

    def test_workspace_layout_mismatch_rejected(self):
        cfg, scen = small_scenario()
        ws = scen.workspace()
        ws.move_antenna(0, ws.positions[0] + 1e-3)
        with pytest.raises(ValueError):
            pga_t(ws, scen.layout, scen.initial.W, 0, 0, cfg.noise, cfg, None)


class TestSaPga:
    def _run(self, seed=0, opt_seed=1, **overrides):
        cfg, scen = small_scenario(seed=seed, **overrides)
        best, trace, state = sa_pga(scen, np.random.default_rng(opt_seed), cfg)
        return cfg, scen, best, trace, state

    def test_greedy_accepted_sequence_nondecreasing(self):
        _, scen, best, trace, _ = self._run(i_ter=25, t0=0.0, inner_iter_w=20, inner_iter_t=20)
        accepted = [scen.initial.secrecy] + [r.objective for r in trace if r.accepted]
        assert all(b >= a - 1e-12 for a, b in zip(accepted, accepted[1:]))
        assert best.secrecy == pytest.approx(max(accepted))

    def test_hot_temperature_best_so_far_nondecreasing(self):
        _, scen, best, trace, _ = self._run(
            i_ter=25, t0=1e6, beta=1.0, inner_iter_w=10, inner_iter_t=10
        )
        # nearly everything is accepted at huge temperature
        assert sum(r.accepted for r in trace) >= 20
        running = scen.initial.secrecy
        for rec in trace:
            if rec.accepted:
                running = max(running, rec.objective)
        assert best.secrecy == pytest.approx(running)

    def test_trace_deterministic(self):
        _, _, best1, trace1, _ = self._run(i_ter=10, inner_iter_w=15, inner_iter_t=15)
        _, _, best2, trace2, _ = self._run(i_ter=10, inner_iter_w=15, inner_iter_t=15)
        assert best1.secrecy == best2.secrecy
        assert trace1 == trace2
        np.testing.assert_array_equal(best1.layout.positions, best2.layout.positions)
        np.testing.assert_array_equal(best1.W.w, best2.W.w)

    def test_feasibility_invariant(self):
        cfg, scen, best, trace, _ = self._run(i_ter=15, inner_iter_w=15, inner_iter_t=15)
        assert all(r.feasible for r in trace)
        assert best.layout.feasible()
        assert best.W.total_power() <= best.W.p_max + 1e-9
        for rec in trace:
            if rec.proj_fired:
                assert rec.proj_power_err <= 1e-9

    def test_temperature_cools_geometrically(self):
        cfg, _, _, trace, state = self._run(i_ter=8, inner_iter_w=5, inner_iter_t=5)
        temps = [r.temperature for r in trace]
        np.testing.assert_allclose(temps, [cfg.t0 * cfg.beta**i for i in range(8)], rtol=1e-12)
        assert state.temperature == pytest.approx(cfg.t0 * cfg.beta**8)

    def test_rejected_iterations_keep_previous_solution(self):
        cfg, scen, best, trace, state = self._run(i_ter=20, t0=0.0, inner_iter_w=10, inner_iter_t=10)
        rejected = [r for r in trace if not r.accepted]
        if rejected:  # t0 = 0: every rejected proposal scored below the incumbent
            accepted_before = scen.initial.secrecy
            for rec in trace:
                if rec.accepted:
                    accepted_before = rec.objective
                else:
                    assert rec.objective <= accepted_before + 1e-12
        assert state.previous.secrecy <= best.secrecy + 1e-12

    @pytest.mark.parametrize("seed", [0, 3, 7])  # seeds where best is not the initial solution
    def test_best_report_is_the_fresh_channel_report(self, seed):
        # The sweep reads best.report instead of rebuilding the best layout's channel.
        cfg, scen, best, _, _ = self._run(
            seed=seed, opt_seed=[seed, 1], i_ter=8, m_w=2, m_t=2, inner_iter_w=40, inner_iter_t=60
        )
        assert best is not scen.initial
        want = secrecy_report(scen.workspace(best.layout), best.W, cfg.noise)
        for field in ("rate_bob", "rate_eve", "secrecy"):
            assert np.array_equal(getattr(best.report, field), getattr(want, field))
        assert (best.report.worst_k, best.report.best_m) == (want.worst_k, want.best_m)


class NanAfter:
    """Gain sampler that hands out NaN gains after ``good`` finite draws."""

    def __init__(self, sampler, good: int):
        self.sampler = sampler
        self.good = good

    def draw_batch(self, count):
        bob, eve = self.sampler.draw_batch(count)
        self.good -= 1
        if self.good < 0:
            return bob * np.nan, eve * np.nan
        return bob, eve


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteGradient:
    def test_stages_flag_the_stop_and_keep_their_iterate(self):
        cfg, scen = small_scenario(seed=3)
        ws = scen.workspace()
        sampler = NanAfter(scen.gain_sampler(np.random.default_rng(0)), 0)
        W1, wstats = pga_w(ws, scen.initial.W, 0, 0, cfg.noise, cfg, sampler)
        assert wstats.nonfinite and wstats.iterations == 0
        np.testing.assert_array_equal(W1.w, scen.initial.W.w)
        lay, tstats = pga_t(ws, scen.layout, W1, 0, 0, cfg.noise, cfg, sampler)
        assert tstats.nonfinite
        assert lay.feasible()
        np.testing.assert_array_equal(lay.positions, scen.layout.positions)

    def test_finite_stages_do_not_flag(self):
        cfg, scen = small_scenario(seed=3, inner_iter_w=5, inner_iter_t=5)
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(0))
        W1, wstats = pga_w(ws, scen.initial.W, 0, 0, cfg.noise, cfg, sampler)
        lay, tstats = pga_t(ws, scen.layout, W1, 0, 0, cfg.noise, cfg, sampler)
        assert not wstats.nonfinite and not tstats.nonfinite
        assert wstats.iterations >= 1

    @pytest.mark.parametrize("good", [0, 7, 25])
    def test_trace_flags_every_iteration_after_the_gains_turn_nan(self, good, monkeypatch):
        # NaN gains from draw `good` on: every later stage stops at once, and
        # every iterate, including those moved before the NaNs, stays feasible.
        make = Scenario.gain_sampler
        monkeypatch.setattr(Scenario, "gain_sampler", lambda self, rng: NanAfter(make(self, rng), good))
        cfg, scen = small_scenario(seed=4, i_ter=5, inner_iter_w=10, inner_iter_t=10)
        best, trace, _ = sa_pga(scen, np.random.default_rng(1), cfg)
        flags = [rec.nonfinite for rec in trace]
        first = flags.index(True)
        assert all(flags[first:]) and not any(flags[:first])
        assert all(rec.feasible for rec in trace)
        assert best.layout.feasible()
        assert all(np.isfinite(rec.objective) for rec in trace)

    def test_trace_without_nan_has_no_flag(self):
        cfg, scen = small_scenario(seed=4, i_ter=5, inner_iter_w=10, inner_iter_t=10)
        _, trace, _ = sa_pga(scen, np.random.default_rng(1), cfg)
        assert not any(rec.nonfinite for rec in trace)
