import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from test_gradients import grad_t_reference, grad_w_reference

import masec.optimizer
from masec.channel import ChannelWorkspace, FrozenGains, PathSet, build_realization
from masec.geometry import InfeasibleRegionError, project_box, project_move, vector_norm
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
        users = scen.draw.bob_paths
        user0 = PathSet(users.p[0], users.sigma[0])
        ws = build_realization(scen.layout, users, user0, np.zeros((1, 3)), cfg.wavelength)
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

    def test_steps_check_only_the_other_movable_antennas(self, monkeypatch):
        # The MA grid's fixed antennas sit d_min/2 from the corners, so a rule
        # that bound them would reject every step; each step is checked
        # against the other three corners' current positions alone.
        cfg, scen = small_scenario(seed=4)
        seen = []

        def recording(candidate, previous, lower, upper, others, d_min):
            seen.append(others.copy())
            return project_move(candidate, previous, lower, upper, others, d_min)

        monkeypatch.setattr(masec.optimizer, "project_move", recording)
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(0))
        lay, _ = pga_t(ws, scen.layout, scen.initial.W, 0, 0, cfg.noise, cfg, sampler)
        assert list(lay.movable_indices()) == [0, 2, 6, 8]
        assert not np.array_equal(lay.positions, scen.layout.positions)
        assert seen and all(others.shape == (3, 3) for others in seen)
        fixed = lay.positions[~lay.movable_mask]
        assert not any((fixed == row).all(axis=1).any() for others in seen for row in others)

    def test_workspace_layout_mismatch_rejected(self):
        cfg, scen = small_scenario()
        ws = scen.workspace()
        ws.move_antenna(0, ws.positions[0] + 1e-3)
        with pytest.raises(ValueError):
            pga_t(ws, scen.layout, scen.initial.W, 0, 0, cfg.noise, cfg, None)


class TestStageDraws:
    @pytest.mark.parametrize("k", [0, 3])
    def test_one_step_draws_the_pair_alone(self, k):
        # A step averages m draws of user k's link and Eve's, each link one
        # standard_normal(L) call per part: m x 2 links x 2L normals, whatever
        # the user count.  At caps of 1, pga_w takes one step and pga_t one
        # per movable antenna.
        cfg, scen = small_scenario(seed=2, inner_iter_w=1, inner_iter_t=1, m_w=3, m_t=4)
        per_draw = 2 * 2 * cfg.num_paths
        ws = scen.workspace()
        sampler = scen.gain_sampler(np.random.default_rng(9))
        twin = np.random.default_rng(9)
        W1, stats = pga_w(ws, scen.initial.W, k, 1, cfg.noise, cfg, sampler)
        assert stats.iterations == 1
        twin.standard_normal(cfg.m_w * per_draw)
        assert sampler.rng.bit_generator.state == twin.bit_generator.state
        pga_t(ws, scen.layout, W1, k, 1, cfg.noise, cfg, sampler)
        twin.standard_normal(len(scen.layout.movable_indices()) * cfg.m_t * per_draw)
        assert sampler.rng.bit_generator.state == twin.bit_generator.state


class TestSaPga:
    def _run(self, seed=0, opt_seed=1, **overrides):
        cfg, scen = small_scenario(seed=seed, **overrides)
        best, trace, temperature = sa_pga(scen, np.random.default_rng(opt_seed), cfg)
        return cfg, scen, best, trace, temperature

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

    def test_every_ma_step_is_the_clamp_or_previous(self, monkeypatch):
        # The MA corner boxes lie d_min apart, so the box clamp is the exact
        # projection: each step lands on it, or is rejected for previous.
        steps, bound = [], 0

        def checked(candidate, previous, lower, upper, *rest):
            nonlocal bound
            out = project_move(candidate, previous, lower, upper, *rest)
            clamp = project_box(candidate, lower, upper)
            steps.append(out is previous or np.array_equal(out, clamp))
            bound += not np.array_equal(clamp, candidate)
            return out

        monkeypatch.setattr(masec.optimizer, "project_move", checked)
        cfg, scen, _, _, _ = self._run(seed=0, opt_seed=[0, 1], **DESK_CAPS)
        assert list(scen.layout.movable_indices()) == [0, 2, 6, 8]
        assert len(steps) >= cfg.i_ter * 4 and all(steps)
        assert bound > 0  # some steps leave the box, so the clamp is exercised

    def test_temperature_cools_geometrically(self):
        cfg, _, _, trace, temperature = self._run(i_ter=8, inner_iter_w=5, inner_iter_t=5)
        temps = [r.temperature for r in trace]
        np.testing.assert_allclose(temps, [cfg.t0 * cfg.beta**i for i in range(8)], rtol=1e-12)
        assert isinstance(temperature, float)
        assert temperature == pytest.approx(cfg.t0 * cfg.beta**8)

    def test_rejected_iterations_keep_previous_solution(self):
        cfg, scen, best, trace, _ = self._run(i_ter=20, t0=0.0, inner_iter_w=10, inner_iter_t=10)
        rejected = [r for r in trace if not r.accepted]
        if rejected:  # t0 = 0: every rejected proposal scored below the incumbent
            accepted_before = scen.initial.secrecy
            for rec in trace:
                if rec.accepted:
                    accepted_before = rec.objective
                else:
                    assert rec.objective <= accepted_before + 1e-12
        # The incumbent: the last accepted objective, or the initial secrecy if none was accepted.
        incumbent = next((r.objective for r in reversed(trace) if r.accepted), scen.initial.secrecy)
        assert incumbent <= best.secrecy + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 7])  # seeds where best is not the initial solution
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


@st.composite
def spacing_cases(draw):
    kind = draw(st.sampled_from(["MA", "ULA", "UPA"]))
    n = draw(st.integers(2, 9)) if kind == "ULA" else draw(st.sampled_from([4, 9]))
    movable = draw(st.sampled_from(["all", "corners", "subset"]))
    if movable == "subset":
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        movable = ",".join(str(i) for i in sorted(idx))
    lengths = st.sampled_from([0.001, 0.01, None])  # None: the kind's default
    cfg = ScenarioConfig(
        array_kind=kind,
        num_antennas=n,
        movable=movable,
        d_min=draw(lengths),
        move_range=draw(lengths),
        delta_t=draw(st.sampled_from([0.001, 0.01])),
        tau_t=draw(st.sampled_from([0.0, 0.0001])),
        i_ter=draw(st.integers(1, 3)),
        m_w=1,
        m_t=draw(st.integers(1, 2)),
        inner_iter_w=3,
        inner_iter_t=draw(st.integers(1, 6)),
    )
    return cfg, draw(st.integers(0, 2**16))


SMALL_CAPS = dict(i_ter=3, m_w=1, m_t=2, inner_iter_w=3, inner_iter_t=6)
DESK_CAPS = dict(i_ter=8, m_w=2, m_t=2, inner_iter_w=40, inner_iter_t=60)


def closest_movable_pair(layout) -> float:
    """The smallest distance between two movable antennas, computed apart from masec's own check."""
    mov = layout.positions[layout.movable_mask]
    return min((float(np.linalg.norm(a - b)) for i, a in enumerate(mov) for b in mov[i + 1:]), default=np.inf)


class TestEveryStepFeasible:
    # The position stage's invariant: the layout is feasible before every
    # step, and each step keeps it so, for any layout that builds.
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(case=spacing_cases())
    @example(case=(ScenarioConfig(array_kind="ULA", movable="all", **SMALL_CAPS), 0))
    @example(case=(ScenarioConfig(array_kind="UPA", movable="all", **SMALL_CAPS), 0))
    # `masec optimize --seed 0` at the desk caps: an index-neighbour rule let
    # antennas 3 and 6, one grid column apart, end 0.80 d_min apart.
    @example(case=(ScenarioConfig(array_kind="UPA", movable="all", **DESK_CAPS), 0))
    def test_sa_pga_keeps_the_whole_layout_feasible(self, case):
        cfg, seed = case
        try:
            scen = build_scenario(cfg, np.random.default_rng(seed))
        except InfeasibleRegionError:
            reject()
        broken = []
        steps = 0
        move = ChannelWorkspace.move_pair_phases

        def checked(ws, n, t, k):  # every position step ends here
            nonlocal steps
            steps += 1
            move(ws, n, t, k)
            try:
                layout = dataclasses.replace(scen.layout, positions=ws.positions.copy())
            except InfeasibleRegionError as exc:
                broken.append(str(exc))
            else:
                if closest_movable_pair(layout) < layout.d_min - 1e-9:
                    broken.append(f"movable pair closer than d_min after step {steps}")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ChannelWorkspace, "move_pair_phases", checked)
            best, trace, _ = sa_pga(scen, np.random.default_rng([seed, 1]), cfg)
        # Each position stage takes at least one step per movable antenna, so
        # an empty `broken` has checked something whenever one can move.
        assert steps >= cfg.i_ter * scen.layout.movable_mask.sum()
        assert broken == []
        assert all(rec.feasible for rec in trace)
        assert best.layout.feasible()


class NanAfter:
    """Gain sampler that hands out NaN gains after ``good`` finite draws."""

    def __init__(self, sampler, good: int):
        self.sampler = sampler
        self.good = good

    def draw_batch(self, count, users):
        bob, eve = self.sampler.draw_batch(count, users)
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


def reference_pga_w(ws, W, k, m, noise, cfg, sampler):
    """The beam stage's step loop as first written: per-receiver gradients,
    np.linalg.norm for the move.  Returns the beam and its stats as a tuple."""
    w = W.w.copy()
    num_antennas = w.shape[0]
    p_max = W.p_max
    p_other = float(np.sum(np.abs(w) ** 2) - np.sum(np.abs(w[:, k]) ** 2))
    ada = AdaGradState(np.zeros(2 * num_antennas), cfg.delta_w)
    iterations, proj_fired, max_err, nonfinite = 0, False, 0.0, False
    for _ in range(cfg.cap_w()):
        bob_sig, eve_sig = sampler.draw_batch(cfg.m_w, (k,))
        h_b = ws.h_bob_batch(k, bob_sig[:, 0, :])
        h_e = ws.h_eve_batch(m, eve_sig)
        g = grad_w_reference(h_b, h_e, w, k, noise).sum(axis=0) / cfg.m_w
        if not np.isfinite(g).all():
            nonfinite = True
            break
        iterations += 1
        step = ada.update(np.concatenate([g.real, g.imag]))
        new_col = w[:, k] + step[:num_antennas] * g.real + 1j * step[num_antennas:] * g.imag
        col_power = float((np.abs(new_col) ** 2).sum())
        if p_other + col_power > p_max and col_power > 0.0:
            new_col *= np.sqrt(max(p_max - p_other, 0.0) / col_power)
            proj_fired = True
            err = abs(p_other + np.sum(np.abs(new_col) ** 2) - p_max)
            max_err = max(max_err, float(err))
        move = float(np.linalg.norm(new_col - w[:, k]))
        w[:, k] = new_col
        if move < cfg.tau_w:
            break
    return Beamformer(w, p_max), (iterations, proj_fired, max_err, nonfinite)


def reference_pga_t(ws, layout, W, k, m, noise, cfg, sampler):
    """The position stage's step loop as first written: every step moves the
    antenna through ``move_antenna`` and re-reads every other movable
    antenna.  Returns the layout and the non-finite flag; the workspace ends
    at the layout's positions."""
    movable = [int(i) for i in layout.movable_indices()]
    nonfinite = False
    for n in movable:
        lower, upper = layout.lower[n], layout.upper[n]
        others_idx = [i for i in movable if i != n]
        ada = AdaGradState(np.zeros(3), cfg.delta_t)
        for _ in range(cfg.cap_t()):
            bob_sig, eve_sig = sampler.draw_batch(cfg.m_t, (k,))
            bob_k = bob_sig[:, 0, :]
            h_b = ws.h_bob_batch(k, bob_k)
            h_e = ws.h_eve_batch(m, eve_sig)
            jac_b = ws.jac_bob_batch(k, n, bob_k)
            jac_e = ws.jac_eve_batch(m, n, eve_sig)
            g = grad_t_reference(h_b, h_e, jac_b, jac_e, W.w, n, k, noise).sum(axis=0) / cfg.m_t
            if not np.isfinite(g).all():
                nonfinite = True
                break
            current = ws.positions[n]
            candidate = current + ada.update(g) * g
            others = ws.positions[others_idx]
            new_pos = project_move(candidate, current, lower, upper, others, layout.d_min)
            move = vector_norm(new_pos - current)
            ws.move_antenna(n, new_pos)
            if move < cfg.tau_t:
                break
    return dataclasses.replace(layout, positions=ws.positions.copy()), nonfinite


WORKSPACE_ARRAYS = ("positions", "_e_bob", "_e_eve_tx", "h_bob", "h_eve")


def assert_workspace_equal(ws, want):
    for name in WORKSPACE_ARRAYS:
        assert np.array_equal(getattr(ws, name), getattr(want, name)), name


def run_stages(scen, cfg, k, m, nan_after, stages):
    """Both stages on a fresh workspace and a fresh seeded sampler.

    Returns (beam, beam stats, positions, position stats, workspace).  A
    layout the constructor rejects is reported by its positions and None.
    """
    pga_w_fn, pga_t_fn = stages
    ws = scen.workspace()
    sampler = scen.gain_sampler(np.random.default_rng(5))
    if nan_after is not None:
        sampler = NanAfter(sampler, nan_after)
    W1, w_stats = pga_w_fn(ws, scen.initial.W, k, m, cfg.noise, cfg, sampler)
    try:
        layout, t_stats = pga_t_fn(ws, scen.layout, W1, k, m, cfg.noise, cfg, sampler)
        positions = layout.positions
    except InfeasibleRegionError:
        positions, t_stats = ws.positions.copy(), None
    return W1, w_stats, positions, t_stats, ws


def optimizer_stages():
    def beam(*args):
        W, stats = pga_w(*args)
        return W, (stats.iterations, stats.proj_fired, stats.max_proj_power_err, stats.nonfinite)

    def positions(*args):
        layout, stats = pga_t(*args)
        return layout, stats.nonfinite

    return beam, positions


@st.composite
def stage_cases(draw):
    kind = draw(st.sampled_from(["MA", "ULA", "UPA"]))
    if kind == "ULA":
        n = draw(st.integers(2, 8))
        movable = draw(st.sampled_from(["all", "none", "subset"]))
    else:
        n = draw(st.sampled_from([4, 9]))
        movable = draw(st.sampled_from(["corners", "all", "none", "subset"]))
    if movable == "subset":
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        movable = ",".join(str(i) for i in sorted(idx))
    cfg = ScenarioConfig(
        array_kind=kind,
        num_antennas=n,
        movable=movable,
        num_bobs=draw(st.integers(1, 6)),
        num_eves=draw(st.integers(1, 4)),
        num_paths=draw(st.integers(1, 5)),
        m_w=draw(st.integers(1, 10)),
        m_t=draw(st.integers(1, 10)),
        inner_iter_w=draw(st.integers(1, 12)),
        inner_iter_t=draw(st.integers(1, 12)),
        tau_w=draw(st.sampled_from([0.0, 0.005])),
        tau_t=draw(st.sampled_from([0.0, 0.0001])),
        delta_t=draw(st.sampled_from([0.001, 0.05])),
        freeze_gains=draw(st.booleans()),
    )
    nan_after = draw(st.none() | st.integers(0, 30))
    return cfg, draw(st.integers(0, 2**16)), nan_after


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestStagesMatchReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(case=stage_cases(), pick=st.integers(0, 2**16))
    def test_stages_equal_reference_loops(self, case, pick):
        cfg, seed, nan_after = case
        try:
            scen = build_scenario(cfg, np.random.default_rng(seed))
        except InfeasibleRegionError:
            reject()
        k, m = pick % cfg.num_bobs, pick % cfg.num_eves
        got = run_stages(scen, cfg, k, m, nan_after, optimizer_stages())
        want = run_stages(scen, cfg, k, m, nan_after, (reference_pga_w, reference_pga_t))
        assert np.array_equal(got[0].w, want[0].w)
        assert got[1] == want[1]
        assert np.array_equal(got[2], want[2])
        assert got[3] == want[3]
        assert_workspace_equal(got[4], want[4])
        if got[3] is not None:  # the workspace is the fresh one of the returned layout
            assert_workspace_equal(got[4], scen.workspace(dataclasses.replace(scen.layout, positions=got[2])))


class ProjectionLog:
    """Wraps ``project_move`` and counts the candidates it rejects."""

    def __init__(self):
        self.rejected = 0

    def __call__(self, candidate, previous, *args):
        out = project_move(candidate, previous, *args)
        self.rejected += out is previous
        return out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestPgaTWorkspace:
    def _check(self, scen, cfg, sampler, monkeypatch):
        log = ProjectionLog()
        monkeypatch.setattr(masec.optimizer, "project_move", log)
        ws = scen.workspace()
        W = scen.initial.W
        k, m = scen.initial.worst_k, scen.initial.best_m
        layout, stats = pga_t(ws, scen.layout, W, k, m, cfg.noise, cfg, sampler)
        assert_workspace_equal(ws, scen.workspace(layout))
        return layout, stats, log.rejected

    @pytest.mark.parametrize("tau_t", [0.0001, 0.0])
    def test_fresh_workspace_after_moves_and_rejections(self, tau_t, monkeypatch):
        # Steps of up to 0.003 m let the movable antennas, a wavelength apart,
        # drift until a candidate lands inside another movable antenna's spacing circle
        # (on either side), and the stage rejects it; with tau_t = 0 it steps
        # on after that.  Steps of 0.01 m reject or clamp back every
        # antenna's first candidate, so at tau_t = 1e-4 no antenna moves.
        cfg, scen = small_scenario(
            seed=2, array_kind="ULA", movable="0,2,4,6,8", delta_t=0.003, tau_t=tau_t, m_t=2, inner_iter_t=30
        )
        sampler = scen.gain_sampler(np.random.default_rng(1))
        layout, stats, rejected = self._check(scen, cfg, sampler, monkeypatch)
        assert rejected > 0 and not stats.nonfinite
        assert not np.array_equal(layout.positions, scen.layout.positions)

    @pytest.mark.parametrize("good", [0, 3, 40])
    def test_fresh_workspace_after_a_nonfinite_stop(self, good, monkeypatch):
        # NaN gains from draw `good` on: the antenna that meets them stops
        # after its earlier steps, and every later one stops at once.
        cfg, scen = small_scenario(seed=3, inner_iter_t=20)
        sampler = NanAfter(scen.gain_sampler(np.random.default_rng(0)), good)
        layout, stats, _ = self._check(scen, cfg, sampler, monkeypatch)
        assert stats.nonfinite
        if good > 0:
            assert not np.array_equal(layout.positions, scen.layout.positions)
