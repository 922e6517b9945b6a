import dataclasses

import numpy as np
import pytest

from masec import audit
from masec.audit import (
    fd_grad_t,
    fd_grad_w,
    fd_oracle,
    pair_inputs,
    pair_objective,
    random_instance,
    run_fd_audit,
)
from masec.channel import ChannelWorkspace, FrozenGains
from masec.gradients import grad_t_batch, grad_w_batch
from masec.harness import ScenarioConfig
from masec.metrics import Beamformer, secrecy_report

NOISE = 0.0005


def with_column(W, k, col):
    """W with beam column k replaced."""
    w = W.w.copy()
    w[:, k] = col
    return Beamformer(w, W.p_max)


def mc_average_grad(grad_fn, sampler, count: int):
    """Arithmetic mean of ``count`` gradients, one per sampler draw.

    Summation is sequential in draw order, so a seeded sampler gives a
    bit-reproducible average: the per-draw loop the batched gradients are
    checked against.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    total = np.array(grad_fn(sampler()))
    for _ in range(count - 1):
        total = total + grad_fn(sampler())
    return total / count


def stack_complex(g):
    return np.concatenate([np.real(g), np.imag(g)])


def grad_w_reference(h_b, h_e, w, k, noise):
    """Oracle: the beam-column gradient as first written, fancy-index copies included."""
    y_b = np.conj(h_b) @ w
    y_e = np.conj(h_e) @ w
    den_b = np.sum(np.abs(y_b) ** 2, axis=1) + noise
    den_e = np.sum(np.abs(y_e) ** 2, axis=1) + noise
    num_b = 2.0 * h_b * y_b[:, [k]]
    num_e = 2.0 * h_e * y_e[:, [k]]
    return (num_b / den_b[:, None] - num_e / den_e[:, None]) / np.log(2.0)


def grad_t_reference(h_b, h_e, jac_b, jac_e, w, n, k, noise):
    """Oracle: the position gradient as first written, fancy-index copies included."""
    y_b = np.conj(h_b) @ w
    y_e = np.conj(h_e) @ w
    pow_b = np.abs(y_b) ** 2
    pow_e = np.abs(y_e) ** 2
    chi = pow_b[:, k]
    alpha = pow_b.sum(axis=1) - chi + noise
    gam = pow_e[:, k]
    beta = pow_e.sum(axis=1) - gam + noise
    coef_b = np.conj(y_b) * w[n][None, :]
    coef_e = np.conj(y_e) * w[n][None, :]
    dchi = 2.0 * np.real(coef_b[:, [k]] * jac_b)
    dalpha = 2.0 * np.real((coef_b.sum(axis=1) - coef_b[:, k])[:, None] * jac_b)
    dgam = 2.0 * np.real(coef_e[:, [k]] * jac_e)
    dbeta = 2.0 * np.real((coef_e.sum(axis=1) - coef_e[:, k])[:, None] * jac_e)
    x_w = (alpha / (alpha + chi))[:, None]
    y_w = (beta / (beta + gam))[:, None]
    quot_b = (dchi * alpha[:, None] - dalpha * chi[:, None]) / (alpha**2)[:, None]
    quot_e = (dgam * beta[:, None] - dbeta * gam[:, None]) / (beta**2)[:, None]
    return (x_w * quot_b - y_w * quot_e) / np.log(2.0)


def w_reference_mean(h_b, h_e, w, k, noise):
    """The reference beam gradient's mean over the draws, and its scale.

    The gradient is the mean of per-draw differences of a user term and an
    Eve term, which may cancel; the scale is the mean of the terms' norms,
    against which rounding is measured.  A zero row zeroes its term.
    """
    zeros = np.zeros_like(h_b)
    terms = grad_w_reference(h_b, zeros, w, k, noise), grad_w_reference(zeros, h_e, w, k, noise)
    return grad_w_reference(h_b, h_e, w, k, noise).mean(axis=0), term_scale(terms)


def t_reference_mean(h_b, h_e, jac_b, jac_e, w, n, k, noise):
    """The reference position gradient's mean over the draws, and its scale.

    A term is 2 Re(c J) / ln 2 with c = (coef_k rest - others own) /
    (rest (rest + own)) (see ``grad_t_batch``); its scale puts magnitudes in
    place of c's difference and J's real part.  With one antenna, for one,
    c is noise times a factor, left over from two terms many times larger.
    """
    terms = []
    for h, jac in ((h_b, jac_b), (h_e, jac_e)):
        y = np.conj(h) @ w
        power = np.abs(y) ** 2
        own = power[:, k]
        rest = power.sum(axis=1) - own + noise
        coef = np.abs(y * w[n])
        others = coef.sum(axis=1) - coef[:, k]
        mag = (coef[:, k] * rest + others * own) / (rest * (rest + own))
        terms.append((2.0 / np.log(2.0)) * (mag * np.linalg.norm(jac, axis=1))[:, None])
    return grad_t_reference(h_b, h_e, jac_b, jac_e, w, n, k, noise).mean(axis=0), term_scale(terms)


def term_scale(terms):
    return sum(np.linalg.norm(t, axis=1).mean() for t in terms)


def assert_close(got, want_and_scale, rtol=1e-12):
    """got within rtol of the reference mean, relative to the scale of its terms."""
    want, scale = want_and_scale
    assert np.linalg.norm(got - want) <= rtol * scale, (np.linalg.norm(got - want) / scale)


def grad_w(ws, W, k, m, noise):
    """Beam-column gradient at the workspace's own gains (a batch of one draw)."""
    G, C, E, _ = pair_inputs(ws, W.w, k, m)
    return grad_w_batch(G, C, E, k, noise)


def jacobians(ws, k, m, n):
    """Antenna n's Jacobians for user k and Eve m at the workspace's own gains."""
    return ws.jac_bob_batch(k, n, ws.bob_sigma[[k]]), ws.jac_eve_batch(m, n, ws.eve_sigma[None])


def grad_t(ws, W, n, k, m, noise):
    """Position gradient of antenna n at the workspace's own gains."""
    G, C, E, P = pair_inputs(ws, W.w, k, m)
    return grad_t_batch(G, C, E[n].reshape(2, -1, 1), P, W.w[n], k, ws.k0, noise)


class TestPairInputs:
    def test_frozen_batch_repeats_the_default_draw(self):
        # A sampler's raw batch is the kernels' G once Eve's row takes her
        # receive phases; pair_inputs applies them to its own copy.
        rng = np.random.default_rng(11)
        ws, W = random_instance(rng)
        for k in range(len(ws.bob_sigma)):
            for m in range(len(ws.eve_rx)):
                batch = FrozenGains(ws.bob_sigma, ws.eve_sigma).draw_batch(3, (k,))
                raw = batch.copy()
                G = pair_inputs(ws, W.w, k, m, batch)[0]
                assert np.array_equal(G, np.repeat(pair_inputs(ws, W.w, k, m)[0], 3, axis=1))
                assert np.array_equal(batch, raw)


class TestFdOracle:
    def test_quadratic(self):
        g = fd_oracle(lambda x: float(x @ x), np.array([1.0, 2.0, 3.0]), 1e-6)
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0], atol=1e-6)

    def test_linear_exact(self):
        c = np.array([0.3, -1.7, 2.5])
        g = fd_oracle(lambda x: float(c @ x), np.zeros(3), 1e-4)
        np.testing.assert_allclose(g, c, atol=1e-12)

    def test_nonfinite_reported(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_oracle(lambda x: float("nan"), np.zeros(2), 1e-6)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            fd_oracle(lambda x: 0.0, np.zeros(2), 0.0)


class TestPairObjective:
    def test_matches_objective_value(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ws, W = random_instance(rng, ScenarioConfig(num_antennas=5, num_bobs=3, num_eves=2))
            k = int(rng.integers(3))
            m = int(rng.integers(2))
            rep = secrecy_report(ws, W, NOISE)
            assert pair_objective(ws.h_bob[k], ws.h_eve[m], W.w, k, NOISE) == pytest.approx(
                rep.rate_bob[k] - rep.rate_eve[m, k], rel=1e-12
            )


class TestGradW:
    def test_zero_eve_channel_leaves_bob_term(self):
        rng = np.random.default_rng(1)
        ws, W = random_instance(rng)
        k, m = 0, 0
        h_b = ws.h_bob[k]
        G, C, E, _ = pair_inputs(ws, W.w, k, m)
        G[1] = 0.0
        g = grad_w_batch(G, C, E, k, NOISE)
        y = np.conj(h_b) @ W.w
        expected = (2.0 * h_b * y[k]) / (np.sum(np.abs(y) ** 2) + NOISE) / np.log(2)
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_zero_beam_single_user_gives_zero(self):
        rng = np.random.default_rng(2)
        ws, W = random_instance(rng, ScenarioConfig(num_bobs=1))
        W0 = with_column(W, 0, np.zeros(ws.num_antennas, dtype=complex))
        g = grad_w(ws, W0, 0, 0, NOISE)
        np.testing.assert_array_equal(g, 0.0)

    def test_matches_fd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cfg = ScenarioConfig(
                num_antennas=int(rng.integers(2, 10)),
                num_bobs=int(rng.integers(1, 6)),
                num_eves=int(rng.integers(1, 4)),
                num_paths=int(rng.integers(1, 4)),
            )
            ws, W = random_instance(rng, cfg)
            k = int(rng.integers(W.w.shape[1]))
            m = int(rng.integers(ws.h_eve.shape[0]))
            g_an = grad_w(ws, W, k, m, NOISE)
            g_fd = fd_grad_w(ws, W, k, m, NOISE, step=1e-6)
            err = np.linalg.norm(stack_complex(g_an - g_fd)) / np.linalg.norm(stack_complex(g_fd))
            assert err < 1e-4


class TestGradT:
    def test_single_path_stationary_point(self):
        # single path, one user, silent Eve, matched beam: each term
        # conj(h_n) w_n is real positive, so the phase-only position
        # dependence is at a maximum and the gradient vanishes exactly
        rng = np.random.default_rng(4)
        ws, W = random_instance(rng, ScenarioConfig(num_antennas=4, num_bobs=1, num_eves=1, num_paths=1))
        silent = dataclasses.replace(ws.eve_paths, sigma=np.zeros_like(ws.eve_sigma))
        ws = ChannelWorkspace(ws.positions, ws.bob_paths, silent, ws.eve_positions, ws.wavelength)
        matched = with_column(W, 0, np.sqrt(W.p_max) * ws.h_bob[0] / np.linalg.norm(ws.h_bob[0]))
        for n in range(4):
            g = grad_t(ws, matched, n, 0, 0, NOISE)
            np.testing.assert_allclose(g, 0.0, atol=1e-9)

    def test_matches_fd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            cfg = ScenarioConfig(
                num_antennas=int(rng.integers(2, 10)),
                num_bobs=int(rng.integers(1, 6)),
                num_eves=int(rng.integers(1, 4)),
                num_paths=int(rng.integers(1, 4)),
            )
            ws, W = random_instance(rng, cfg)
            k = int(rng.integers(W.w.shape[1]))
            m = int(rng.integers(ws.h_eve.shape[0]))
            n = int(rng.integers(ws.num_antennas))
            g_an = grad_t(ws, W, n, k, m, NOISE)
            g_fd = fd_grad_t(ws, W, n, k, m, NOISE, step=1e-9)
            assert np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd) < 1e-3

    def test_moving_other_antennas_enters_only_through_channels(self):
        # the gradient at antenna n recomputed from a fresh workspace matches
        # the incrementally updated one after unrelated antennas moved
        rng = np.random.default_rng(6)
        ws, W = random_instance(rng)
        ws.move_antenna(3, rng.uniform(0, 0.04, size=3))
        ws.move_antenna(7, rng.uniform(0, 0.04, size=3))
        fresh = ChannelWorkspace(
            ws.positions, ws.bob_paths, ws.eve_paths, ws.eve_positions, ws.wavelength
        )
        g_inc = grad_t(ws, W, 0, 1, 2, NOISE)
        g_fresh = grad_t(fresh, W, 0, 1, 2, NOISE)
        np.testing.assert_allclose(g_inc, g_fresh, rtol=1e-10, atol=1e-12)

    def test_jacobian_sparsity(self):
        # perturbing antenna j != n leaves antenna n's Jacobian column alone
        rng = np.random.default_rng(7)
        ws, W = random_instance(rng)
        before_b, before_e = jacobians(ws, 0, 0, 2)
        ws.move_antenna(5, rng.uniform(0, 0.04, size=3))
        after_b, after_e = jacobians(ws, 0, 0, 2)
        np.testing.assert_array_equal(after_b, before_b)
        np.testing.assert_array_equal(after_e, before_e)


class TestMcAverage:
    def test_count_one_is_single_draw(self):
        rng = np.random.default_rng(8)
        draws = iter([np.array([1.0, 2.0]), np.array([5.0, 5.0])])
        got = mc_average_grad(lambda d: d, lambda: next(draws), 1)
        np.testing.assert_array_equal(got, [1.0, 2.0])

    def test_frozen_sampler_average_is_constant(self):
        rng = np.random.default_rng(9)
        ws, W = random_instance(rng)
        frozen = FrozenGains(ws.bob_sigma, ws.eve_sigma)

        def one_grad(G):
            return grad_w_batch(*pair_inputs(ws, W.w, 0, 0, G)[:3], 0, NOISE)

        def draw():
            return frozen.draw_batch(1, range(len(ws.bob_sigma)))[[0, -1]]  # user 0's link and Eve's

        single = one_grad(draw())
        for count in (1, 3, 10):
            avg = mc_average_grad(one_grad, draw, count)
            np.testing.assert_allclose(avg, single, rtol=1e-15)

    def test_seeded_average_bit_identical(self):
        def make_sampler(seed):
            rng = np.random.default_rng(seed)
            return lambda: rng.standard_normal(4)

        a = mc_average_grad(lambda d: d * 2.0, make_sampler(33), 10)
        b = mc_average_grad(lambda d: d * 2.0, make_sampler(33), 10)
        np.testing.assert_array_equal(a, b)

    def test_linearity_mean_of_grads(self):
        # mean of per-draw gradients equals gradient of the mean objective
        # for these linear-in-draw gradients: check sum consistency directly
        draws = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([3.0, 3.0])]
        it = iter(draws)
        avg = mc_average_grad(lambda d: d, lambda: next(it), 3)
        np.testing.assert_allclose(avg, np.mean(draws, axis=0), rtol=1e-15)

    def test_batched_grads_match_mc_loop(self):
        rng = np.random.default_rng(10)
        ws, W = random_instance(rng)
        k, m, n = 1, 2, 4
        bob_b, eve_b = (
            rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3)),
            rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)),
        )

        batch = np.stack([bob_b[:, k, :], eve_b])  # (2, 6, 3): user k's links, then Eve's

        def grads(G):
            G, C, E, P = pair_inputs(ws, W.w, k, m, G)
            g_w = grad_w_batch(G, C, E, k, NOISE)
            return g_w, grad_t_batch(G, C, E[n].reshape(2, -1, 1), P, W.w[n], k, ws.k0, NOISE)

        batched_w, batched_t = grads(batch)
        for i, want in enumerate((batched_w, batched_t)):
            idx = iter(range(6))

            def draw():
                return batch[:, [next(idx)]]

            loop = mc_average_grad(lambda d: grads(d)[i], draw, 6)
            np.testing.assert_allclose(want, loop, rtol=1e-12)


class TestBatchedOracles:
    # The gain-space kernels against the per-receiver formulas on the draws'
    # channel rows, to 1e-12 of the terms' scale (``assert_close``), over
    # random sizes that include S, N, K, L = 1.
    CASES = 2000

    def _cases(self, seed):
        rng = np.random.default_rng(seed)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(self.CASES):
            S, N, K, L = (int(v) for v in rng.integers(1, [13, 17, 9, 7]))
            noise = float(rng.uniform(1e-5, 1e-2))
            w = cplx(N, K) * rng.uniform(0.01, 1.0)
            G = cplx(2, S, L)
            E = np.exp(1j * rng.uniform(-np.pi, np.pi, (N, 2 * L)))
            C = (E.T @ np.conj(w)).reshape(2, L, K)
            rows = G[0] @ E[:, :L].T, G[1] @ E[:, L:].T
            yield S, N, K, L, G, C, E, rows, w, noise, rng

    def test_grad_w_batch_matches_reference(self):
        for S, N, K, L, G, C, E, (h_b, h_e), w, noise, rng in self._cases(41):
            k = int(rng.integers(K))
            assert_close(grad_w_batch(G, C, E, k, noise), w_reference_mean(h_b, h_e, w, k, noise))

    def test_grad_t_batch_matches_reference(self):
        for S, N, K, L, G, C, E, (h_b, h_e), w, noise, rng in self._cases(42):
            P = rng.standard_normal((2, L, 3))
            P /= np.linalg.norm(P, axis=-1, keepdims=True)
            k0 = float(rng.uniform(100.0, 1000.0))
            n, k = int(rng.integers(N)), int(rng.integers(K))
            jac_b = -1j * k0 * (np.conj(G[0] * E[n, :L]) @ P[0])
            jac_e = -1j * k0 * (np.conj(G[1] * E[n, L:]) @ P[1])
            got = grad_t_batch(G, C, E[n].reshape(2, L, 1), P, w[n], k, k0, noise)
            assert_close(got, t_reference_mean(h_b, h_e, jac_b, jac_e, w, n, k, noise))

    @pytest.mark.parametrize("seed", [43, 44])
    def test_workspace_rows_match_reference(self, seed):
        # One workspace's pair inputs against the reference on its row-form
        # helpers' channel rows and Jacobians.
        rng = np.random.default_rng(seed)
        for _ in range(200):
            N, K, M, L, S = (int(v) for v in rng.integers(1, [10, 7, 4, 6, 11]))
            cfg = ScenarioConfig(num_antennas=N + 1, num_bobs=K, num_eves=M, num_paths=L)
            ws, W = random_instance(rng, cfg)
            k, m, n = int(rng.integers(K)), int(rng.integers(M)), int(rng.integers(N + 1))
            bob = rng.standard_normal((S, L)) + 1j * rng.standard_normal((S, L))
            eve = rng.standard_normal((S, L)) + 1j * rng.standard_normal((S, L))
            G, C, E, P = pair_inputs(ws, W.w, k, m, np.stack([bob, eve]))
            h_b, h_e = ws.h_bob_batch(k, bob), ws.h_eve_batch(m, eve)
            jac_b, jac_e = ws.jac_bob_batch(k, n, bob), ws.jac_eve_batch(m, n, eve)
            assert_close(grad_w_batch(G, C, E, k, NOISE), w_reference_mean(h_b, h_e, W.w, k, NOISE))
            got_t = grad_t_batch(G, C, E[n].reshape(2, -1, 1), P, W.w[n], k, ws.k0, NOISE)
            assert_close(got_t, t_reference_mean(h_b, h_e, jac_b, jac_e, W.w, n, k, NOISE))


class TestAudit:
    def test_small_audit_passes(self):
        report = run_fd_audit(instances=10, seed=42)
        assert report["max_err_w"] < 1e-4
        assert report["max_err_t"] < 1e-3

    def test_audit_deterministic(self):
        a = run_fd_audit(instances=5, seed=7)
        b = run_fd_audit(instances=5, seed=7)
        assert a == b

    @pytest.mark.parametrize("name", ["grad_w_batch", "grad_t_batch"])
    def test_nan_error_is_the_worst(self, monkeypatch, name):
        # One instance whose analytic gradient is NaN makes the worst error NaN,
        # however small the other instances' errors are.
        kernel = getattr(audit, name)
        calls = []

        def nan_on_third(*args):
            calls.append(None)
            g = kernel(*args)
            return g * np.nan if len(calls) == 3 else g

        monkeypatch.setattr(audit, name, nan_on_third)
        report = run_fd_audit(instances=5, seed=0)
        assert len(calls) == 5
        key, other = ("max_err_w", "max_err_t") if name == "grad_w_batch" else ("max_err_t", "max_err_w")
        assert np.isnan(report[key])
        assert report[other] < 1e-3
