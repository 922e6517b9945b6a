import dataclasses

import numpy as np
import pytest

from masec.channel import ChannelWorkspace, FrozenGains
from masec.gradients import (
    fd_grad_t,
    fd_grad_w,
    fd_oracle,
    grad_t_batch,
    grad_w_batch,
    random_instance,
    run_fd_audit,
)
from masec.metrics import Beamformer, pair_objective, secrecy_report

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


def rows(h_b, h_e):
    """Stack a user's and an Eve's (S, N) channel rows into the (2, S, N) gradient input."""
    return np.stack([h_b, h_e])


def grad_w(ws, W, k, m, noise):
    """Beam-column gradient at the workspace's own gains (a batch of one draw)."""
    return grad_w_batch(rows(ws.h_bob[k][None], ws.h_eve[m][None]), W.w, k, noise)[0]


def jacobians(ws, k, m, n):
    """Antenna n's Jacobians for user k and Eve m at the workspace's own gains."""
    return ws.jac_bob_batch(k, n, ws.bob_sigma[[k]]), ws.jac_eve_batch(m, n, ws.eve_sigma[None])


def grad_t(ws, W, n, k, m, noise):
    """Position gradient of antenna n at the workspace's own gains."""
    J = np.stack(jacobians(ws, k, m, n))
    return grad_t_batch(rows(ws.h_bob[k][None], ws.h_eve[m][None]), J, W.w, n, k, noise)[0]


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
            ws, W = random_instance(rng, num_antennas=5, num_bobs=3, num_eves=2)
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
        g = grad_w_batch(rows(h_b[None], np.zeros_like(h_b)[None]), W.w, k, NOISE)[0]
        y = np.conj(h_b) @ W.w
        expected = (2.0 * h_b * y[k]) / (np.sum(np.abs(y) ** 2) + NOISE) / np.log(2)
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_zero_beam_single_user_gives_zero(self):
        rng = np.random.default_rng(2)
        ws, W = random_instance(rng, num_bobs=1)
        W0 = with_column(W, 0, np.zeros(ws.num_antennas, dtype=complex))
        g = grad_w(ws, W0, 0, 0, NOISE)
        np.testing.assert_array_equal(g, 0.0)

    def test_matches_fd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ws, W = random_instance(
                rng,
                num_antennas=int(rng.integers(2, 10)),
                num_bobs=int(rng.integers(1, 6)),
                num_eves=int(rng.integers(1, 4)),
                num_paths=int(rng.integers(1, 4)),
            )
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
        ws, W = random_instance(rng, num_antennas=4, num_bobs=1, num_eves=1, num_paths=1)
        silent = dataclasses.replace(ws.eve_paths, sigma=np.zeros_like(ws.eve_sigma))
        ws = ChannelWorkspace(ws.positions, ws.bob_paths, silent, ws.eve_positions, ws.wavelength)
        matched = with_column(W, 0, np.sqrt(W.p_max) * ws.h_bob[0] / np.linalg.norm(ws.h_bob[0]))
        for n in range(4):
            g = grad_t(ws, matched, n, 0, 0, NOISE)
            np.testing.assert_allclose(g, 0.0, atol=1e-9)

    def test_matches_fd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ws, W = random_instance(
                rng,
                num_antennas=int(rng.integers(2, 10)),
                num_bobs=int(rng.integers(1, 6)),
                num_eves=int(rng.integers(1, 4)),
                num_paths=int(rng.integers(1, 4)),
            )
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

        def one_grad(draw):
            bob, eve = draw
            H = rows(ws.h_bob_batch(0, bob[[0]]), ws.h_eve_batch(0, eve[None]))
            return grad_w_batch(H, W.w, 0, NOISE)[0]

        def draw():
            bob, eve = frozen.draw_batch(1)
            return bob[0], eve[0]

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
        H = rows(ws.h_bob_batch(k, bob_b[:, k, :]), ws.h_eve_batch(m, eve_b))
        J = rows(ws.jac_bob_batch(k, n, bob_b[:, k, :]), ws.jac_eve_batch(m, n, eve_b))
        batched_w = grad_w_batch(H, W.w, k, NOISE).mean(axis=0)
        batched_t = grad_t_batch(H, J, W.w, n, k, NOISE).mean(axis=0)

        idx = iter(range(6))

        def draw():
            i = next(idx)
            return bob_b[i], eve_b[i]

        def one_w(d):
            H = rows(ws.h_bob_batch(k, d[0][None, k, :]), ws.h_eve_batch(m, d[1][None]))
            return grad_w_batch(H, W.w, k, NOISE)[0]

        loop_w = mc_average_grad(one_w, draw, 6)
        np.testing.assert_allclose(batched_w, loop_w, rtol=1e-12)

        idx = iter(range(6))

        def one_t(d):
            H = rows(ws.h_bob_batch(k, d[0][None, k, :]), ws.h_eve_batch(m, d[1][None]))
            J = rows(ws.jac_bob_batch(k, n, d[0][None, k, :]), ws.jac_eve_batch(m, n, d[1][None]))
            return grad_t_batch(H, J, W.w, n, k, NOISE)[0]

        loop_t = mc_average_grad(one_t, draw, 6)
        np.testing.assert_allclose(batched_t, loop_t, rtol=1e-12)


class TestBatchedOracles:
    # The stacked forms must equal the per-receiver formulas bit for bit.
    # Some broadcasts run another loop and change the last bits in a small
    # share of cases (S = 1 with K = 1 among them), so many random sizes run.
    CASES = 2000

    def _cases(self, seed):
        rng = np.random.default_rng(seed)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(self.CASES):
            S, N, K = (int(v) for v in rng.integers(1, [13, 17, 9]))
            noise = float(rng.uniform(1e-5, 1e-2))
            w = cplx(N, K) * rng.uniform(0.01, 1.0)
            yield S, N, K, cplx(S, N), cplx(S, N), w, noise, rng

    def test_grad_w_batch_equals_reference(self):
        for S, N, K, h_b, h_e, w, noise, rng in self._cases(41):
            k = int(rng.integers(K))
            got = grad_w_batch(rows(h_b, h_e), w, k, noise)
            assert np.array_equal(got, grad_w_reference(h_b, h_e, w, k, noise)), (S, N, K, k)

    def test_grad_t_batch_equals_reference(self):
        for S, N, K, h_b, h_e, w, noise, rng in self._cases(42):
            jac_b = 200.0 * (rng.standard_normal((S, 3)) + 1j * rng.standard_normal((S, 3)))
            jac_e = 200.0 * (rng.standard_normal((S, 3)) + 1j * rng.standard_normal((S, 3)))
            n, k = int(rng.integers(N)), int(rng.integers(K))
            got = grad_t_batch(rows(h_b, h_e), rows(jac_b, jac_e), w, n, k, noise)
            want = grad_t_reference(h_b, h_e, jac_b, jac_e, w, n, k, noise)
            assert np.array_equal(got, want), (S, N, K, n, k)

    @pytest.mark.parametrize("seed", [43, 44])
    def test_workspace_rows_equal_reference(self, seed):
        # The rows the stages stack: batch channels and Jacobians of one
        # workspace, written into preallocated (2, S, .) buffers.
        rng = np.random.default_rng(seed)
        for _ in range(200):
            N, K, M, L, S = (int(v) for v in rng.integers(1, [10, 7, 4, 6, 11]))
            ws, W = random_instance(rng, num_antennas=N + 1, num_bobs=K, num_eves=M, num_paths=L)
            k, m, n = int(rng.integers(K)), int(rng.integers(M)), int(rng.integers(N + 1))
            bob = rng.standard_normal((S, L)) + 1j * rng.standard_normal((S, L))
            eve = rng.standard_normal((S, L)) + 1j * rng.standard_normal((S, L))
            H = np.empty((2, S, N + 1), dtype=complex)
            J = np.empty((2, S, 3), dtype=complex)
            h_b, h_e = ws.h_bob_batch(k, bob), ws.h_eve_batch(m, eve)
            jac_b, jac_e = ws.jac_bob_batch(k, n, bob), ws.jac_eve_batch(m, n, eve)
            H[0], H[1], J[0], J[1] = h_b, h_e, jac_b, jac_e
            assert np.array_equal(grad_w_batch(H, W.w, k, NOISE), grad_w_reference(h_b, h_e, W.w, k, NOISE))
            want = grad_t_reference(h_b, h_e, jac_b, jac_e, W.w, n, k, NOISE)
            assert np.array_equal(grad_t_batch(H, J, W.w, n, k, NOISE), want)


class TestAudit:
    def test_small_audit_passes(self):
        report = run_fd_audit(instances=10, seed=42)
        assert report["max_err_w"] < 1e-4
        assert report["max_err_t"] < 1e-3

    def test_audit_deterministic(self):
        a = run_fd_audit(instances=5, seed=7)
        b = run_fd_audit(instances=5, seed=7)
        assert a == b
