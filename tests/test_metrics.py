import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masec.audit import pair_objective
from masec.metrics import Beamformer, rates, secrecy_report


class FakeChannels:
    """Stacked rows h = [h_bob; h_eve] with row views, as ChannelWorkspace holds them."""

    def __init__(self, h_bob, h_eve):
        self.h = np.concatenate([np.asarray(h_bob, dtype=complex), np.asarray(h_eve, dtype=complex)])
        self.h_bob, self.h_eve = np.split(self.h, [len(h_bob)])


def random_instance(rng, n=4, k=3, m=3, p_max=1.0):
    ch = FakeChannels(
        rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)),
        rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
    )
    w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    w *= np.sqrt(p_max / np.sum(np.abs(w) ** 2))
    return ch, Beamformer(w, p_max)


def scalar_sinr(h, w_cols, k, noise):
    """Independent re-implementation with plain Python complex arithmetic."""
    powers = []
    for col in w_cols:
        acc = 0j
        for hi, wi in zip(h, col):
            acc += complex(hi).conjugate() * complex(wi)
        powers.append(abs(acc) ** 2)
    interference = sum(p for i, p in enumerate(powers) if i != k)
    return powers[k] / (interference + noise)


def with_column(W, k, col):
    """W with beam column k replaced."""
    w = W.w.copy()
    w[:, k] = col
    return Beamformer(w, W.p_max)


class TestBeamformer:
    def test_power_budget_enforced(self):
        w = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            Beamformer(w, 1.0)  # power 4 > 1
        bf = Beamformer(w * 0.5, 1.0)
        assert bf.total_power() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_non_finite_entry_rejected(self, bad):
        # A nan power passes the budget check, so finiteness is checked on its own.
        with pytest.raises(ValueError, match="finite"):
            Beamformer(np.full((2, 2), bad, dtype=complex), 1.0)
        w = np.zeros((2, 2), dtype=complex)
        w[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Beamformer(w, 1.0)


class TestSinr:
    def test_no_interference_single_user(self):
        # |h^H w|^2 = 4 with sigma^2 = 0.5 -> SINR = 8
        h = np.array([[2.0 + 0j]])
        ch = FakeChannels(h, h)
        W = Beamformer(np.array([[1.0 + 0j]]), p_max=2.0)
        assert 2 ** rates(ch.h_bob, W.w, 0.5)[0, 0] - 1 == pytest.approx(8.0)

    def test_zero_beam_gives_zero(self):
        rng = np.random.default_rng(0)
        ch, W = random_instance(rng)
        W0 = with_column(W, 1, np.zeros(4, dtype=complex))
        assert rates(ch.h_bob, W0.w, 0.1)[1, 1] == 0.0
        assert rates(ch.h_eve, W0.w, 0.1)[0, 1] == 0.0

    def test_orthogonal_eve_channel(self):
        ch = FakeChannels(
            np.array([[1.0 + 0j, 0.0]]),
            np.array([[0.0, 1.0 + 0j]]),
        )
        W = Beamformer(np.array([[1.0], [0.0]], dtype=complex), 2.0)
        assert rates(ch.h_eve, W.w, 0.3)[0, 0] == 0.0

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            ch, W = random_instance(rng)
            k = int(rng.integers(3))
            m = int(rng.integers(3))
            cols = [W.w[:, j] for j in range(3)]
            rate_bob = rates(ch.h_bob, W.w, 0.25)[k, k]
            rate_eve = rates(ch.h_eve, W.w, 0.25)[m, k]
            sinr_bob = scalar_sinr(ch.h_bob[k], cols, k, 0.25)
            sinr_eve = scalar_sinr(ch.h_eve[m], cols, k, 0.25)
            assert 2**rate_bob - 1 == pytest.approx(sinr_bob, rel=1e-12)
            assert 2**rate_eve - 1 == pytest.approx(sinr_eve, rel=1e-12)

    def test_noise_monotonicity(self):
        rng = np.random.default_rng(2)
        ch, W = random_instance(rng)
        lo = rates(ch.h_bob, W.w, 0.1)[0, 0]
        hi = rates(ch.h_bob, W.w, 0.2)[0, 0]
        assert lo > hi > 0

    def test_noise_must_be_positive(self):
        rng = np.random.default_rng(3)
        ch, W = random_instance(rng)
        with pytest.raises(ValueError):
            rates(ch.h_bob, W.w, 0.0)


def brute_force_selection(ch, W, noise):
    """Independent enumerator over all (k, m) pairs."""
    k_count = ch.h_bob.shape[0]
    m_count = ch.h_eve.shape[0]
    cols = [W.w[:, j] for j in range(k_count)]
    rb = [np.log2(1 + scalar_sinr(ch.h_bob[k], cols, k, noise)) for k in range(k_count)]
    re = [
        [np.log2(1 + scalar_sinr(ch.h_eve[m], cols, k, noise)) for k in range(k_count)]
        for m in range(m_count)
    ]
    secrecy = [max(rb[k] - max(re[m][k] for m in range(m_count)), 0.0) for k in range(k_count)]
    worst_k = min(range(k_count), key=lambda k: (secrecy[k], k))
    best_m = max(range(m_count), key=lambda m: (re[m][worst_k], -m))
    return rb, re, secrecy, worst_k, best_m


class TestSecrecyReport:
    def test_identical_channels_zero_secrecy(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        ch = FakeChannels(h, h.copy())
        w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        W = Beamformer(w / np.linalg.norm(w), 1.0)
        rep = secrecy_report(ch, W, 0.1)
        np.testing.assert_allclose(rep.secrecy, 0.0, atol=1e-15)

    def test_all_zero_beams(self):
        rng = np.random.default_rng(5)
        ch, _ = random_instance(rng)
        W = Beamformer(np.zeros((4, 3), dtype=complex), 1.0)
        rep = secrecy_report(ch, W, 0.1)
        np.testing.assert_array_equal(rep.secrecy, 0.0)
        assert rep.worst_k == 0  # tie-break to lowest index
        assert rep.best_m == 0

    def test_against_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ch, W = random_instance(rng, n=4, k=5, m=3)
            rep = secrecy_report(ch, W, 0.2)
            rb, re, secrecy, worst_k, best_m = brute_force_selection(ch, W, 0.2)
            np.testing.assert_allclose(rep.rate_bob, rb, rtol=1e-12)
            np.testing.assert_allclose(rep.rate_eve, re, rtol=1e-12)
            np.testing.assert_allclose(rep.secrecy, secrecy, atol=1e-12)
            assert rep.worst_k == worst_k
            assert rep.best_m == best_m

    def test_scale_law_reselects_indices(self):
        # common complex scaling multiplies received powers by |c|^2; the
        # report recomputes its argmin/argmax rather than assuming invariance
        rng = np.random.default_rng(7)
        ch, W = random_instance(rng, n=4, k=4, m=3)
        c = 1.7 - 0.9j
        scaled = FakeChannels(c * ch.h_bob, c * ch.h_eve)
        k, m = 1, 2
        base = abs(np.conj(ch.h_bob[k]) @ W.w[:, m]) ** 2
        scl = abs(np.conj(scaled.h_bob[k]) @ W.w[:, m]) ** 2
        assert scl == pytest.approx(abs(c) ** 2 * base, rel=1e-12)
        rep = secrecy_report(scaled, W, 0.2)
        _, _, _, worst_k, best_m = brute_force_selection(scaled, W, 0.2)
        assert rep.worst_k == worst_k and rep.best_m == best_m

    def test_worst_user_secrecy_helper(self):
        rng = np.random.default_rng(8)
        ch, W = random_instance(rng)
        rep = secrecy_report(ch, W, 0.2)
        assert rep.worst_secrecy == rep.secrecy[rep.worst_k]
        assert rep.secrecy[rep.worst_k] == rep.secrecy.min()


def row_loop_report(ch, W, noise):
    """Per-(receiver, user) loop over single-row products: the unbatched reference."""
    def rate(h, k):
        p = np.abs(np.conj(h) @ W.w) ** 2
        return np.log2(1.0 + float(p[k] / (np.sum(p) - p[k] + noise)))

    k_count, m_count = ch.h_bob.shape[0], ch.h_eve.shape[0]
    rate_bob = np.array([rate(ch.h_bob[k], k) for k in range(k_count)])
    rate_eve = np.array([[rate(ch.h_eve[m], k) for k in range(k_count)] for m in range(m_count)])
    secrecy = np.maximum(rate_bob - rate_eve.max(axis=0), 0.0)
    worst_k = int(np.argmin(secrecy))
    return rate_bob, rate_eve, secrecy, worst_k, int(np.argmax(rate_eve[:, worst_k]))


class TestBatchedRates:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 9),
        m=st.integers(1, 5),
        n=st.integers(1, 10),
        noise=st.floats(1e-6, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_equals_row_loop_bit_for_bit(self, k, m, n, noise, seed):
        ch, W = random_instance(np.random.default_rng(seed), n=n, k=k, m=m)
        rep = secrecy_report(ch, W, noise)
        rate_bob, rate_eve, secrecy, worst_k, best_m = row_loop_report(ch, W, noise)
        assert np.array_equal(rep.rate_bob, rate_bob)
        assert np.array_equal(rep.rate_eve, rate_eve)
        assert np.array_equal(rep.secrecy, secrecy)
        assert (rep.worst_k, rep.best_m) == (worst_k, best_m)

    def test_stacked_batch_equals_each_slice(self):
        rng = np.random.default_rng(13)
        _, W = random_instance(rng, n=5, k=4)
        H = rng.standard_normal((3, 7, 5)) + 1j * rng.standard_normal((3, 7, 5))
        batch = rates(H, W.w, 0.2)
        assert batch.shape == (3, 7, 4)
        for s in range(3):
            assert np.array_equal(batch[s], rates(H[s], W.w, 0.2))

    @pytest.mark.parametrize("noise", [0.0, -0.1, float("nan")])
    def test_report_rejects_nonpositive_noise(self, noise):
        ch, W = random_instance(np.random.default_rng(14))
        with pytest.raises(ValueError):
            secrecy_report(ch, W, noise)


class TestObjectiveValue:
    def test_identical_channels_zero(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        ch = FakeChannels(h, h.copy())
        _, W = random_instance(rng, n=3, k=2, m=2)
        for k in range(2):
            val = pair_objective(ch.h_bob[k], ch.h_eve[k], W.w, k, 0.1)
            assert val == pytest.approx(0.0, abs=1e-14)

    def test_zero_eve_channel_leaves_bob_rate(self):
        rng = np.random.default_rng(10)
        ch, W = random_instance(rng)
        ch0 = FakeChannels(ch.h_bob, np.zeros_like(ch.h_eve))
        got = pair_objective(ch0.h_bob[1], ch0.h_eve[0], W.w, 1, 0.2)
        assert got == pytest.approx(rates(ch.h_bob, W.w, 0.2)[1, 1], rel=1e-12)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ch, W = random_instance(rng)
            k = int(rng.integers(3))
            m = int(rng.integers(3))
            cols = [W.w[:, j] for j in range(3)]
            expected = np.log2(1 + scalar_sinr(ch.h_bob[k], cols, k, 0.3)) - np.log2(
                1 + scalar_sinr(ch.h_eve[m], cols, k, 0.3)
            )
            val = pair_objective(ch.h_bob[k], ch.h_eve[m], W.w, k, 0.3)
            assert val == pytest.approx(expected, rel=1e-12)

    def test_can_be_negative_and_zeroing_restores(self):
        # the unfloored pair objective may go negative; zeroing the user's
        # beam column brings it back to >= 0, so the floor can be dropped
        rng = np.random.default_rng(12)
        seen_negative = False
        for _ in range(50):
            ch, W = random_instance(rng)
            k = int(rng.integers(3))
            m = int(rng.integers(3))
            val = pair_objective(ch.h_bob[k], ch.h_eve[m], W.w, k, 0.05)
            seen_negative = seen_negative or val < 0
            zeroed = with_column(W, k, np.zeros(4, dtype=complex))
            val0 = pair_objective(ch.h_bob[k], ch.h_eve[m], zeroed.w, k, 0.05)
            assert val0 == pytest.approx(0.0, abs=1e-14)
            assert max(val, val0) >= 0.0
        assert seen_negative
