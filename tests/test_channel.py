import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_oracles import bob_channel_pathsum, eve_channel_pathsum, sample_path_angles, sample_path_gains
from masec.channel import (
    UNIT_NORM_TOL,
    ChannelWorkspace,
    FrozenGains,
    GainSampler,
    PathSet,
    build_realization,
    direction_vector,
)
from masec.geometry import ArrayLayout
from masec.harness import ScenarioConfig, build_scenario

LAM = 0.0107


def random_paths(rng, L=3, side="bob"):
    theta, phi = sample_path_angles(L, rng, side)
    sigma = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    return PathSet.from_angles(theta, phi, sigma)


def stacked(users):
    """Per-user path sets as one stacked (K, L) set, the form the workspace reads."""
    return PathSet(np.stack([ps.p for ps in users]), np.stack([ps.sigma for ps in users]))


def user(paths, k):
    """User k's (L,) path set out of a stacked one."""
    return PathSet(paths.p[k], paths.sigma[k])


def draw_one(sampler, users):
    """One gain draw: (the listed users' gains (len(users), L), eve gains (L,))."""
    bob, eve = sampler.draw_batch(1, users)
    return bob[0], eve[0]


def bob_row(positions, paths, lam=LAM):
    """The workspace's channel row of one user with these paths."""
    ws = ChannelWorkspace(positions, stacked([paths]), paths, np.zeros((1, 3)), lam)
    return ws.h_bob[0]


def eve_row(positions, r, paths, lam=LAM):
    """The workspace's channel row of one virtual Eve at r with these paths."""
    ws = ChannelWorkspace(positions, stacked([paths]), paths, np.asarray(r, dtype=float)[None], lam)
    return ws.h_eve[0]


class TestDirectionVector:
    def test_axis_cases(self):
        np.testing.assert_allclose(direction_vector(0.0, 0.0), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(direction_vector(np.pi / 2, 0.3), [0, 0, 1], atol=1e-12)

    def test_thirty_sixty(self):
        p = direction_vector(np.pi / 6, np.pi / 3)
        np.testing.assert_allclose(p, [0.43301270189221946, 0.75, 0.5], atol=1e-12)

    @given(theta=st.floats(-10, 10), phi=st.floats(-10, 10))
    @settings(max_examples=200)
    def test_unit_norm(self, theta, phi):
        assert np.linalg.norm(direction_vector(theta, phi)) == pytest.approx(1.0, abs=1e-12)


class TestPathSetUnitNorm:
    # The accepted |norm - 1| is np.allclose(norm, 1, atol=1e-12)'s, rtol included.
    def paths_with_norm(self, scale):
        p = direction_vector([0.3, -0.7], [0.2, 1.1]) * scale
        return PathSet(p, np.ones(2, dtype=complex))

    def test_tolerance_is_allclose_default(self):
        assert UNIT_NORM_TOL == 1e-12 + 1e-5

    def test_slightly_off_direction_accepted(self):
        self.paths_with_norm(1.0 + 1e-6)
        self.paths_with_norm(1.0 - 1e-6)

    @settings(max_examples=300)
    @given(
        angles=st.lists(st.floats(-3.2, 3.2), min_size=2, max_size=8, unique=True),
        sign=st.sampled_from([-1.0, 1.0]),
        nudge=st.floats(-1e-9, 1e-9),
    )
    def test_accepts_what_allclose_accepts(self, angles, sign, nudge):
        # Scales within a relative 1e-9 of the tolerance's edge.
        theta, phi = np.reshape(angles[: len(angles) // 2 * 2], (2, -1))
        p = direction_vector(theta, phi) * (1.0 + sign * UNIT_NORM_TOL * (1.0 + nudge))
        want = np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)
        try:
            PathSet(p, np.ones(theta.shape, dtype=complex))
            got = True
        except ValueError:
            got = False
        assert got == want

    @pytest.mark.parametrize("scale", [1.0 + 1e-4, 1.0 - 1e-4, np.nan])
    def test_off_or_nan_direction_rejected(self, scale):
        with pytest.raises(ValueError, match="unit norm"):
            self.paths_with_norm(scale)

    def test_stacked_paths_accepted(self):
        theta, phi = np.random.default_rng(0).uniform(-1.5, 1.5, size=(2, 4, 3))
        paths = PathSet(direction_vector(theta, phi), np.ones((4, 3), dtype=complex))
        assert paths.p.shape == (4, 3, 3)
        bad = paths.p.copy()
        bad[2, 1] *= 1.0 + 1e-4
        with pytest.raises(ValueError, match="unit norm"):
            dataclasses.replace(paths, p=bad)

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="theta and phi"):
            PathSet.from_angles([0.1, 0.2], [0.3], [1.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            PathSet.from_angles([0.1, 0.2], [0.3, 0.4], [1.0])
        with pytest.raises(ValueError, match="shape"):
            PathSet(direction_vector([0.1, 0.2], [0.3, 0.4]), np.ones((1, 2), dtype=complex))

    def test_from_angles_keeps_complex_gains(self):
        sigma = np.ones((2, 3), dtype=complex)
        assert PathSet.from_angles(np.zeros((2, 3)), np.zeros((2, 3)), sigma).sigma is sigma


class TestTransmitFrv:
    # A single path of unit gain: the channel entry of an antenna is its
    # transmit field-response factor e^{j k0 t.p}.

    def test_origin_gives_ones(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            paths = dataclasses.replace(random_paths(rng, L=1), sigma=np.ones(1, dtype=complex))
            np.testing.assert_allclose(bob_row(np.zeros((3, 3)), paths), np.ones(3), atol=1e-15)

    def test_half_wavelength_flips_sign(self):
        paths = PathSet.from_angles([0.3], [0.1], [1.0])
        t = (LAM / 2) * paths.p[0]
        val = bob_row(t[None], paths)
        np.testing.assert_allclose(val, [-1.0 + 0j], atol=1e-12)

    def test_phases_match_independent_dot_products(self):
        rng = np.random.default_rng(1)
        paths = random_paths(rng, L=4)
        t = rng.uniform(-0.05, 0.05, size=3)
        for ell in range(4):
            one = PathSet(paths.p[[ell]], np.ones(1, dtype=complex))
            dot = sum(float(t[c]) * float(paths.p[ell, c]) for c in range(3))
            expected = complex(np.cos(2 * np.pi / LAM * dot), np.sin(2 * np.pi / LAM * dot))
            assert bob_row(t[None], one)[0] == pytest.approx(expected, abs=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(2)
        paths = PathSet.from_angles(*sample_path_angles(1, rng, "bob"), [1.0])
        t = rng.uniform(-1, 1, size=(20, 3))
        np.testing.assert_allclose(np.abs(bob_row(t, paths)), 1.0, atol=1e-12)


class TestBobChannel:
    def test_single_path_unit_gain_at_origin(self):
        paths = PathSet.from_angles([0.2], [0.4], [1.0])
        h = bob_row(np.zeros((4, 3)), paths)
        np.testing.assert_allclose(h, np.ones(4), atol=1e-14)
        # several paths: the zero position sums the gains
        paths = random_paths(np.random.default_rng(13), L=4)
        h = bob_row(np.zeros((3, 3)), paths)
        np.testing.assert_allclose(h, np.full(3, paths.sigma.sum()), atol=1e-14)

    def test_constructed_phase_cancellation(self):
        # two unit-gain paths along +x and +y; t = (lam/2, 0, 0) makes the
        # path phases differ by pi, so the entry cancels
        paths = PathSet.from_angles([0.0, 0.0], [0.0, np.pi / 2], [1.0, 1.0])
        positions = np.array([[LAM / 2, 0.0, 0.0], [0.0, 0.0, 0.0]])
        h = bob_row(positions, paths, LAM)
        assert abs(h[0]) < 1e-10
        assert h[1] == pytest.approx(2.0, abs=1e-12)

    def test_matrix_form_equals_path_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            paths = random_paths(rng, L=int(rng.integers(1, 5)))
            positions = rng.uniform(-0.05, 0.05, size=(int(rng.integers(2, 8)), 3))
            np.testing.assert_allclose(
                bob_row(positions, paths, LAM),
                bob_channel_pathsum(positions, paths, LAM),
                atol=1e-12,
            )

    def test_translation_covariance_single_path(self):
        paths = PathSet.from_angles([0.7], [-0.2], [0.5 - 0.3j])
        positions = np.array([[0.01, 0.02, 0.0]])
        delta = np.array([0.003, -0.001, 0.002])
        h0 = bob_row(positions, paths, LAM)
        h1 = bob_row(positions + delta, paths, LAM)
        phase = np.exp(1j * 2 * np.pi / LAM * float(delta @ paths.p[0]))
        np.testing.assert_allclose(h1, h0 * phase, rtol=1e-12)

    def test_linear_in_gains(self):
        rng = np.random.default_rng(4)
        paths = random_paths(rng)
        positions = rng.uniform(-0.02, 0.02, size=(5, 3))
        h1 = bob_row(positions, paths, LAM)
        h2 = bob_row(positions, dataclasses.replace(paths, sigma=2.0 * paths.sigma), LAM)
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-12)
        np.testing.assert_allclose(np.abs(h2), 2.0 * np.abs(h1), rtol=1e-12)


class TestEveChannel:
    def test_receiver_at_origin_matches_bob_form(self):
        rng = np.random.default_rng(5)
        paths = random_paths(rng, side="eve")
        positions = rng.uniform(-0.03, 0.03, size=(6, 3))
        np.testing.assert_allclose(
            eve_row(positions, np.zeros(3), paths, LAM),
            bob_row(positions, paths, LAM),
            atol=1e-12,
        )

    def test_colocated_transmit_receive_cancels_phase(self):
        paths = PathSet.from_angles([0.4], [0.2], [1.0])
        r = np.array([0.013, -0.004, 0.009])
        h = eve_row(r[None, :], r, paths, LAM)
        np.testing.assert_allclose(h, [1.0 + 0j], atol=1e-12)

    def test_matrix_form_equals_path_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            paths = random_paths(rng, L=int(rng.integers(1, 5)), side="eve")
            positions = rng.uniform(-0.05, 0.05, size=(int(rng.integers(2, 8)), 3))
            r = rng.uniform(-10 * LAM, 10 * LAM, size=3)
            np.testing.assert_allclose(
                eve_row(positions, r, paths, LAM),
                eve_channel_pathsum(positions, r, paths, LAM),
                atol=1e-12,
            )

    def test_matrix_form_equals_path_sum_far_receiver(self):
        # at ~50 m the receive phases reach ~3e4 rad and the two independent
        # factorizations can only agree to |phase| * machine-eps
        rng = np.random.default_rng(7)
        for _ in range(50):
            paths = random_paths(rng, L=3, side="eve")
            positions = rng.uniform(-0.05, 0.05, size=(5, 3))
            r = np.array([50.0, 0.0, 0.0]) + rng.uniform(-2, 2, size=3)
            np.testing.assert_allclose(
                eve_row(positions, r, paths, LAM),
                eve_channel_pathsum(positions, r, paths, LAM),
                atol=1e-9,
            )


class TestPathGains:
    def test_db_conversion(self):
        assert 10 ** (30.0 / 10.0) == pytest.approx(1000.0)

    def test_empirical_variance(self):
        # per-path variance (1000/3) * 50^-2 = 0.13333...
        rng = np.random.default_rng(8)
        draws = np.concatenate(
            [sample_path_gains(3, 30.0, 50.0, 2.0, rng) for _ in range(100_000 // 3 + 1)]
        )
        expected = (1000.0 / 3.0) * 50.0**-2.0
        assert expected == pytest.approx(0.13333333333333333)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(expected, rel=0.02)

    def test_seed_determinism(self):
        a = sample_path_gains(5, 30.0, 40.0, 2.0, np.random.default_rng(9))
        b = sample_path_gains(5, 30.0, 40.0, 2.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_path_gains(0, 30.0, 50.0, 2.0, rng)
        with pytest.raises(ValueError):
            sample_path_gains(3, 30.0, 0.0, 2.0, rng)


class TestPathAngles:
    def test_bob_ranges(self):
        theta, phi = sample_path_angles(500, np.random.default_rng(10), "bob")
        assert np.all(np.abs(theta) <= np.pi / 2)
        assert np.all(np.abs(phi) <= np.pi / 2)

    def test_eve_ranges(self):
        theta, phi = sample_path_angles(500, np.random.default_rng(11), "eve")
        assert np.all((theta >= 0) & (theta <= np.pi))
        assert np.all(np.abs(phi) <= np.pi / 2)

    def test_different_seeds_differ(self):
        a = sample_path_angles(16, np.random.default_rng(1), "bob")
        b = sample_path_angles(16, np.random.default_rng(2), "bob")
        assert not np.allclose(a[0], b[0])


class TestWorkspace:
    def _setup(self, seed=12, n=5, k=3, m=2, L=3):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-0.03, 0.03, size=(n, 3))
        bob_paths = stacked([random_paths(rng, L) for _ in range(k)])
        eve_paths = random_paths(rng, L, side="eve")
        eve_positions = rng.uniform(40, 60, size=(m, 3)) * np.array([1, 0.05, 0])
        ws = ChannelWorkspace(positions, bob_paths, eve_paths, eve_positions, LAM)
        return rng, positions, bob_paths, eve_paths, eve_positions, ws

    def test_matches_direct_construction(self):
        _, positions, bob_paths, eve_paths, eve_positions, ws = self._setup()
        layout = ArrayLayout(positions, positions, positions, np.zeros(len(positions), dtype=bool), 1e-9)
        for ch in (
            ChannelWorkspace(positions, bob_paths, eve_paths, eve_positions, LAM),
            build_realization(layout, bob_paths, eve_paths, eve_positions, LAM),
        ):
            assert isinstance(ch, ChannelWorkspace)
            assert np.array_equal(ch.h_bob, ws.h_bob) and np.array_equal(ch.h_eve, ws.h_eve)
        for k in range(len(bob_paths.sigma)):
            ps = user(bob_paths, k)
            np.testing.assert_allclose(ws.h_bob[k], bob_channel_pathsum(positions, ps, LAM), atol=1e-13)
        for m, r in enumerate(eve_positions):
            np.testing.assert_allclose(
                ws.h_eve[m], eve_channel_pathsum(positions, r, eve_paths, LAM), atol=1e-9
            )

    def test_reads_the_stacked_user_paths_in_place(self):
        _, _, bob_paths, eve_paths, _, ws = self._setup()
        assert ws.bob_p is bob_paths.p and ws.bob_sigma is bob_paths.sigma
        assert ws.eve_p is eve_paths.p and ws.eve_sigma is eve_paths.sigma

    def test_rejects_user_paths_without_a_user_axis(self):
        rng, positions, _, eve_paths, eve_positions, _ = self._setup()
        one_user = random_paths(rng)  # (L,) arrays
        with pytest.raises(ValueError, match="stacked"):
            ChannelWorkspace(positions, one_user, eve_paths, eve_positions, LAM)

    def test_incremental_move_matches_rebuild(self):
        rng, positions, bob_paths, eve_paths, eve_positions, ws = self._setup()
        for _ in range(5):
            n = int(rng.integers(positions.shape[0]))
            t = rng.uniform(-0.03, 0.03, size=3)
            ws.move_antenna(n, t)
            fresh = ChannelWorkspace(ws.positions, bob_paths, eve_paths, eve_positions, LAM)
            np.testing.assert_allclose(ws.h_bob, fresh.h_bob, atol=1e-13)
            np.testing.assert_allclose(ws.h_eve, fresh.h_eve, atol=1e-13)

    @pytest.mark.parametrize("kind", ["MA", "ULA", "UPA"])
    def test_user_and_eve_rows_are_views_of_one_channel(self, kind):
        scen = build_scenario(ScenarioConfig(array_kind=kind), np.random.default_rng(21))
        ws, draw = scen.workspace(), scen.draw
        num_bobs = len(draw.bob_paths.sigma)
        assert ws.h.shape == (num_bobs + len(draw.eve_positions), ws.num_antennas)
        assert ws.h.flags.c_contiguous
        assert ws.h_bob.base is ws.h and ws.h_eve.base is ws.h
        rng = np.random.default_rng(5)
        for n in rng.permutation(ws.num_antennas):
            before = ws.h.copy()
            ws.move_antenna(int(n), ws.positions[n] + rng.uniform(-LAM, LAM, size=3))
            assert not np.array_equal(ws.h[:, n], before[:, n])
            # The move shows in h and in both row views.
            assert np.array_equal(ws.h_bob, ws.h[:num_bobs]) and np.array_equal(ws.h_eve, ws.h[num_bobs:])
            assert np.array_equal(np.delete(ws.h, n, axis=1), np.delete(before, n, axis=1))
            fresh = ChannelWorkspace(ws.positions, draw.bob_paths, draw.eve_paths, draw.eve_positions, LAM)
            for name in ("h", "h_bob", "h_eve", "_e_bob", "_e_eve_tx"):
                assert np.array_equal(getattr(ws, name), getattr(fresh, name)), name

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), m=st.integers(1, 4), L=st.integers(1, 9)
    )
    def test_columns_at_equals_move_antenna_bit_for_bit(self, seed, k, m, L):
        rng, positions, _, _, _, ws = self._setup(seed=seed, k=k, m=m, L=L)
        targets = rng.uniform(-0.03, 0.03, size=(6, 3))
        before = (ws.positions.copy(), ws.h_bob.copy(), ws.h_eve.copy())
        cols = ws.columns_at(targets)
        for now, was in zip((ws.positions, ws.h_bob, ws.h_eve), before):
            assert np.array_equal(now, was)  # the workspace did not move
        assert cols.shape == (6, k + m)
        for s, t in enumerate(targets):
            n = int(rng.integers(positions.shape[0]))
            ws.move_antenna(n, t)
            assert np.array_equal(cols[s], np.concatenate([ws.h_bob[:, n], ws.h_eve[:, n]]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 16),
        k=st.integers(1, 6),
        m=st.integers(1, 4),
        L=st.integers(1, 9),
    )
    def test_fresh_build_equals_moving_each_antenna_in_place(self, seed, n, k, m, L):
        # A channel's bits must not depend on how its positions were reached:
        # moving antenna j to where it already stands changes nothing.
        _, positions, _, _, _, ws = self._setup(seed=seed, n=n, k=k, m=m, L=L)

        def state():  # the channels, and the cached phases the batch helpers read
            bob = [ws.h_bob_batch(i, ws.bob_sigma[[i]]) for i in range(k)]
            eve = [ws.h_eve_batch(i, ws.eve_sigma[None]) for i in range(m)]
            return [ws.h_bob.copy(), ws.h_eve.copy()] + bob + eve

        fresh = state()
        for j in range(n):
            ws.move_antenna(j, positions[j])
        for a, b in zip(fresh, state()):
            assert np.array_equal(a, b)

    def test_batch_helpers_match_scalar_paths(self):
        rng, positions, bob_paths, eve_paths, eve_positions, ws = self._setup()
        bob_batch = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        eve_batch = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        for s in range(4):
            drawn = ChannelWorkspace(
                positions,
                dataclasses.replace(bob_paths, sigma=np.tile(bob_batch[s], (len(bob_paths.sigma), 1))),
                dataclasses.replace(eve_paths, sigma=eve_batch[s]),
                eve_positions,
                LAM,
            )
            np.testing.assert_allclose(
                ws.h_bob_batch(1, bob_batch[[s]])[0], drawn.h_bob[1], atol=1e-13
            )
            np.testing.assert_allclose(
                ws.h_eve_batch(0, eve_batch[[s]])[0], drawn.h_eve[0], atol=1e-13
            )


class TestSamplers:
    def _sampler(self, seed):
        return GainSampler(3, 30.0, np.array([25.0, 30.0, 35.0]), 50.0, 2.0, np.random.default_rng(seed))

    def test_draw_shapes(self):
        bob, eve = draw_one(self._sampler(0), range(3))
        assert bob.shape == (3, 3) and eve.shape == (3,)
        bob, eve = draw_one(self._sampler(0), (1,))
        assert bob.shape == (1, 3) and eve.shape == (3,)

    def test_batch_equals_sequential_draws(self):
        for users in [(0, 1, 2), (1,), (2, 0), ()]:
            bob_b, eve_b = self._sampler(5).draw_batch(4, users)
            s2 = self._sampler(5)
            for i in range(4):
                bob, eve = draw_one(s2, users)
                np.testing.assert_array_equal(bob_b[i], bob)
                np.testing.assert_array_equal(eve_b[i], eve)

    def test_rejects_bad_inputs_at_construction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GainSampler(0, 30.0, np.array([25.0]), 50.0, 2.0, rng)
        with pytest.raises(ValueError):
            GainSampler(3, 30.0, np.array([25.0, 0.0]), 50.0, 2.0, rng)
        with pytest.raises(ValueError):
            GainSampler(3, 30.0, np.array([25.0]), -1.0, 2.0, rng)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        L=st.integers(1, 6),
        counts=st.lists(st.integers(1, 12), min_size=3, max_size=3),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=8),
        alpha=st.floats(1.5, 4.5),
        g0_db=st.floats(-20.0, 40.0),
    )
    def test_draws_equal_per_link_sample_path_gains(self, seed, k, L, counts, picks, alpha, g0_db):
        # Oracle: one sample_path_gains call per link on a twin generator,
        # the listed users in the order given (numpy-scalar distances) and
        # Eve last (a float).  The batches list some users, the last draw all.
        bob_d = np.random.default_rng(seed).uniform(1.0, 500.0, size=k)
        eve_d = float(np.random.default_rng([seed, 1]).uniform(1.0, 500.0))
        sampler = GainSampler(L, g0_db, bob_d, eve_d, alpha, np.random.default_rng([seed, 2]))
        twin = np.random.default_rng([seed, 2])
        users = [p % k for p in picks]

        def reference(users):
            bob = np.stack([sample_path_gains(L, g0_db, bob_d[u], alpha, twin) for u in users])
            return bob, sample_path_gains(L, g0_db, eve_d, alpha, twin)

        for count in counts:
            bob, eve = sampler.draw_batch(count, users)
            assert bob.shape == (count, len(users), L) and eve.shape == (count, L)
            for s in range(count):
                ref_bob, ref_eve = reference(users)
                assert np.array_equal(bob[s], ref_bob)
                assert np.array_equal(eve[s], ref_eve)
        bob, eve = draw_one(sampler, range(k))
        ref_bob, ref_eve = reference(range(k))
        assert np.array_equal(bob, ref_bob) and np.array_equal(eve, ref_eve)

    @pytest.mark.parametrize("count", [1, 2, 3, 10])
    @pytest.mark.parametrize("L", [1, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_draws_equal_one_standard_normal_block(self, count, L, k):
        # A batch is one standard_normal((count, len(users) + 1, 2, L)) block
        # on a twin generator: per draw, the listed users in order and Eve
        # last, each link's real parts before its imaginary parts, times that
        # link's held scale.  Checked for one user (the last, as a PGA step
        # lists one) and for every user, each on a fresh sampler and twin.
        seed = 1000 * k + 10 * L + count
        bob_d = np.random.default_rng(seed).uniform(1.0, 500.0, size=k)
        for users in [(k - 1,), tuple(range(k))]:
            sampler = GainSampler(L, 30.0, bob_d, 50.0, 2.0, np.random.default_rng([seed, 2]))
            twin = np.random.default_rng([seed, 2])
            scales = np.array([sampler._bob_scales[u] for u in users] + [sampler._eve_scale])
            for _ in range(2):
                bob, eve = sampler.draw_batch(count, users)
                z = twin.standard_normal((count, len(users) + 1, 2, L))
                want = scales[:, None] * (z[:, :, 0] + 1j * z[:, :, 1])
                assert np.array_equal(bob, want[:, :-1]) and np.array_equal(eve, want[:, -1])
                assert sampler.rng.bit_generator.state == twin.bit_generator.state

    def test_frozen_gains_repeat(self):
        bob, eve = draw_one(self._sampler(1), range(3))
        frozen = FrozenGains(bob, eve)
        b1, e1 = frozen.draw_batch(3, range(3))
        for i in range(3):
            np.testing.assert_array_equal(b1[i], bob)
            np.testing.assert_array_equal(e1[i], eve)
        b2, e2 = frozen.draw_batch(2, (2, 0))
        assert b2.shape == (2, 2, 3) and e2.shape == (2, 3)
        for i in range(2):
            np.testing.assert_array_equal(b2[i], bob[[2, 0]])
            np.testing.assert_array_equal(e2[i], eve)
