import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masec.geometry import (
    ArrayLayout,
    EveRegion,
    InfeasibleRegionError,
    complex_norm,
    project_box,
    project_min_distance,
    project_move,
    sample_virtual_eves,
)

REGION = EveRegion(d=50.0, r=2.0)


def position3(x: float, y: float, z: float) -> np.ndarray:
    """A 3-D point as a float array."""
    return np.array([x, y, z], dtype=float)


class TestEveRegion:
    def test_infeasible_region_rejected(self):
        with pytest.raises(InfeasibleRegionError):
            EveRegion(d=2.0, r=2.0)


class TestVirtualEves:
    def test_degenerate_region_collapses_to_center(self):
        tiny = EveRegion(d=50.0, r=1e-12)
        p = sample_virtual_eves(tiny, 1, np.random.default_rng(0))
        np.testing.assert_allclose(p, [[50.0, 0.0, 0.0]], atol=1e-9)

    def test_seed_determinism(self):
        a = sample_virtual_eves(REGION, 3, np.random.default_rng(123))
        b = sample_virtual_eves(REGION, 3, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        pts = sample_virtual_eves(REGION, 1000, np.random.default_rng(7))
        np.testing.assert_allclose(pts.mean(axis=0), [50.0, 0.0, 0.0], atol=0.1)

    def test_inside_square_on_ground(self):
        pts = sample_virtual_eves(REGION, 200, np.random.default_rng(5))
        assert np.all(pts[:, 0] >= 48.0) and np.all(pts[:, 0] <= 52.0)
        assert np.all(np.abs(pts[:, 1]) <= 2.0)
        assert np.all(pts[:, 2] == 0.0)


BOX = (np.zeros(3), np.full(3, 0.04))  # (lower, upper)


class TestProjectBox:
    def test_interior_point_unchanged(self):
        p = position3(0.01, 0.01, 0.0)
        np.testing.assert_array_equal(project_box(p, *BOX), p)

    def test_per_axis_clamp(self):
        flat = (np.zeros(3), position3(0.04, 0.04, 0.0))
        np.testing.assert_allclose(
            project_box(position3(-1.0, 0.02, 9.0), *flat), [0.0, 0.02, 0.0]
        )

    def test_minimizes_distance_against_grid(self):
        rng = np.random.default_rng(11)
        grid_axis = np.linspace(0.0, 0.04, 21)
        gx, gy, gz = np.meshgrid(grid_axis, grid_axis, grid_axis, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        for _ in range(20):
            p = rng.uniform(-0.1, 0.15, size=3)
            proj = project_box(p, *BOX)
            best_grid = np.min(np.linalg.norm(grid - p, axis=1))
            assert np.linalg.norm(proj - p) <= best_grid + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(-1, 1, size=3)
            once = project_box(p, *BOX)
            np.testing.assert_array_equal(project_box(once, *BOX), once)


class TestProjectMinDistance:
    def test_pushes_out_along_axis(self):
        out = project_min_distance(position3(0.5, 0, 0), position3(0, 0, 0), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_three_four_five_direction(self):
        d_min = 0.02
        out = project_min_distance(
            position3(0.0, 0.3 * d_min, 0.4 * d_min), position3(0, 0, 0), d_min
        )
        np.testing.assert_allclose(out, [0.0, 0.6 * d_min, 0.8 * d_min], rtol=1e-12)

    def test_far_candidate_unchanged(self):
        p = position3(3.0, 4.0, 0.0)
        np.testing.assert_array_equal(project_min_distance(p, position3(0, 0, 0), 1.0), p)

    def test_lands_exactly_on_circle(self):
        rng = np.random.default_rng(21)
        anchor = position3(0.1, -0.2, 0.3)
        for _ in range(100):
            cand = anchor + rng.uniform(-1, 1, size=3) * 0.5
            out = project_min_distance(cand, anchor, 1.0)
            assert np.linalg.norm(out - anchor) == pytest.approx(1.0, rel=1e-12)

    def test_idempotent_with_same_anchor(self):
        anchor = position3(0, 0, 0)
        once = project_min_distance(position3(0.1, 0.2, 0.0), anchor, 1.0)
        np.testing.assert_allclose(project_min_distance(once, anchor, 1.0), once, rtol=1e-12)

    def test_coincident_candidate_perturbed_along_x(self):
        anchor = position3(1.0, 2.0, 3.0)
        out = project_min_distance(anchor.copy(), anchor, 0.5)
        np.testing.assert_allclose(out, [1.5, 2.0, 3.0])


class TestProjectMove:
    @given(
        cand=st.tuples(*[st.floats(-0.1, 0.15)] * 3),
        before=st.tuples(*[st.floats(-0.05, 0.1)] * 3),
        after=st.none() | st.tuples(*[st.floats(-0.05, 0.1)] * 3),
    )
    @settings(max_examples=300)
    def test_sequence_always_feasible(self, cand, before, after):
        d_min = 0.02
        prev = position3(0.03, 0.03, 0.03)  # feasible w.r.t. box; neighbours vary
        after = None if after is None else np.array(after)
        out = project_move(np.array(cand), prev, *BOX, np.array(before), after, d_min)
        inside = np.all(out >= BOX[0] - 1e-12) and np.all(out <= BOX[1] + 1e-12)
        assert inside or np.array_equal(out, prev)
        if not np.array_equal(out, prev):
            assert np.linalg.norm(out - np.array(before)) >= d_min - 1e-9
            if after is not None:
                assert np.linalg.norm(out - after) >= d_min - 1e-9

    def test_no_anchor_is_plain_clamp(self):
        out = project_move(position3(1, 1, 1), position3(0, 0, 0), *BOX, None, None, 0.02)
        np.testing.assert_allclose(out, [0.04, 0.04, 0.04])

    def test_rejection_keeps_previous(self):
        # neighbour before far outside the box: nothing in the box is d_min-compatible
        before = position3(10.0, 10.0, 10.0)
        prev = position3(0.01, 0.01, 0.01)
        out = project_move(position3(0.02, 0.02, 0.02), prev, *BOX, before, None, 100.0)
        np.testing.assert_array_equal(out, prev)

    def test_following_neighbour_alone_rejects(self):
        # Only the neighbour after is violated: the candidate is not pushed
        # away from it, it is rejected.
        prev = position3(0.0, 0.0, 0.0)
        after = position3(0.03, 0.0, 0.0)
        out = project_move(position3(0.02, 0.0, 0.0), prev, *BOX, None, after, 0.02)
        assert out is prev
        out = project_move(position3(0.02, 0.0, 0.0), prev, *BOX, position3(-0.05, 0, 0), after, 0.02)
        assert out is prev

    def test_spacing_slack_is_the_layouts(self):
        # A move that ends within the layout's slack of d_min is kept, one
        # just beyond it is rejected, as ArrayLayout's own check would.
        prev, after, d_min = position3(0.0, 0, 0), position3(0.03, 0, 0), 0.02
        inside = position3(0.01 + 5e-10, 0, 0)
        beyond = position3(0.01 + 2e-9, 0, 0)
        np.testing.assert_array_equal(project_move(inside, prev, *BOX, None, after, d_min), inside)
        assert project_move(beyond, prev, *BOX, None, after, d_min) is prev


class TestArrayLayout:
    def _layout(self, positions, movable=None, d_min=0.5):
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        movable = np.ones(n, dtype=bool) if movable is None else np.asarray(movable)
        return ArrayLayout(positions, positions - 1, positions + 1, movable, d_min)

    def test_valid_layout_accepted(self):
        lay = self._layout([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        assert lay.feasible()
        assert list(lay.movable_indices()) == [0, 1, 2]

    def test_consecutive_spacing_violation_rejected(self):
        with pytest.raises(InfeasibleRegionError):
            self._layout([[0, 0, 0], [0.1, 0, 0]])

    def test_spacing_skips_fixed_antennas(self):
        # middle antenna is fixed and close to both movers; movers are far apart
        lay = self._layout(
            [[0, 0, 0], [0.1, 0, 0], [1, 0, 0]], movable=[True, False, True]
        )
        assert lay.feasible()

    def test_neighbours_skip_fixed_antennas(self):
        lay = self._layout(
            [[0, 0, 0], [0.1, 0, 0], [1, 0, 0], [2, 0, 0]], movable=[True, False, True, True]
        )
        assert [lay.neighbours(n) for n in range(4)] == [(None, 2), (0, 2), (0, 3), (2, None)]

    def test_position_outside_region_rejected(self):
        positions = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        lower, upper = np.zeros((2, 3)), np.ones((2, 3))
        with pytest.raises(InfeasibleRegionError):
            ArrayLayout(positions, lower, upper, np.array([True, True]), 0.5)

    @pytest.mark.parametrize("movable", [True, False])
    @pytest.mark.parametrize("bound", [-1.5, np.inf, np.nan])
    def test_flipped_or_nonfinite_box_rejected(self, movable, bound):
        # An upper y of -1.5 lies below the lower y of -1; inf and nan are not
        # finite.  Either breaks a fixed antenna's rows too.
        positions = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        upper = positions + 1
        upper[0, 1] = bound
        with pytest.raises(InfeasibleRegionError):
            ArrayLayout(positions, positions - 1, upper, np.array([movable, True]), 0.5)

    def test_feasible_runs_the_construction_checks(self):
        lay = self._layout([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        lay.positions[1] = [3.0, 0, 0]  # outside antenna 1's box
        assert not lay.feasible()
        lay.positions[1] = [0.9, 0, 0]  # back inside, 0.9 and 1.1 from its neighbours
        assert lay.feasible()
        lay.positions[2] = [1.2, 0, 0]  # inside its box, 0.3 from antenna 1
        assert not lay.feasible()


class TestNorms:
    def test_complex_norm_equals_linalg_norm(self):
        # pga_w's stop test reads this norm, so it must keep np.linalg.norm's bits.
        rng = np.random.default_rng(12)
        for _ in range(3000):
            size = int(rng.integers(1, 17))
            scale = 10.0 ** rng.uniform(-8, 2)
            v = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
            assert complex_norm(v) == np.linalg.norm(v), v
            col = np.tile(v, (3, 1)).T[:, 1]  # a strided column, as the stage takes it
            assert complex_norm(col) == np.linalg.norm(col), v
