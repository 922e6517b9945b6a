import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masec.geometry import (
    ArrayLayout,
    InfeasibleRegionError,
    complex_norm,
    project_box,
    project_move,
    sample_virtual_eves,
    vector_norm,
)

PATCH = (50.0, 2.0)  # (d, r): center distance and half-length


def position3(x: float, y: float, z: float) -> np.ndarray:
    """A 3-D point as a float array."""
    return np.array([x, y, z], dtype=float)


class TestVirtualEves:
    def test_degenerate_region_collapses_to_center(self):
        p = sample_virtual_eves(50.0, 1e-12, 1, np.random.default_rng(0))
        np.testing.assert_allclose(p, [[50.0, 0.0, 0.0]], atol=1e-9)

    def test_seed_determinism(self):
        a = sample_virtual_eves(*PATCH, 3, np.random.default_rng(123))
        b = sample_virtual_eves(*PATCH, 3, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers(self):
        pts = sample_virtual_eves(*PATCH, 1000, np.random.default_rng(7))
        np.testing.assert_allclose(pts.mean(axis=0), [50.0, 0.0, 0.0], atol=0.1)

    def test_inside_square_on_ground(self):
        pts = sample_virtual_eves(*PATCH, 200, np.random.default_rng(5))
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


class TestProjectMove:
    @given(
        cand=st.tuples(*[st.floats(-0.1, 0.15)] * 3),
        others=st.lists(st.tuples(*[st.floats(-0.05, 0.1)] * 3), max_size=3),
    )
    @settings(max_examples=300)
    def test_sequence_always_feasible(self, cand, others):
        # The result is the box clamp itself, or previous when the clamp
        # comes within d_min of another movable antenna.
        d_min = 0.02
        prev = position3(0.03, 0.03, 0.03)  # feasible w.r.t. box; the others vary
        others = np.array(others).reshape(-1, 3)
        clamp = project_box(np.array(cand), *BOX)
        out = project_move(np.array(cand), prev, *BOX, others, d_min)
        dists = [vector_norm(clamp - q) for q in others]
        if out is prev:
            assert min(dists) < d_min - 1e-9
        else:
            np.testing.assert_array_equal(out, clamp)
            assert all(d >= d_min - 1e-9 for d in dists)

    def test_no_others_is_plain_clamp(self):
        out = project_move(position3(1, 1, 1), position3(0, 0, 0), *BOX, np.empty((0, 3)), 0.02)
        np.testing.assert_allclose(out, [0.04, 0.04, 0.04])

    def test_rejection_keeps_previous(self):
        # another antenna far outside the box: nothing in the box is d_min-compatible
        other = position3(10.0, 10.0, 10.0)
        prev = position3(0.01, 0.01, 0.01)
        out = project_move(position3(0.02, 0.02, 0.02), prev, *BOX, other[None], 100.0)
        np.testing.assert_array_equal(out, prev)

    def test_following_neighbour_alone_rejects(self):
        # A candidate within d_min of another movable antenna is not pushed
        # away from it, it is rejected, whichever others are listed.
        prev = position3(0.0, 0.0, 0.0)
        before, after = position3(-0.05, 0, 0), position3(0.03, 0.0, 0.0)
        assert project_move(position3(0.02, 0.0, 0.0), prev, *BOX, after[None], 0.02) is prev
        assert project_move(position3(0.02, 0.0, 0.0), prev, *BOX, np.array([before, after]), 0.02) is prev

    def test_non_adjacent_other_rejects(self):
        # The candidate keeps d_min from the antenna listed last but not from
        # another movable antenna: rejected.
        d_min = 0.02
        others = np.array([[0.0, 0.0, 0.0], [0.0, 0.02, 0.0], [0.0, 0.04, 0.0]])
        prev = position3(0.0, 0.0, 0.03)
        assert project_move(position3(0.0, 0.0, 0.012), prev, *BOX, others, d_min) is prev
        out = project_move(position3(0.0, 0.005, 0.025), prev, *BOX, others, d_min)
        np.testing.assert_array_equal(out, [0.0, 0.005, 0.025])

    def test_spacing_slack_is_the_layouts(self):
        # A move that ends within the layout's slack of d_min is kept, one
        # just beyond it is rejected, as ArrayLayout's own check would.
        prev, after, d_min = position3(0.0, 0, 0), position3(0.03, 0, 0), 0.02
        inside = position3(0.01 + 5e-10, 0, 0)
        beyond = position3(0.01 + 2e-9, 0, 0)
        np.testing.assert_array_equal(project_move(inside, prev, *BOX, after[None], d_min), inside)
        assert project_move(beyond, prev, *BOX, after[None], d_min) is prev


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

    def test_non_adjacent_movable_pair_rejected(self):
        # Antennas 0 and 3 are not next to each other in index order, but they
        # sit 0.3 apart, as two antennas of one grid column do.
        with pytest.raises(InfeasibleRegionError, match=r"\(0, 3\)"):
            self._layout([[0, 0, 0], [0, 1, 0], [0, 2, 0], [0, 0, 0.3]])

    def test_fixed_antennas_not_bound_by_spacing(self):
        # A 3x3 grid spaced d_min/2, as the MA grid is: with only the four
        # corners movable it is feasible, with every antenna movable it is not.
        grid = [[0, y, z] for y in (0, 0.25, 0.5) for z in (0, 0.25, 0.5)]
        corners = np.isin(np.arange(9), [0, 2, 6, 8])
        assert self._layout(grid, movable=corners).feasible()
        with pytest.raises(InfeasibleRegionError, match=r"\(0, 1\)"):
            self._layout(grid)

    @settings(max_examples=300)
    @given(
        points=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=2, max_size=7),
        movable=st.lists(st.booleans(), min_size=7, max_size=7),
        d_min=st.floats(0.05, 0.6),
    )
    def test_spacing_check_equals_a_pair_loop(self, points, movable, d_min):
        # The reference: every movable pair in index order, with the norm a step's check uses.
        mask = np.array(movable[: len(points)])
        pos = np.array(points)
        idx = np.flatnonzero(mask)
        close = [(int(a), int(b)) for i, a in enumerate(idx) for b in idx[i + 1:]
                 if vector_norm(pos[a] - pos[b]) < d_min - 1e-9]
        if not close:
            assert self._layout(pos, mask, d_min).feasible()
            return
        with pytest.raises(InfeasibleRegionError, match=re.escape(f"antenna pair {close[0]} ")):
            self._layout(pos, mask, d_min)

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
        lay.positions[1] = [0.9, 0, 0]  # back inside, 0.9 and 1.1 from the others
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
