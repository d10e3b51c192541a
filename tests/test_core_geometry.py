"""Convex geometry: hulls, clipping, areas, membership."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import (
    convex_hull,
    convex_intersection,
    half_planes,
    intersect_polygons,
    point_in_convex_polygon,
    points_in_convex_polygon,
    points_in_polygons,
    polygon_area,
    polygon_centroid,
    polygon_stack,
    translate_polygon,
)

SQUARE = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = np.vstack([SQUARE, [[1, 1], [0.5, 0.5]]])
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert polygon_area(hull) == pytest.approx(4.0)

    def test_collinear_points_are_degenerate(self):
        pts = [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert len(convex_hull(pts)) == 0

    def test_fewer_than_three_points(self):
        assert len(convex_hull([[0, 0]])) == 0
        assert len(convex_hull([[0, 0], [1, 1]])) == 0
        assert len(convex_hull([])) == 0

    def test_duplicates_collapse(self):
        pts = [[0, 0], [0, 0], [1, 0], [1, 0], [0, 1]]
        hull = convex_hull(pts)
        assert len(hull) == 3

    points_strategy = st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=3,
        max_size=40,
    )

    @given(points_strategy)
    @settings(max_examples=80, deadline=None)
    def test_hull_contains_all_points(self, pts):
        arr = np.array(pts, dtype=float)
        hull = convex_hull(arr)
        if len(hull) == 0:
            return  # degenerate input
        mask = points_in_convex_polygon(arr, hull)
        assert mask.all()

    @given(points_strategy)
    @settings(max_examples=80, deadline=None)
    def test_hull_is_convex(self, pts):
        hull = convex_hull(np.array(pts, dtype=float))
        n = len(hull)
        if n < 3:
            return
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            crossv = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert crossv > -1e-6


class TestArea:
    def test_square(self):
        assert polygon_area(SQUARE) == pytest.approx(4.0)

    def test_triangle(self):
        assert polygon_area([[0, 0], [4, 0], [0, 3]]) == pytest.approx(6.0)

    def test_orientation_independent(self):
        assert polygon_area(SQUARE[::-1]) == pytest.approx(4.0)

    def test_degenerate_is_zero(self):
        assert polygon_area([[0, 0], [1, 1]]) == 0.0


class TestCentroid:
    def test_square_centroid(self):
        centroid = polygon_centroid(SQUARE)
        assert centroid == pytest.approx([1.0, 1.0])

    def test_degenerate_returns_none(self):
        assert polygon_centroid([[0, 0], [1, 1]]) is None


class TestIntersection:
    def test_overlapping_squares(self):
        other = SQUARE + 1.0
        inter = convex_intersection(SQUARE, other)
        assert polygon_area(inter) == pytest.approx(1.0)

    def test_disjoint_squares(self):
        other = SQUARE + 10.0
        assert len(convex_intersection(SQUARE, other)) == 0

    def test_contained_square(self):
        inner = SQUARE * 0.25 + 0.5
        inter = convex_intersection(SQUARE, inner)
        assert polygon_area(inter) == pytest.approx(polygon_area(inner))

    def test_identity(self):
        inter = convex_intersection(SQUARE, SQUARE)
        assert polygon_area(inter) == pytest.approx(4.0)

    def test_many_polygon_intersection(self):
        polys = [SQUARE, SQUARE + 0.5, SQUARE + 1.0]
        inter = intersect_polygons(polys)
        assert polygon_area(inter) == pytest.approx(1.0)

    def test_empty_list(self):
        assert len(intersect_polygons([])) == 0

    hull_points = st.lists(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=3, max_size=15
    )

    @given(hull_points, hull_points)
    @settings(max_examples=60, deadline=None)
    def test_intersection_area_bounded(self, pts_a, pts_b):
        a = convex_hull(np.array(pts_a))
        b = convex_hull(np.array(pts_b))
        if len(a) < 3 or len(b) < 3:
            return
        inter = convex_intersection(a, b)
        area = polygon_area(inter)
        assert area <= polygon_area(a) + 1e-6
        assert area <= polygon_area(b) + 1e-6

    @given(hull_points, hull_points)
    @settings(max_examples=60, deadline=None)
    def test_intersection_commutative_area(self, pts_a, pts_b):
        a = convex_hull(np.array(pts_a))
        b = convex_hull(np.array(pts_b))
        if len(a) < 3 or len(b) < 3:
            return
        ab = polygon_area(convex_intersection(a, b))
        ba = polygon_area(convex_intersection(b, a))
        assert ab == pytest.approx(ba, abs=1e-6 * max(ab, 1))


class TestMembership:
    def test_inside_outside_boundary(self):
        clockwise = np.array([[0, 0], [0, 2], [2, 2], [2, 0]], dtype=float)
        for square in (SQUARE, clockwise):
            assert point_in_convex_polygon([1, 1], square)
            assert point_in_convex_polygon([0, 0], square)  # vertex
            assert point_in_convex_polygon([1, 0], square)  # edge
            assert not point_in_convex_polygon([3, 1], square)
            assert not point_in_convex_polygon([-0.1, 1], square)

    def test_vectorized_matches_scalar(self):
        pts = np.array([[1, 1], [3, 3], [0, 0], [2.1, 1], [1.9, 1]])
        mask = points_in_convex_polygon(pts, SQUARE)
        expected = [point_in_convex_polygon(p, SQUARE) for p in pts]
        assert mask.tolist() == expected

    def test_degenerate_polygon_contains_nothing(self):
        assert not point_in_convex_polygon([0, 0], np.empty((0, 2)))
        mask = points_in_convex_polygon(np.array([[0.0, 0.0]]), np.empty((0, 2)))
        assert not mask.any()


def test_translate_polygon():
    moved = translate_polygon(SQUARE, [5, -1])
    assert moved[0] == pytest.approx([5, -1])
    assert polygon_area(moved) == pytest.approx(4.0)


class TestLoopReferences:
    """The array-based hull, clipping and membership code against the
    per-element loops it replaced, on numpy scalars: equal arrays, not
    approximately equal ones, because the arithmetic is the same."""

    @staticmethod
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    @staticmethod
    def ccw(poly):
        x, y = poly[:, 0], poly[:, 1]
        signed = float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        return poly[::-1] if signed < 0 else poly

    def hull(self, points):
        arr = np.asarray(points, dtype=float).reshape(-1, 2)
        unique = np.unique(arr, axis=0) if len(arr) >= 3 else arr
        if len(unique) < 3:
            return np.empty((0, 2))
        pts = unique[np.lexsort((unique[:, 1], unique[:, 0]))]

        def half(rows):
            chain = []
            for p in rows:
                while len(chain) >= 2 and self.cross(chain[-2], chain[-1], p) <= 0:
                    chain.pop()
                chain.append(p)
            return chain

        hull = half(pts)[:-1] + half(pts[::-1])[:-1]
        return np.array(hull) if len(hull) >= 3 else np.empty((0, 2))

    def intersection(self, a, b):
        if len(a) < 3 or len(b) < 3:
            return np.empty((0, 2))
        output, clipper = list(self.ccw(a)), self.ccw(b)
        for i in range(len(clipper)):
            if not output:
                return np.empty((0, 2))
            q1, q2 = clipper[i], clipper[(i + 1) % len(clipper)]
            input_pts, output = output, []
            prev = input_pts[-1]
            for current in input_pts:
                inside = self.cross(q1, q2, current) >= -1e-12
                if inside != (self.cross(q1, q2, prev) >= -1e-12):
                    d1, d2 = current - prev, q2 - q1
                    denom = d1[0] * d2[1] - d1[1] * d2[0]
                    if abs(denom) < 1e-12:
                        output.append(current.copy())
                    else:
                        t = ((q1[0] - prev[0]) * d2[1] - (q1[1] - prev[1]) * d2[0]) / denom
                        output.append(prev + t * d1)
                if inside:
                    output.append(current)
                prev = current
        return self.hull(np.array(output)) if len(output) >= 3 else np.empty((0, 2))

    def membership(self, pts, poly):
        if len(poly) < 3:
            return np.zeros(len(pts), dtype=bool)
        poly = self.ccw(poly)
        span = poly.max(axis=0) - poly.min(axis=0)
        tol = -1e-9 * max(float(span[0] * span[1]), 1e-6)
        mask = np.ones(len(pts), dtype=bool)
        for i in range(len(poly)):
            o, e = poly[i], poly[(i + 1) % len(poly)]
            mask &= (e[0] - o[0]) * (pts[:, 1] - o[1]) - (e[1] - o[1]) * (pts[:, 0] - o[0]) >= tol
        return mask

    # Grid points repeat and line up; free floats do neither.
    clouds = st.lists(
        st.one_of(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
                lambda p: (float(p[0]), float(p[1]))
            ),
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        ),
        min_size=0,
        max_size=30,
    )

    @given(clouds)
    @settings(max_examples=150, deadline=None)
    def test_hull_equals_loop_reference(self, pts):
        assert np.array_equal(convex_hull(np.array(pts).reshape(-1, 2)), self.hull(pts))

    @given(clouds, clouds)
    @settings(max_examples=150, deadline=None)
    def test_intersection_equals_loop_reference(self, pts_a, pts_b):
        a, b = self.hull(pts_a), self.hull(pts_b)
        assert np.array_equal(convex_intersection(a, b), self.intersection(a, b))

    @given(clouds, clouds)
    @settings(max_examples=150, deadline=None)
    def test_membership_equals_loop_reference(self, pts, hull_pts):
        arr = np.array(pts, dtype=float).reshape(-1, 2)
        for poly in (self.hull(hull_pts), self.hull(hull_pts)[::-1]):
            assert np.array_equal(points_in_convex_polygon(arr, poly), self.membership(arr, poly))

    @given(clouds, st.lists(clouds, min_size=0, max_size=3),
           st.lists(st.tuples(st.floats(-40, 40), st.floats(-40, 40)), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_stacked_translated_membership_equals_loop_reference(
        self, pts, hull_clouds, offsets
    ):
        """Padded stacks of hulls of different sizes, clockwise ones
        among them, translated by a batch of offsets: membership in their
        union equals the per-hull loop on each translated hull."""
        arr = np.array(pts, dtype=float).reshape(-1, 2)
        hulls = [self.hull(cloud) for cloud in hull_clouds]
        hulls = [h if i % 2 else h[::-1] for i, h in enumerate(hulls) if len(h)]
        offs = np.array(offsets, dtype=float).reshape(-1, 2)
        vertices, successors, sizes = polygon_stack(hulls)
        shift = offs[:, None, None]
        mask = points_in_polygons(
            arr + offs[:, None], half_planes(vertices + shift, successors + shift, sizes)
        )
        assert mask.shape == (len(offs), len(arr))
        for row, off in zip(mask, offs):
            expected = np.zeros(len(arr), dtype=bool)
            for hull in hulls:
                expected |= self.membership(arr + off, hull + off)
            assert np.array_equal(row, expected)
