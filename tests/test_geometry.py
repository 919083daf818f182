"""Tests for Point, Rect, and Field, incl. hypothesis properties."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.field import Field
from repro.geometry.primitives import Point, Rect

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
coords = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_sq_distance(self):
        assert Point(1, 1).sq_distance_to(Point(4, 5)) == 25.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)

    def test_toward_moves_along_ray(self):
        p = Point(0, 0).toward(Point(10, 0), 4.0)
        assert p == Point(4.0, 0.0)

    def test_toward_beyond_target(self):
        p = Point(0, 0).toward(Point(1, 0), 5.0)
        assert p == Point(5.0, 0.0)

    def test_toward_self_is_noop(self):
        p = Point(2, 3)
        assert p.toward(p, 10.0) == p

    def test_iter_unpacks(self):
        x, y = Point(7, 8)
        assert (x, y) == (7, 8)

    @given(finite, finite, finite, finite)
    def test_distance_symmetric(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert math.isclose(a.distance_to(b), b.distance_to(a))

    @given(finite, finite, finite, finite)
    def test_sq_distance_consistent(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert math.isclose(
            a.sq_distance_to(b), a.distance_to(b) ** 2, rel_tol=1e-9, abs_tol=1e-6
        )


class TestRect:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_dimensions(self):
        r = Rect(1, 2, 4, 8)
        assert r.width == 3 and r.height == 6 and r.area == 18
        assert r.center == Point(2.5, 5.0)

    def test_half_open_containment(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains(Point(0, 0))
        assert not r.contains(Point(10, 10))
        assert r.contains_closed(Point(10, 10))

    def test_split_horizontal_halves_height(self):
        bottom, top = Rect(0, 0, 4, 8).split_horizontal()
        assert bottom == Rect(0, 0, 4, 4)
        assert top == Rect(0, 4, 4, 8)

    def test_split_vertical_halves_width(self):
        left, right = Rect(0, 0, 4, 8).split_vertical()
        assert left == Rect(0, 0, 2, 8)
        assert right == Rect(2, 0, 4, 8)

    def test_split_halves_disjoint_exhaustive(self):
        r = Rect(0, 0, 10, 10)
        a, b = r.split_vertical()
        for p in (Point(0, 5), Point(4.999, 5), Point(5, 5), Point(9.99, 5)):
            assert a.contains(p) != b.contains(p)  # exactly one half

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(2, 2, 8, 8))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(5, 5, 11, 11))

    def test_clamp(self):
        r = Rect(0, 0, 10, 10)
        assert r.clamp(Point(-5, 15)) == Point(0, 10)
        assert r.clamp(Point(3, 4)) == Point(3, 4)

    def test_corners_order(self):
        cs = Rect(0, 0, 2, 3).corners()
        assert cs == (Point(0, 0), Point(2, 0), Point(2, 3), Point(0, 3))

    def test_random_point_inside(self):
        rng = np.random.default_rng(0)
        r = Rect(10, 20, 30, 40)
        for _ in range(50):
            assert r.contains_closed(r.random_point(rng))

    @given(coords, coords, st.floats(1, 500), st.floats(1, 500))
    def test_split_preserves_area(self, x0, y0, w, h):
        r = Rect(x0, y0, x0 + w, y0 + h)
        for a, b in (r.split_horizontal(), r.split_vertical()):
            assert math.isclose(a.area + b.area, r.area, rel_tol=1e-9)
            assert math.isclose(a.area, b.area, rel_tol=1e-9)


class TestField:
    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            Field(0, 100)

    def test_area_and_density(self):
        f = Field(1000, 1000)
        assert f.area == 1e6

    def test_bounds_anchored_at_origin(self):
        assert Field(10, 20).bounds == Rect(0, 0, 10, 20)

    def test_contains_closed_boundary(self):
        f = Field(10, 10)
        assert f.contains(Point(10, 10))
        assert not f.contains(Point(10.01, 5))

    def test_random_points_inside(self):
        f = Field(100, 50)
        rng = np.random.default_rng(1)
        assert all(f.contains(f.random_point(rng)) for _ in range(100))

    def test_clamp(self):
        f = Field(10, 10)
        assert f.clamp(Point(-1, 11)) == Point(0, 10)
