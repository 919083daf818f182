"""Tests for hierarchical zone partitioning — the heart of ALERT."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.zones import (
    Direction,
    destination_zone,
    required_partitions,
    separate_from_zone,
    side_lengths,
    split,
    split_cuts,
)
from repro.geometry.primitives import Point, Rect

FIELD = Rect(0, 0, 1000, 1000)
pos = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)


class TestDirection:
    def test_flip(self):
        assert Direction.HORIZONTAL.flip() is Direction.VERTICAL
        assert Direction.VERTICAL.flip() is Direction.HORIZONTAL


class TestRequiredPartitions:
    def test_paper_default(self):
        # N = 200, k ≈ 6 → H = 5 (paper §4).
        assert required_partitions(200, 6) == 5

    def test_k_ge_n_gives_one(self):
        assert required_partitions(10, 10) == 1
        assert required_partitions(10, 50) == 1

    def test_monotone_in_n(self):
        hs = [required_partitions(n, 6) for n in (50, 100, 200, 400)]
        assert hs == sorted(hs)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            required_partitions(0, 5)
        with pytest.raises(ValueError):
            required_partitions(5, 0)


class TestSideLengths:
    def test_paper_equations(self):
        # Eqs (3)-(4): h=3 → first side /2^2, second /2^1.
        first, second = side_lengths(3, 1000.0, 800.0)
        assert first == pytest.approx(250.0)
        assert second == pytest.approx(400.0)

    def test_zero_partitions(self):
        assert side_lengths(0, 10.0, 20.0) == (10.0, 20.0)

    def test_area_halves_per_partition(self):
        for h in range(8):
            a, b = side_lengths(h, 1000.0, 1000.0)
            assert a * b == pytest.approx(1e6 / 2**h)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            side_lengths(-1, 1.0, 1.0)


class TestDestinationZone:
    def test_paper_example(self):
        """§2.4: field (0,0)-(4,2), H=3, D=(0.5,0.8) → zone (0,0)-(1,1)."""
        bounds = Rect(0, 0, 4, 2)
        zd = destination_zone(bounds, Point(0.5, 0.8), 3, Direction.VERTICAL)
        assert zd == Rect(0, 0, 1, 1)

    def test_zero_partitions_is_field(self):
        assert destination_zone(FIELD, Point(3, 3), 0) == FIELD

    def test_contains_destination(self):
        zd = destination_zone(FIELD, Point(123.4, 567.8), 5)
        assert zd.contains(Point(123.4, 567.8))

    def test_area(self):
        zd = destination_zone(FIELD, Point(10, 10), 5)
        assert zd.area == pytest.approx(FIELD.area / 32)

    def test_boundary_destination_ok(self):
        zd = destination_zone(FIELD, Point(1000.0, 1000.0), 4)
        assert zd.contains_closed(Point(1000.0, 1000.0))

    def test_outside_field_raises(self):
        with pytest.raises(ValueError):
            destination_zone(FIELD, Point(1001, 0), 3)

    def test_negative_h_raises(self):
        with pytest.raises(ValueError):
            destination_zone(FIELD, Point(1, 1), -1)

    def test_deterministic_everywhere(self):
        """Any two parties compute the same Z_D for the same D."""
        d = Point(717.3, 88.1)
        assert destination_zone(FIELD, d, 5) == destination_zone(FIELD, d, 5)

    def test_first_direction_matters(self):
        d = Point(600, 600)
        zv = destination_zone(FIELD, d, 1, Direction.VERTICAL)
        zh = destination_zone(FIELD, d, 1, Direction.HORIZONTAL)
        assert zv != zh
        assert zv.width == 500 and zh.height == 500

    @settings(max_examples=100, deadline=None)
    @given(pos, pos, st.integers(0, 10))
    def test_invariants_property(self, x, y, h):
        d = Point(x, y)
        zd = destination_zone(FIELD, d, h)
        # 1. contains the destination (closed form for boundary points)
        assert zd.contains_closed(d)
        # 2. area is exactly G / 2^h
        assert math.isclose(zd.area, FIELD.area / 2**h)
        # 3. nested in the field
        assert FIELD.contains_rect(zd)
        # 4. alternating splits: side lengths follow eqs (1)-(2)
        w_first, w_second = side_lengths(h, 1000.0, 1000.0)
        assert {round(zd.width, 6), round(zd.height, 6)} == {
            round(w_first, 6), round(w_second, 6),
        }


class TestSplitCuts:
    def test_detects_cut(self):
        zone = Rect(0, 0, 100, 100)
        target = Rect(40, 40, 60, 60)  # straddles both midlines
        assert split_cuts(zone, Direction.VERTICAL, target)
        assert split_cuts(zone, Direction.HORIZONTAL, target)

    def test_no_cut_when_contained_in_half(self):
        zone = Rect(0, 0, 100, 100)
        target = Rect(0, 0, 25, 25)
        assert not split_cuts(zone, Direction.VERTICAL, target)
        assert not split_cuts(zone, Direction.HORIZONTAL, target)

    def test_touching_midline_is_not_cut(self):
        zone = Rect(0, 0, 100, 100)
        target = Rect(0, 0, 50, 50)  # ends exactly at the midline
        assert not split_cuts(zone, Direction.VERTICAL, target)


class TestSeparateFromZone:
    def test_basic_separation(self):
        zd = destination_zone(FIELD, Point(900, 900), 5)
        res = separate_from_zone(FIELD, Point(50, 50), zd, Direction.VERTICAL)
        assert res.next_zone.contains_rect(zd)
        assert not res.next_zone.contains(Point(50, 50))
        assert res.partitions >= 1

    def test_inside_zd_raises(self):
        zd = destination_zone(FIELD, Point(10, 10), 4)
        with pytest.raises(ValueError):
            separate_from_zone(FIELD, Point(10, 10), zd, Direction.VERTICAL)

    def test_outside_zone_raises(self):
        zd = destination_zone(FIELD, Point(10, 10), 4)
        with pytest.raises(ValueError):
            separate_from_zone(
                Rect(0, 0, 100, 100), Point(500, 500), zd, Direction.VERTICAL
            )

    def test_zd_outside_zone_raises(self):
        zd = destination_zone(FIELD, Point(900, 900), 4)
        with pytest.raises(ValueError):
            separate_from_zone(
                Rect(0, 0, 100, 100), Point(50, 50), zd, Direction.VERTICAL
            )

    def test_close_pair_needs_more_partitions(self):
        zd = destination_zone(FIELD, Point(510, 510), 5)
        far = separate_from_zone(FIELD, Point(10, 10), zd, Direction.VERTICAL)
        near = separate_from_zone(FIELD, Point(400, 400), zd, Direction.VERTICAL)
        assert near.partitions >= far.partitions

    def test_direction_alternates(self):
        zd = destination_zone(FIELD, Point(900, 900), 5)
        res = separate_from_zone(FIELD, Point(50, 50), zd, Direction.VERTICAL)
        # One split, vertical → next direction must be horizontal.
        if res.partitions == 1:
            assert res.next_direction is Direction.HORIZONTAL

    @settings(max_examples=150, deadline=None)
    @given(pos, pos, pos, pos, st.integers(1, 8), st.sampled_from(list(Direction)))
    def test_separation_properties(self, sx, sy, dx, dy, h, first):
        """The paper's per-forwarder step never cuts Z_D, always
        separates, and the forwarder ends up outside the next zone."""
        s = Point(sx, sy)
        zd = destination_zone(FIELD, Point(dx, dy), h)
        if zd.contains_closed(s):
            with pytest.raises(ValueError):
                separate_from_zone(FIELD, s, zd, first)
            return
        res = separate_from_zone(FIELD, s, zd, first)
        assert res.next_zone.contains_rect(zd)           # Z_D intact
        assert not res.next_zone.contains(s)             # separated
        assert 1 <= res.partitions <= 64
        assert FIELD.contains_rect(res.next_zone)

    @settings(max_examples=60, deadline=None)
    @given(pos, pos, pos, pos, st.integers(1, 8), st.integers(0, 2**31))
    def test_repeated_separation_converges(self, sx, sy, dx, dy, h, seed):
        """Successive forwarders at random TDs (the protocol's actual
        behaviour) reach Z_D within a bounded number of rounds."""
        import numpy as np

        rng = np.random.default_rng(seed)
        zd = destination_zone(FIELD, Point(dx, dy), h)
        current = Point(sx, sy)
        direction = Direction.VERTICAL
        for _ in range(60):
            if zd.contains_closed(current):
                return  # reached the destination zone (or its edge)
            res = separate_from_zone(FIELD, current, zd, direction)
            direction = res.next_direction
            # The next forwarder is near a random TD in the next zone.
            current = res.next_zone.random_point(rng)
        raise AssertionError(f"did not converge: {current} vs {zd}")


class TestSplit:
    def test_split_dispatch(self):
        r = Rect(0, 0, 4, 8)
        assert split(r, Direction.VERTICAL) == r.split_vertical()
        assert split(r, Direction.HORIZONTAL) == r.split_horizontal()
