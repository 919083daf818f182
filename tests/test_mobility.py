"""Tests for mobility models and the trajectory machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.field import Field
from repro.geometry.primitives import Point
from repro.mobility.base import (
    MobilityModel,
    Segment,
    SnapshotInterpolator,
    Trajectory,
)
from repro.mobility.group_mobility import GroupMobility, GroupReference, make_group_mobility
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.static import StaticPosition
from tests.oracles import scalar_positions


class TestSegment:
    def test_interpolation(self):
        s = Segment(0.0, 10.0, Point(0, 0), Point(10, 20))
        assert s.at(5.0) == Point(5, 10)

    def test_clamps_outside_range(self):
        s = Segment(0.0, 10.0, Point(0, 0), Point(10, 0))
        assert s.at(-1.0) == Point(0, 0)
        assert s.at(11.0) == Point(10, 0)

    def test_pause_segment(self):
        s = Segment(2.0, 2.0, Point(3, 3), Point(3, 3))
        assert s.at(2.0) == Point(3, 3)


class TestTrajectory:
    def test_empty_returns_origin(self):
        t = Trajectory(Point(1, 2))
        assert t.at(5.0) == Point(1, 2)

    def test_non_contiguous_append_raises(self):
        t = Trajectory(Point(0, 0))
        t.append(Segment(0, 1, Point(0, 0), Point(1, 0)))
        with pytest.raises(ValueError):
            t.append(Segment(2, 3, Point(1, 0), Point(2, 0)))

    def test_bisect_lookup(self):
        t = Trajectory(Point(0, 0))
        t.append(Segment(0, 1, Point(0, 0), Point(1, 0)))
        t.append(Segment(1, 2, Point(1, 0), Point(1, 1)))
        assert t.at(0.5) == Point(0.5, 0)
        assert t.at(1.5) == Point(1, 0.5)

    def test_stalled_extend_raises(self):
        t = Trajectory(Point(0, 0))
        with pytest.raises(RuntimeError):
            t.ensure(1.0, lambda: None)


class TestRandomWaypoint:
    def _model(self, seed=0, **kw):
        fld = Field(1000, 1000)
        rng = np.random.default_rng(seed)
        return fld, RandomWaypoint(fld, rng, **kw)

    def test_invalid_speed_raises(self):
        fld = Field(100, 100)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandomWaypoint(fld, rng, speed_min=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(fld, rng, speed_min=5.0, speed_max=2.0)

    def test_stays_in_field(self):
        fld, m = self._model(seed=2)
        for t in np.linspace(0, 500, 200):
            assert fld.contains(m.position(float(t)))

    def test_respects_speed(self):
        _, m = self._model(seed=3, speed_min=2.0, speed_max=2.0)
        dt = 0.5
        for t in np.arange(0, 100, dt):
            a = m.position(float(t))
            b = m.position(float(t + dt))
            assert a.distance_to(b) <= 2.0 * dt + 1e-9

    def test_deterministic_given_seed(self):
        _, m1 = self._model(seed=7)
        _, m2 = self._model(seed=7)
        for t in (0.0, 13.7, 99.2):
            assert m1.position(t) == m2.position(t)

    def test_backward_queries_consistent(self):
        _, m = self._model(seed=8)
        late = m.position(200.0)
        early = m.position(10.0)
        assert m.position(200.0) == late
        assert m.position(10.0) == early

    def test_pause_time_dwells(self):
        fld = Field(100, 100)
        m = RandomWaypoint(fld, np.random.default_rng(4), speed_min=10, speed_max=10)
        m.pause_time = 5.0  # a class constant, read as each leg is drawn
        # Scan for an interval where the node does not move (the pause).
        ts = np.linspace(0, 120, 2400)
        stationary = 0
        prev = m.position(0.0)
        for t in ts[1:]:
            cur = m.position(float(t))
            if cur.distance_to(prev) < 1e-9:
                stationary += 1
            prev = cur
        assert stationary > 10

    def test_speed_reported(self):
        _, m = self._model(speed_min=2.0, speed_max=4.0)
        assert m.speed() == 3.0


class TestStatic:
    def test_never_moves(self):
        m = StaticPosition(Point(5, 6))
        assert m.position(0.0) == Point(5, 6)
        assert m.position(1e6) == Point(5, 6)
        assert m.speed() == 0.0


class TestGroupMobility:
    def test_member_stays_near_reference(self):
        fld = Field(1000, 1000)
        rng = np.random.default_rng(5)
        ref = GroupReference(fld, rng, 2.0, 2.0)
        member = GroupMobility(fld, ref, group_range=150.0, rng=rng)
        for t in np.linspace(0, 200, 100):
            c = ref.position(float(t))
            p = member.position(float(t))
            # Offset bounded by the group range square's diagonal
            # (clamping to the field can only reduce the distance).
            assert abs(p.x - c.x) <= 150.0 + 1e-9 or p.x in (0.0, 1000.0)
            assert abs(p.y - c.y) <= 150.0 + 1e-9 or p.y in (0.0, 1000.0)

    def test_member_stays_in_field(self):
        fld = Field(500, 500)
        rng = np.random.default_rng(6)
        ref = GroupReference(fld, rng, 2.0, 2.0)
        member = GroupMobility(fld, ref, group_range=200.0, rng=rng)
        for t in np.linspace(0, 300, 150):
            assert fld.contains(member.position(float(t)))

    def test_invalid_group_range(self):
        fld = Field(100, 100)
        rng = np.random.default_rng(0)
        ref = GroupReference(fld, rng, 2.0, 2.0)
        with pytest.raises(ValueError):
            GroupMobility(fld, ref, group_range=0.0, rng=rng)

    def test_make_group_mobility_partitions_members(self):
        fld = Field(1000, 1000)
        rng = np.random.default_rng(7)
        motions = make_group_mobility(fld, 20, 5, 150.0, rng)
        assert len(motions) == 20
        refs = {id(m.reference) for m in motions}
        assert len(refs) == 5

    def test_make_group_mobility_validates(self):
        fld = Field(100, 100)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_group_mobility(fld, 5, 6, 100.0, rng)
        with pytest.raises(ValueError):
            make_group_mobility(fld, 5, 0, 100.0, rng)

    def test_groupmates_cluster(self):
        """Members of one group stay mutually closer than the field size."""
        fld = Field(1000, 1000)
        rng = np.random.default_rng(8)
        motions = make_group_mobility(fld, 10, 2, 100.0, rng)
        same_group = [m for m in motions if m.reference is motions[0].reference]
        for t in (10.0, 50.0, 150.0):
            ps = [m.position(t) for m in same_group]
            for p in ps[1:]:
                assert ps[0].distance_to(p) <= 2 * 100.0 * 1.4143 + 1.0


class TestBatchPositions:
    """SnapshotInterpolator must be bit-identical to the scalar
    position() path on every kind of population."""

    @staticmethod
    def _rwp_population(n, seed):
        fld = Field(1000, 1000)
        return [
            RandomWaypoint(fld, np.random.default_rng(seed + i))
            for i in range(n)
        ]

    def test_rwp_batch_matches_scalar(self):
        scalar_pop = self._rwp_population(25, 100)
        interp = SnapshotInterpolator(self._rwp_population(25, 100))
        for t in (0.0, 3.5, 120.0, 40.0, 700.0):
            expected = scalar_positions(scalar_pop, t)
            got = interp(t)
            assert got.shape == (25, 2)
            np.testing.assert_array_equal(got, expected)

    def test_static_batch_matches_scalar(self):
        pts = [Point(float(i), float(2 * i)) for i in range(10)]
        interp = SnapshotInterpolator([StaticPosition(p) for p in pts])
        got = interp(42.0)
        expected = np.array([[p.x, p.y] for p in pts])
        np.testing.assert_array_equal(got, expected)

    def test_group_batch_matches_scalar(self):
        fld = Field(1000, 1000)
        scalar_pop = make_group_mobility(
            fld, 18, 4, 150.0, np.random.default_rng(55)
        )
        interp = SnapshotInterpolator(
            make_group_mobility(fld, 18, 4, 150.0, np.random.default_rng(55))
        )
        # Same query sequence on both populations: RPGM members share
        # one RNG stream, so draw order must match between paths.
        for t in (0.0, 5.0, 90.0, 30.0, 400.0):
            expected = scalar_positions(scalar_pop, t)
            np.testing.assert_array_equal(interp(t), expected)

    def test_mixed_population_dispatch(self):
        fld = Field(500, 500)
        models = [
            StaticPosition(Point(1.0, 2.0)),
            RandomWaypoint(fld, np.random.default_rng(9)),
            StaticPosition(Point(3.0, 4.0)),
        ]
        interp = SnapshotInterpolator(models)
        assert interp._fill is None  # every class is segment-capable
        got = interp(12.0)
        np.testing.assert_array_equal(got, scalar_positions(models, 12.0))
        # A static + RPGM mix cannot be cached and is not one class:
        # it takes the scalar default.
        mixed = _static_group_mix(np.random.default_rng(4))
        interp = SnapshotInterpolator(mixed)
        assert interp._fill == MobilityModel.fill_positions
        reference = _static_group_mix(np.random.default_rng(4))
        for t in (12.0, 3.0, 80.0):
            np.testing.assert_array_equal(
                interp(t), scalar_positions(reference, t)
            )

    def test_empty_population(self):
        out = SnapshotInterpolator([])(1.0)
        assert out.shape == (0, 2)
        assert scalar_positions([], 1.0).shape == (0, 2)

    def test_batch_then_scalar_consistent(self):
        pop = self._rwp_population(8, 7)
        got = SnapshotInterpolator(pop)(60.0)
        for row, m in zip(got, pop):
            p = m.position(60.0)
            assert (row[0], row[1]) == (p.x, p.y)


def _static_group_mix(rng):
    """Four static nodes interleaved with a two-group RPGM population."""
    fld = Field(1000, 1000)
    members = make_group_mobility(fld, 8, 2, 150.0, rng)
    statics = [StaticPosition(Point(100.0 * k, 50.0 * k)) for k in range(4)]
    mixed = []
    for k, m in enumerate(members):
        if k % 2 == 0:
            mixed.append(statics[k // 2])
        mixed.append(m)
    return mixed


def _population(kind, seed):
    fld = Field(1000, 1000)
    if kind == "rwp":
        return [
            RandomWaypoint(fld, np.random.default_rng(seed + i))
            for i in range(12)
        ]
    if kind == "static":
        rng = np.random.default_rng(seed)
        return [StaticPosition(fld.random_point(rng)) for _ in range(12)]
    if kind == "rpgm":
        return make_group_mobility(fld, 12, 3, 150.0, np.random.default_rng(seed))
    return _static_group_mix(np.random.default_rng(seed))


@settings(max_examples=25)
@given(
    kind=st.sampled_from(["rwp", "static", "rpgm", "static+rpgm"]),
    seed=st.integers(0, 2**16),
    times=st.lists(
        st.floats(0.0, 600.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
)
def test_interpolator_matches_scalar_positions_property(kind, seed, times):
    """Two populations from one seed: one queried through the
    interpolator, the other through the scalar oracle, on an arbitrary
    (non-monotone) query sequence, agree bit for bit at every query."""
    interp = SnapshotInterpolator(_population(kind, seed))
    reference = _population(kind, seed)
    for t in times:
        np.testing.assert_array_equal(interp(t), scalar_positions(reference, t))


class TestInterpolateSegments:
    def test_matches_segment_at(self):
        from repro.mobility.base import interpolate_segments

        segs = [
            Segment(0.0, 10.0, Point(0, 0), Point(10, 20)),
            Segment(2.0, 2.0, Point(3, 3), Point(3, 3)),  # pause
            Segment(5.0, 6.0, Point(-1, -1), Point(1, 1)),
        ]
        for t in (-1.0, 0.0, 2.0, 5.5, 7.0, 100.0):
            got = interpolate_segments(segs, t)
            for row, seg in zip(got, segs):
                p = seg.at(t)
                assert row[0] == p.x and row[1] == p.y

    def test_empty(self):
        from repro.mobility.base import interpolate_segments

        assert interpolate_segments([], 0.0).shape == (0, 2)


class TestSnapshotInterpolator:
    """Segment caching, dispatch and buffer handling."""

    @staticmethod
    def _rwp_population(n, seed):
        fld = Field(1000, 1000)
        return [
            RandomWaypoint(fld, np.random.default_rng(seed + i))
            for i in range(n)
        ]

    def test_rwp_cached_matches_scalar_positions(self):
        plain_pop = self._rwp_population(25, 300)
        cached_pop = self._rwp_population(25, 300)
        interp = SnapshotInterpolator(cached_pop)
        # Near-monotone with one backward jump (cache-hit, cache-miss
        # and bisect-refresh paths all exercised).
        for t in (0.0, 0.2, 0.4, 55.0, 55.2, 54.9, 700.0):
            expected = scalar_positions(plain_pop, t)
            got = interp(t)
            np.testing.assert_array_equal(got, expected)

    def test_static_population_cached(self):
        pts = [Point(float(i), float(2 * i)) for i in range(10)]
        interp = SnapshotInterpolator([StaticPosition(p) for p in pts])
        expected = np.array([[p.x, p.y] for p in pts])
        for t in (0.0, 1.5, 1e6):
            np.testing.assert_array_equal(interp(t), expected)

    def test_group_population_delegates(self):
        fld = Field(1000, 1000)
        plain_pop = make_group_mobility(
            fld, 18, 4, 150.0, np.random.default_rng(77)
        )
        cached_pop = make_group_mobility(
            fld, 18, 4, 150.0, np.random.default_rng(77)
        )
        interp = SnapshotInterpolator(cached_pop)
        # composite RPGM members have no segment: the class's own
        # vectorised pass answers every call
        assert interp._fill == GroupMobility.fill_positions
        for t in (0.0, 5.0, 90.0, 30.0, 400.0):
            np.testing.assert_array_equal(
                interp(t), scalar_positions(plain_pop, t)
            )

    def test_out_buffer_reuse_and_validation(self):
        pop = self._rwp_population(6, 11)
        interp = SnapshotInterpolator(pop)
        buf = np.empty((6, 2), dtype=np.float64)
        assert interp(3.0, out=buf) is buf
        with pytest.raises(ValueError):
            interp(3.0, out=np.empty((5, 2)))
        with pytest.raises(ValueError):
            interp(3.0, out=np.empty((6, 2), dtype=np.float32))

    def test_matches_scalar_position_path(self):
        pop_a = self._rwp_population(12, 42)
        pop_b = self._rwp_population(12, 42)
        interp = SnapshotInterpolator(pop_a)
        for t in (0.0, 1.0, 2.0, 300.0):
            got = interp(t)
            expected = np.array([[*m.position(t)] for m in pop_b])
            np.testing.assert_array_equal(got, expected)
