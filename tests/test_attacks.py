"""Tests for the adversary models."""

from __future__ import annotations

import math

import pytest

from repro.attacks.adversary import (
    DeliveryObservation,
    PassiveObserver,
    union_observations_by_window,
)
from repro.attacks.intersection_attack import IntersectionAttacker
from repro.attacks.timing_attack import TimingAttacker
from repro.attacks.traffic_analysis import InterceptionAttacker


def obs(t, recipients):
    return DeliveryObservation(time=t, recipients=frozenset(recipients))


class TestPassiveObserver:
    def test_records(self):
        o = PassiveObserver()
        o.observe_delivery(1.0, [1, 2])
        o.observe_transmission(2.0, 5)
        assert o.observation_count() == 2
        assert o.deliveries[0].recipients == {1, 2}


class TestWindowUnion:
    def test_merges_frames_of_one_delivery(self):
        observations = [
            obs(10.0, {1, 2}),
            obs(10.3, {2, 3}),   # same packet, second frame
            obs(12.0, {4}),      # next packet
        ]
        merged = union_observations_by_window(observations, 1.0)
        assert len(merged) == 2
        assert merged[0].recipients == {1, 2, 3}
        assert merged[1].recipients == {4}

    def test_sorts_by_time(self):
        observations = [obs(12.0, {4}), obs(10.0, {1})]
        merged = union_observations_by_window(observations, 1.0)
        assert [m.time for m in merged] == [10.0, 12.0]

    def test_empty(self):
        assert union_observations_by_window([], 1.0) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            union_observations_by_window([], 0.0)


class TestIntersectionAttack:
    def test_identifies_constant_member(self):
        """Fig. 5: D always present, bystanders churn → D identified."""
        a = IntersectionAttacker()
        a.observe(obs(0, {7, 1, 2, 3}))
        a.observe(obs(2, {7, 3, 4, 5}))
        a.observe(obs(4, {7, 5, 6, 8}))
        a.observe(obs(6, {7, 9, 10}))
        assert a.candidates() == {7}
        assert a.identified(7)
        assert not a.defeated(7)

    def test_defense_drops_destination(self):
        """With the two-step multicast, D misses some recipient sets."""
        a = IntersectionAttacker()
        a.observe(obs(0, {7, 1, 2}))
        a.observe(obs(2, {3, 4, 5}))  # D held back this time
        assert a.defeated(7)
        assert not a.identified(7)

    def test_history_is_shrinkage_curve(self):
        a = IntersectionAttacker()
        a.observe(obs(0, {1, 2, 3, 4}))
        a.observe(obs(1, {1, 2, 3}))
        a.observe(obs(2, {1, 2}))
        assert a.history == [4, 3, 2]

    def test_observe_all(self):
        a = IntersectionAttacker()
        final = a.observe_all([obs(0, {1, 2}), obs(1, {2, 3})])
        assert final == {2}
        assert a.observations == 2

    def test_empty_before_observations(self):
        assert IntersectionAttacker().candidates() == set()


class TestTimingAttack:
    def test_fixed_delay_identified(self):
        """The paper's §3.2 example: constant 5 s delay → matched."""
        atk = TimingAttacker(min_pairs=3)
        deps = [0.0, 10.0, 20.0, 30.0, 40.0]
        arrs = [d + 5.0 for d in deps]
        v = atk.correlate(deps, arrs)
        assert v.identified
        assert v.mean_delay == 5.0
        assert v.cv < 0.01

    def test_jittered_delay_not_identified(self):
        atk = TimingAttacker(min_pairs=3, cv_threshold=0.15, max_delay=10.0)
        deps = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        jitter = [0.5, 4.0, 1.0, 6.0, 0.2, 3.0]
        arrs = [d + j for d, j in zip(deps, jitter)]
        assert not atk.correlate(deps, arrs).identified

    def test_too_few_pairs_not_identified(self):
        atk = TimingAttacker(min_pairs=5)
        assert not atk.correlate([0.0, 1.0], [0.1, 1.1]).identified

    def test_no_arrivals(self):
        v = TimingAttacker().correlate([1.0, 2.0], [])
        assert v.matched_pairs == 0 and not v.identified

    def test_max_delay_filters(self):
        atk = TimingAttacker(max_delay=1.0)
        delays = atk.match_delays([0.0], [100.0])
        assert delays == []


class TestTrafficAnalysis:
    def test_interception_of_stable_route(self):
        atk = InterceptionAttacker(budget=2)
        history = [[1, 5, 6, 2]] * 5
        future = [[1, 5, 6, 2]] * 5
        assert atk.interception_rate(history, future) == 1.0
        assert set(atk.choose_targets(history)) <= {5, 6}

    def test_interception_excludes_endpoints(self):
        atk = InterceptionAttacker(budget=3)
        targets = atk.choose_targets([[1, 5, 2]] * 3, exclude=[1, 2])
        assert targets == [5]

    def test_interception_of_random_routes_low(self):
        atk = InterceptionAttacker(budget=2)
        history = [[1, 10, 11, 2], [1, 12, 13, 2], [1, 14, 15, 2]]
        future = [[1, 20, 21, 2], [1, 22, 23, 2]]
        assert atk.interception_rate(history, future) == 0.0

    def test_interception_empty_future_nan(self):
        atk = InterceptionAttacker()
        assert math.isnan(atk.interception_rate([[1, 2, 3]], []))
