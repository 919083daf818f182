"""Tests for the GPSR baseline protocol and its geometric helpers."""

from __future__ import annotations

import math

import pytest

from repro.crypto.keys import PublicKey
from repro.experiments.metrics import MetricsCollector
from repro.crypto.cost_model import CryptoCostModel
from repro.geometry.primitives import Point
from repro.location.service import LocationService
from repro.net.neighbor_table import NeighborEntry
from repro.routing.gpsr import (
    GpsrProtocol,
    gabriel_neighbors,
    next_hop_greedy,
    next_hop_right_hand,
)
from tests.conftest import build_network

PK = PublicKey(123457, 65537)


def e(addr, x, y):
    return NeighborEntry(addr, b"p" * 20, Point(x, y), PK, 0.0)


class TestGreedy:
    def test_picks_closest_to_target(self):
        entries = [e(1, 10, 0), e(2, 50, 0), e(3, 90, 0)]
        hop = next_hop_greedy(Point(0, 0), Point(100, 0), entries)
        assert hop is not None and hop.link_address == 3

    def test_requires_strict_progress(self):
        # All neighbors are farther from the target than self.
        entries = [e(1, -10, 0), e(2, 0, 20)]
        assert next_hop_greedy(Point(0, 0), Point(5, 0), entries) is None

    def test_empty_neighborhood(self):
        assert next_hop_greedy(Point(0, 0), Point(1, 1), []) is None


class TestGabriel:
    def test_keeps_isolated_edges(self):
        entries = [e(1, 100, 0), e(2, 0, 100)]
        keep = gabriel_neighbors(Point(0, 0), entries)
        assert {x.link_address for x in keep} == {1, 2}

    def test_removes_witnessed_edge(self):
        # w=(50, 1) sits inside the circle with diameter (0,0)-(100,0).
        entries = [e(1, 100, 0), e(2, 50, 1)]
        keep = gabriel_neighbors(Point(0, 0), entries)
        assert {x.link_address for x in keep} == {2}

    def test_planar_subgraph_smaller(self):
        import numpy as np
        rng = np.random.default_rng(0)
        entries = [
            e(i, float(x), float(y))
            for i, (x, y) in enumerate(rng.uniform(-200, 200, size=(30, 2)))
        ]
        keep = gabriel_neighbors(Point(0, 0), entries)
        assert 0 < len(keep) < len(entries)


class TestRightHand:
    def test_sweeps_ccw_from_reference(self):
        entries = [e(1, 0, 100), e(2, -100, 0), e(3, 0, -100)]
        # Reference pointing at +x: first CCW neighbor is +y.
        hop = next_hop_right_hand(Point(0, 0), Point(100, 0), entries)
        assert hop is not None and hop.link_address == 1

    def test_straight_back_is_last_resort(self):
        entries = [e(1, 100, 0)]
        hop = next_hop_right_hand(Point(0, 0), Point(100, 0), entries)
        assert hop is not None and hop.link_address == 1

    def test_empty_returns_none(self):
        assert next_hop_right_hand(Point(0, 0), Point(1, 0), []) is None


def run_gpsr(n_nodes=50, seed=11, n_packets=10, static=False):
    net = build_network(n_nodes=n_nodes, seed=seed, static=static)
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    location = LocationService(net, updates_enabled=True, cost_model=cost)
    proto = GpsrProtocol(net, location, metrics, cost)
    net.start_hello()
    net.engine.run(until=0.5)
    for i in range(n_packets):
        proto.send_data(0, n_nodes - 1)
        net.engine.run(until=net.engine.now + 1.0)
    net.engine.run(until=net.engine.now + 2.0)
    return net, proto, metrics


class TestGpsrProtocol:
    def test_delivers_packets(self):
        _, _, metrics = run_gpsr()
        assert metrics.delivery_rate() >= 0.9

    def test_latency_millisecond_scale(self):
        _, _, metrics = run_gpsr()
        assert 0.001 < metrics.mean_latency() < 0.05

    def test_path_starts_and_ends_at_endpoints(self):
        _, _, metrics = run_gpsr()
        for f in metrics.flows():
            if f.delivered:
                assert f.path[0] == f.src
                assert f.path[-1] == f.dst

    def test_repeated_routes_nearly_identical(self):
        """GPSR's statistical weakness: same path every packet (§3.1)."""
        from repro.analysis.anonymity import mean_pairwise_overlap
        _, _, metrics = run_gpsr(static=True)
        routes = [f.path for f in metrics.flows() if f.delivered]
        assert len(routes) >= 5
        assert mean_pairwise_overlap(routes) > 0.9

    def test_send_to_self_rejected(self):
        net = build_network(n_nodes=10, static=True)
        location = LocationService(net)
        proto = GpsrProtocol(net, location)
        with pytest.raises(ValueError):
            proto.send_data(3, 3)

    def test_ttl_bounds_path(self, monkeypatch):
        monkeypatch.setattr(GpsrProtocol, "ttl", 2)
        _, _, metrics = run_gpsr()
        for f in metrics.flows():
            assert f.tx_count <= 2 + 1  # ttl hops (+direct-neighbor hop)

    def test_participants_recorded(self):
        """Multi-hop flows record every transmitting relay."""
        import numpy as np
        net = build_network(n_nodes=50, seed=11, static=True)
        pos, _ = net.snapshot()
        d2 = ((pos[None] - pos[:, None]) ** 2).sum(-1)
        a, b = map(int, np.unravel_index(np.argmax(d2), d2.shape))
        metrics = MetricsCollector()
        location = LocationService(net, updates_enabled=True)
        proto = GpsrProtocol(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        for _ in range(5):
            proto.send_data(a, b)
            net.engine.run(until=net.engine.now + 1.0)
        union = metrics.participating_nodes()
        assert a in union  # the source transmits
        assert len(union) >= 2  # at least one relay on a cross-field path
