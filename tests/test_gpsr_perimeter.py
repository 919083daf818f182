"""GPSR perimeter-mode test on a hand-crafted void topology.

The topology forces a local maximum at the source: both of S's
neighbors are farther from D than S is, so greedy fails immediately
and only the right-hand rule around the void can deliver.

Layout (range 250 m)::

    P1(0,240) --- Q(230,300)
       |               \
    S(0,0)            R(420,150) --- D(520,0)
       |
    P2(0,-240)

S-D distance 520 (no direct link); the only route is
S → P1 → Q → R → D, whose first hop is a pure perimeter step.
"""

from __future__ import annotations

import pytest

from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.geometry.field import Field
from repro.geometry.primitives import Point
from repro.location.service import LocationService
from repro.mobility.static import StaticPosition
from repro.net.network import Network
from repro.routing.gpsr import GpsrProtocol
from repro.sim.engine import Engine

POSITIONS = [
    Point(0, 300),      # 0: S
    Point(0, 540),      # 1: P1
    Point(0, 60),       # 2: P2
    Point(230, 600),    # 3: Q
    Point(420, 450),    # 4: R
    Point(520, 300),    # 5: D
]


def build_void_network():
    engine = Engine(seed=1)
    fld = Field(700, 700)

    def factory(node_id, rng):
        return StaticPosition(POSITIONS[node_id])

    net = Network(engine, fld, factory, len(POSITIONS))
    return net


class TestVoidTopology:
    def test_topology_is_a_void(self):
        """Sanity: S has neighbors, but none makes greedy progress."""
        net = build_void_network()
        s, d = POSITIONS[0], POSITIONS[5]
        assert s.distance_to(d) > net.radio.range_m
        nbrs = net.neighbors_of(0)
        assert sorted(nbrs) == [1, 2]
        for n in nbrs:
            assert POSITIONS[n].distance_to(d) > s.distance_to(d)

    def test_perimeter_mode_delivers(self):
        assert GpsrProtocol.ttl == 10
        net = build_void_network()
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = GpsrProtocol(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        proto.send_data(0, 5)
        net.engine.run(until=net.engine.now + 2.0)
        flow = metrics.flows()[0]
        assert flow.delivered, f"dropped: {flow.dropped_reason}"
        assert flow.path == [0, 1, 3, 4, 5]
        location.stop()

    def test_tight_ttl_kills_the_detour(self, monkeypatch):
        monkeypatch.setattr(GpsrProtocol, "ttl", 2)
        net = build_void_network()
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = GpsrProtocol(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        proto.send_data(0, 5)
        net.engine.run(until=net.engine.now + 2.0)
        assert not metrics.flows()[0].delivered
        location.stop()
