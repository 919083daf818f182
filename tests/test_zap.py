"""Integration tests for the ZAP comparison protocol."""

from __future__ import annotations

import pytest

from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.geometry.primitives import Point
from repro.location.service import LocationService
from repro.routing.zap import ZapProtocol
from tests.conftest import build_network


def run_zap(enlargement=0.0, n_nodes=60, seed=11, n_packets=8):
    net = build_network(n_nodes=n_nodes, seed=seed)
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    location = LocationService(net, updates_enabled=True,
                               cost_model=CryptoCostModel())
    proto = ZapProtocol(
        net, location, metrics, cost, enlargement_per_packet=enlargement
    )
    observations = []
    proto.zone_delivery_observer = lambda t, r: observations.append(set(r))
    net.start_hello()
    net.engine.run(until=0.5)
    for _ in range(n_packets):
        proto.send_data(0, n_nodes - 1)
        net.engine.run(until=net.engine.now + 1.2)
    net.engine.run(until=net.engine.now + 2.0)
    location.stop()
    return net, proto, metrics, observations


class TestZap:
    def test_delivers(self):
        _, _, metrics, _ = run_zap()
        assert metrics.delivery_rate() >= 0.8

    def test_floods_inside_zone(self):
        _, _, metrics, _ = run_zap()
        assert metrics.counters.get("zap_zone_floods", 0) >= 1

    def test_destination_hidden_in_zone(self):
        """Recipient sets contain multiple zone members, not just D."""
        net, _, _, observations = run_zap()
        multi = [o for o in observations if len(o) >= 2]
        assert multi, "zone floods should reach several members"

    def test_zone_clamped_to_field(self):
        net, proto, _, _ = run_zap(n_packets=1)
        zone = proto._zone_for(Point(0, 0), seq=0)
        b = net.field.bounds
        assert b.contains_rect(zone)
        zone = proto._zone_for(Point(600, 600), seq=0)
        assert b.contains_rect(zone)

    def test_enlargement_grows_zone(self, monkeypatch):
        monkeypatch.setattr(ZapProtocol, "zone_side", 200.0)
        _, proto, _, _ = run_zap(enlargement=0.25, n_packets=1)
        z0 = proto._zone_for(Point(300, 300), seq=0)
        z4 = proto._zone_for(Point(300, 300), seq=4)
        assert z4.area > z0.area

    def test_enlargement_capped(self, monkeypatch):
        monkeypatch.setattr(ZapProtocol, "zone_side", 200.0)
        monkeypatch.setattr(ZapProtocol, "max_zone_side", 400.0)
        _, proto, _, _ = run_zap(enlargement=1.0, n_packets=1)
        z = proto._zone_for(Point(300, 300), seq=50)
        assert max(z.width, z.height) <= 400.0 + 1e-9

    def test_enlargement_raises_flood_cost(self):
        base = run_zap(enlargement=0.0, n_packets=10)[2]
        grown = run_zap(enlargement=0.3, n_packets=10)[2]
        base_pop = base.counters.get("zap_zone_population", 0)
        grown_pop = grown.counters.get("zap_zone_population", 0)
        assert grown_pop > base_pop

    def test_route_is_stable_like_gpsr(self):
        """ZAP provides no route anonymity: geo-forwarding legs repeat."""
        from repro.analysis.anonymity import mean_pairwise_overlap
        net, _, metrics, _ = run_zap(n_packets=10)
        routes = [f.path for f in metrics.flows() if f.delivered and len(f.path) > 2]
        if len(routes) >= 4:
            assert mean_pairwise_overlap(routes) > 0.3
