"""Integration tests for the ALARM and AO2P comparison protocols."""

from __future__ import annotations

import pytest

from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.geometry.primitives import Point
from repro.location.service import LocationService
from repro.routing.alarm import AlarmProtocol
from repro.routing.ao2p import Ao2pProtocol
from tests.conftest import build_network


def run_proto(cls, n_nodes=50, seed=11, n_packets=8):
    net = build_network(n_nodes=n_nodes, seed=seed)
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    location = LocationService(net, updates_enabled=True, cost_model=cost)
    proto = cls(net, location, metrics, cost)
    net.start_hello()
    net.engine.run(until=0.5)
    for _ in range(n_packets):
        proto.send_data(0, n_nodes - 1)
        net.engine.run(until=net.engine.now + 1.5)
    net.engine.run(until=net.engine.now + 2.0)
    if isinstance(proto, AlarmProtocol):
        proto.stop()
    return net, proto, metrics, cost


class TestAlarm:
    def test_delivers(self):
        _, _, metrics, _ = run_proto(AlarmProtocol)
        assert metrics.delivery_rate() >= 0.8

    def test_secure_map_complete(self):
        net, proto, _, _ = run_proto(AlarmProtocol)
        assert set(proto.secure_map) == set(range(net.n_nodes))

    def test_dissemination_rounds_counted(self):
        net, proto, metrics, _ = run_proto(AlarmProtocol)
        assert proto.dissemination_rounds >= 1
        assert metrics.counters.get("dissemination_rx", 0) > 0
        assert metrics.counters.get("dissemination_tx", 0) == (
            proto.dissemination_rounds * net.n_nodes
        )

    def test_dissemination_charges_crypto(self):
        net, proto, _, cost = run_proto(AlarmProtocol)
        assert cost.charges.get("sign", 0) >= net.n_nodes

    def test_per_hop_pubkey_latency(self):
        """ALARM's latency is dominated by per-hop public-key work."""
        _, _, metrics, _ = run_proto(AlarmProtocol)
        # Any multi-hop delivery costs at least one 250 ms verification.
        assert metrics.mean_latency() > 0.2

    def test_amortized_dissemination_positive(self):
        _, _, metrics, _ = run_proto(AlarmProtocol)
        assert metrics.counters["dissemination_rx"] / metrics.packets_sent > 0

    def test_stale_map_positions(self, monkeypatch):
        """The secure map holds round-start positions, not live ones."""
        monkeypatch.setattr(AlarmProtocol, "dissemination_interval", 1000.0)
        net, proto, _, _ = run_proto(AlarmProtocol)
        errs = [
            proto.secure_map[n.id].distance_to(n.position(net.engine.now))
            for n in net.nodes
        ]
        assert max(errs) > 0.0  # nodes moved since the round


class TestAo2p:
    def test_delivers(self):
        _, _, metrics, _ = run_proto(Ao2pProtocol)
        assert metrics.delivery_rate() >= 0.75

    def test_proxy_beyond_destination(self):
        net, proto, _, _ = run_proto(Ao2pProtocol, n_packets=1)
        s = Point(0, 0)
        d = Point(100, 0)
        proxy = proto._proxy_position(s, d)
        assert proxy.x > d.x  # beyond D on the S→D ray
        assert proxy.y == pytest.approx(0.0)

    def test_proxy_clamped_to_field(self):
        net, proto, _, _ = run_proto(Ao2pProtocol, n_packets=1)
        s = Point(0, 300)
        d = Point(550, 300)
        proxy = proto._proxy_position(s, d)
        assert proxy.x <= net.field.width

    def test_contention_delay_positive_and_bounded(self):
        _, proto, _, _ = run_proto(Ao2pProtocol, n_packets=1)
        for n in (0, 1, 5, 50):
            delay = proto._contention_delay(n)
            assert 0 < delay <= (
                (proto.contention_classes + 1) * proto.contention_slot_s
            )

    def test_latency_exceeds_alarm_slightly(self):
        """Paper: 'the latency of AO2P is a little higher than ALARM'."""
        _, _, m_alarm, _ = run_proto(AlarmProtocol, seed=21)
        _, _, m_ao2p, _ = run_proto(Ao2pProtocol, seed=21)
        assert m_ao2p.mean_latency() > m_alarm.mean_latency() * 0.8

    def test_hop_by_hop_pubkey(self):
        _, _, metrics, cost = run_proto(Ao2pProtocol)
        hops = sum(f.tx_count for f in metrics.flows())
        assert cost.charges.get("pubkey_encrypt", 0) >= hops * 0.5
