"""Tests for energy accounting and node-failure (DoS) support."""

from __future__ import annotations

import pytest

from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.location.service import LocationService
from repro.net.energy import EnergyModel
from repro.net.packet import Packet, PacketKind
from repro.routing.gpsr import GpsrProtocol
from tests.conftest import build_network


class TestEnergyModel:
    def test_airtime_accumulates_on_unicast(self, static_network):
        net = static_network
        b = net.neighbors_of(0)[0]
        before = net.airtime_tx_s
        net.unicast(0, b, Packet(kind=PacketKind.DATA, src=0, dst=b, size_bytes=512))
        net.engine.run()
        assert net.airtime_tx_s > before
        assert net.airtime_rx_s > 0

    def test_broadcast_rx_scales_with_receivers(self, static_network):
        net = static_network
        receivers = net.local_broadcast(
            0, Packet(kind=PacketKind.DATA, src=0, dst=-1, size_bytes=256)
        )
        if receivers:
            per_frame = net.radio.tx_time(256 + 0)  # header inside tx_time
            assert net.airtime_rx_s == pytest.approx(
                net.radio.tx_time(256) * len(receivers)
            )

    def test_crypto_energy_prices_cost_model(self):
        cost = CryptoCostModel()
        cost.pubkey_encrypt(4)
        model = EnergyModel()
        model.cpu_power_w = 2.0
        assert model.crypto_energy(cost) == pytest.approx(
            4 * cost.pubkey_encrypt_s * 2.0
        )

    def test_breakdown_sums(self, static_network):
        net = static_network
        cost = CryptoCostModel()
        cost.symmetric_encrypt(10)
        b = net.neighbors_of(0)[0]
        net.unicast(0, b, Packet(kind=PacketKind.DATA, src=0, dst=b, size_bytes=512))
        net.engine.run()
        model = EnergyModel()
        bd = model.breakdown(net, cost)
        assert bd["total_j"] == pytest.approx(
            bd["radio_tx_j"] + bd["radio_rx_j"] + bd["crypto_j"]
        )

    def test_hello_airtime_counted(self, static_network):
        net = static_network
        net.start_hello()
        net.engine.run(until=1.0)
        net.stop_hello()
        assert net.airtime_tx_s > 0


class TestNodeFailures:
    def test_failed_node_not_a_neighbor(self, static_network):
        net = static_network
        nbrs = net.neighbors_of(0)
        victim = nbrs[0]
        net.nodes[victim].fail()
        assert victim not in net.neighbors_of(0)
        net.nodes[victim].restore()
        assert victim in net.neighbors_of(0)

    def test_unicast_to_failed_node_fails(self, static_network):
        net = static_network
        b = net.neighbors_of(0)[0]
        net.nodes[b].fail()
        failures = []
        net.unicast(
            0, b,
            Packet(kind=PacketKind.DATA, src=0, dst=b, size_bytes=64),
            on_failed=failures.append,
        )
        net.engine.run()
        assert failures == ["dead-receiver"]

    def test_failed_nodes_skip_beacons(self, static_network):
        net = static_network
        net.nodes[0].fail()
        net.start_hello()
        net.engine.run(until=1.0)
        net.stop_hello()
        # Nobody holds a (fresh) entry for the dead node.
        now = net.engine.now
        for n in net.nodes:
            assert n.neighbors.get(0, now) is None

    def test_routing_heals_around_failures(self):
        """GPSR reroutes around a few dead relays (mobile network)."""
        net = build_network(n_nodes=60, seed=37)
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = GpsrProtocol(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        # First packet to learn the path.
        proto.send_data(0, 59)
        net.engine.run(until=net.engine.now + 2.0)
        first = metrics.flows()[0]
        victims = [n for n in first.path[1:-1]][:2]
        for v in victims:
            net.nodes[v].fail()
        for _ in range(6):
            proto.send_data(0, 59)
            net.engine.run(until=net.engine.now + 1.5)
        later = [f for f in metrics.flows()[1:]]
        delivered = sum(1 for f in later if f.delivered)
        assert delivered >= len(later) // 2
        # Dead relays carried nothing after the compromise.
        for f in later:
            for v in victims:
                assert v not in f.participants
        location.stop()
