"""Tests for CBR traffic sources and the location service."""

from __future__ import annotations

import pytest

from repro.location.server import LocationRecord, LocationServer
from repro.location.service import LocationService, LookupError_
from repro.net.traffic import CbrSource
from repro.sim.engine import Engine
from repro.crypto.keys import PublicKey
from repro.geometry.primitives import Point
from tests.conftest import build_network


class TestCbrSource:
    def test_sends_at_interval(self):
        eng = Engine()
        sent = []
        CbrSource(eng, lambda s, d, n: sent.append(eng.now), 0, 1,
                  interval=2.0, start_offset=1.0)
        eng.run(until=7.5)
        assert sent == [1.0, 3.0, 5.0, 7.0]

    def test_max_packets(self):
        eng = Engine()
        sent = []
        CbrSource(eng, lambda s, d, n: sent.append(1), 0, 1,
                  interval=1.0, max_packets=3, start_offset=0.5)
        eng.run(until=60.0)
        assert len(sent) == 3

    def test_max_packets_leaves_no_pending_tick(self):
        # Regression: the source used to book one more periodic tick
        # after the final packet, leaving a live event on the heap long
        # after the flow finished (and inflating drain-time workloads).
        eng = Engine()
        sent = []
        CbrSource(eng, lambda s, d, n: sent.append(eng.now), 0, 1,
                  interval=1.0, max_packets=3, start_offset=0.5)
        eng.run(until=60.0)
        assert sent == [0.5, 1.5, 2.5]
        assert eng.pending() == 0
        assert eng.events_processed == 3  # one event per packet, no extras

    def test_max_packets_zero_sends_nothing_and_drains(self):
        eng = Engine()
        sent = []
        CbrSource(eng, lambda s, d, n: sent.append(1), 0, 1,
                  interval=1.0, max_packets=0)
        eng.run(until=10.0)
        assert sent == []
        assert eng.pending() == 0

    def test_stop(self):
        eng = Engine()
        sent = []
        src = CbrSource(eng, lambda s, d, n: sent.append(1), 0, 1, interval=1.0)
        eng.schedule_at(2.5, src.stop)
        eng.run(until=30.0)
        assert len(sent) == 2

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            CbrSource(Engine(), lambda *a: None, 3, 3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CbrSource(Engine(), lambda *a: None, 0, 1, interval=0.0)
        with pytest.raises(ValueError):
            CbrSource(Engine(), lambda *a: None, 0, 1, size_bytes=0)


class TestLocationServer:
    def _record(self, nid=1):
        return LocationRecord(nid, Point(1, 2), PublicKey(123457, 65537), 0.0)

    def _round(self, *nids):
        return {nid: self._record(nid) for nid in nids}

    def test_store_fetch(self):
        s = LocationServer(0)
        s.adopt_round(self._round(1), 1)
        assert s.fetch(1) is not None
        assert s.fetch(2) is None

    def test_failed_server_ignores_io(self):
        s = LocationServer(0)
        s.adopt_round(self._round(1), 1)
        s.fail()
        assert s.fetch(1) is None
        s.adopt_round(self._round(2), 1)
        s.restore()
        assert s.fetch(1) is not None
        assert s.fetch(2) is None  # write during failure was dropped
        assert s.writes == 1

    def test_counters_distinguish_replication(self):
        s = LocationServer(0)
        s.adopt_round(self._round(1, 2), 1)
        assert s.writes == 1 and s.replications == 1


class TestLocationService:
    def test_default_server_count_is_sqrt_n(self):
        net = build_network(n_nodes=49, static=True)
        svc = LocationService(net)
        assert len(svc.servers) == 7
        svc.stop()

    def test_lookup_returns_record(self):
        net = build_network(static=True)
        svc = LocationService(net)
        rec = svc.lookup(0, 5)
        assert rec.node_id == 5
        assert rec.public_key == net.nodes[5].keypair.public
        truth = net.position_of(5)
        assert truth.distance_to(rec.position) < 1.0
        svc.stop()

    def test_survives_server_failures(self):
        net = build_network(static=True)
        svc = LocationService(net)
        for server in svc.servers[:-1]:
            server.fail()
        assert svc.lookup(0, 5).node_id == 5
        svc.stop()

    def test_all_servers_down_raises(self):
        net = build_network(static=True)
        svc = LocationService(net)
        for server in svc.servers:
            server.fail()
        with pytest.raises(LookupError_):
            svc.lookup(0, 5)
        assert svc.failed_lookups == 1
        svc.stop()

    def test_updates_track_movement(self):
        net = build_network(n_nodes=20, seed=3, speed=8.0)
        svc = LocationService(net, updates_enabled=True, update_interval=1.0)
        net.engine.run(until=30.0)
        rec = svc.lookup(0, 5)
        truth = net.position_of(5)
        assert truth.distance_to(rec.position) <= 8.0 * 1.0 + 1.0
        svc.stop()

    def test_no_updates_stay_stale(self):
        net = build_network(n_nodes=20, seed=3, speed=8.0)
        svc = LocationService(net, updates_enabled=False)
        initial = svc.lookup(0, 5).position
        net.engine.run(until=60.0)
        assert svc.lookup(0, 5).position == initial

    def test_lookup_charges_crypto(self):
        net = build_network(static=True)
        svc = LocationService(net)
        before = svc.cost_model.total_operations()
        svc.lookup(0, 5)
        assert svc.cost_model.total_operations() > before
        svc.stop()

    def test_overhead_formula(self):
        net = build_network(n_nodes=16, static=True)
        svc = LocationService(net, updates_enabled=True, update_interval=2.0)
        ratio = svc.message_overhead(duration=100.0, data_frequency=0.5)
        # N=16, N_L=4, f=0.5, F=0.5 → (12·0.5 + 16·0.5)/(16·0.5) = 1.75
        assert ratio == pytest.approx(1.75)
        svc.stop()

    def test_overhead_requires_positive_frequency(self):
        net = build_network(n_nodes=9, static=True)
        svc = LocationService(net)
        with pytest.raises(ValueError):
            svc.message_overhead(10.0, 0.0)
        svc.stop()
