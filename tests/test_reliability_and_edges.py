"""Edge-case and reliability-path tests added after the main suite:
NAK recovery, hop budgets, config validation across protocols, MAC
delay bounds, and property checks on remaining helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alert import AlertProtocol
from repro.core.config import AlertConfig
from repro.core.intersection_defense import coverage_percent
from repro.core.packet_format import AlertPacketType
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import run_experiment
from repro.location.service import LocationService
from repro.net.mac import Mac80211Dcf
from repro.net.network import Network
from repro.net.radio import RadioModel
from repro.routing import base as routing_base
from repro.routing.alarm import AlarmConfig
from repro.routing.ao2p import Ao2pConfig
from repro.routing.gpsr import GpsrConfig
from repro.routing.zap import ZapConfig
from tests.conftest import build_network


class TestConfigValidation:
    def test_alert_config_rejects_bad_values(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"k": 0},
            {"h_override": 0},
            {"multicast_m": 0},
            {"notify_t": -1.0},
            {"notify_t0": 0.0},
            # accepted before, then failed mid-run or broke routing
            {"notify_t": nan},
            {"notify_t": inf},
            {"notify_t0": inf},
            {"notify_t0": nan},
            {"confirmation_timeout": -1.0},
            {"confirmation_timeout": 0.0},
            {"confirmation_timeout": nan},
            {"confirmation_timeout": inf},
            {"cover_size_bytes": -5},
            {"cover_size_bytes": 0},
            {"segment_ttl": 0},
            {"max_rf_rounds": 0},
            {"max_resends": -1},
        ):
            (name,) = bad
            with pytest.raises(ValueError, match=name):
                AlertConfig(**bad)

    def test_default_configs_are_sane(self):
        assert GpsrConfig().ttl == 10  # the paper's TTL
        assert AlarmConfig().dissemination_interval == 30.0  # §5: 30 s
        assert Ao2pConfig().proxy_extension_m > 0
        assert ZapConfig().zone_side > 0
        assert AlertConfig().k == 6


class TestNakRecovery:
    def test_nak_triggers_resend_of_missing_seq(self):
        """Force-miss a sequence number and watch the NAK machinery
        recover it."""
        net = build_network(n_nodes=50, seed=43)
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = AlertProtocol(
            net, location, metrics, CryptoCostModel(),
            AlertConfig(h_override=4, enable_confirmation=True,
                        confirmation_timeout=5.0),
        )
        net.start_hello()
        net.engine.run(until=0.5)
        # seq 0 delivered normally.
        proto.send_data(0, 49)
        net.engine.run(until=net.engine.now + 1.5)
        # Simulate a lost seq 1: consume the sequence number without
        # ever transmitting, then send seq 2 which D *will* get.
        sess = proto._get_session(0, 49)
        lost_seq = sess.seq
        sess.seq += 1
        sess.retained[lost_seq] = sess.retained.get(0, b"")
        proto.send_data(0, 49)
        net.engine.run(until=net.engine.now + 4.0)
        # D saw the gap and NAKed; the source resent the missing seq.
        assert metrics.counters.get("nak_sent", 0) >= 1
        location.stop()


class TestHopBudget:
    def test_every_header_starts_with_segment_ttl(self, monkeypatch):
        """Originals, resends and RREPs enter routing with the
        configured segment budget, not a built-in one, so a packet that
        starts inside ``Z_D`` and loses its relay hop honours it too."""
        entered = []
        continue_from = AlertProtocol._continue_from

        def recording(self, node, packet):
            hdr = packet.header
            entered.append((hdr.ptype, packet.flow_id is None, hdr.ttl))
            continue_from(self, node, packet)

        monkeypatch.setattr(AlertProtocol, "_continue_from", recording)
        run_experiment(ExperimentConfig(
            n_nodes=40, field_size=600.0, duration=6.0, n_pairs=4,
            send_interval=0.5, seed=3,
            alert_options={"segment_ttl": 4, "enable_confirmation": True,
                           "confirmation_timeout": 0.3},
        ))
        kinds = {(ptype, resent) for ptype, resent, _ in entered}
        assert kinds == {
            (AlertPacketType.RREQ, False),  # _initiate
            (AlertPacketType.RREQ, True),  # _resend
            (AlertPacketType.RREP, True),  # _send_control
        }
        assert {ttl for _, _, ttl in entered} == {4}


class TestHopRetryBudget:
    @pytest.mark.parametrize(
        "protocol", ["GPSR", "ALARM", "AO2P", "ZAP", "ALERT"]
    )
    def test_second_failure_at_one_hop_drops(self, protocol, monkeypatch):
        """Every protocol reads the one shared budget: at
        ``MAX_FORWARD_RETRIES = 1`` a packet whose every next hop fails
        is retried once from the same node, then dropped."""
        monkeypatch.setattr(routing_base, "MAX_FORWARD_RETRIES", 1)
        senders: dict[int, list[int]] = {}

        def failing_unicast(self, src, dst, packet, *, on_failed, **kwargs):
            senders.setdefault(packet.flow_id, []).append(src)
            on_failed("retry-exhausted")

        monkeypatch.setattr(Network, "unicast", failing_unicast)
        result = run_experiment(ExperimentConfig(
            protocol=protocol, n_nodes=40, field_size=600.0,
            mobility="static", duration=4.0, n_pairs=5, send_interval=1.0,
            seed=3,
        ))
        assert senders
        reasons = {f.flow_id: f.dropped_reason for f in result.metrics.flows()}
        for flow_id, srcs in senders.items():
            assert len(srcs) == 2 and srcs[0] == srcs[1]
            assert reasons[flow_id] == "link-failure:retry-exhausted"


class TestMacBounds:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2048), st.floats(0.0, 250.0), st.floats(0.0, 100.0))
    def test_unicast_delay_bounds(self, size, dist, load):
        mac = Mac80211Dcf(RadioModel(), np.random.default_rng(0))
        out = mac.unicast(size, dist, load)
        airtime = mac.radio.tx_time(size)
        assert out.delay_s >= airtime
        # Upper bound: every attempt pays max backoff + airtime + ack.
        per_attempt = (
            mac.difs_s + mac.cw_max * mac.slot_s + airtime
            + mac.sifs_s + mac.radio.tx_time(mac.ack_bytes) + 1e-3
        )
        assert out.delay_s <= out.attempts * per_attempt
        assert 1 <= out.attempts <= mac.max_retries + 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2048), st.floats(0.0, 100.0))
    def test_broadcast_single_attempt(self, size, load):
        mac = Mac80211Dcf(RadioModel(), np.random.default_rng(1))
        out = mac.broadcast(size, load)
        assert out.attempts == 1
        assert out.delay_s >= mac.radio.tx_time(size)


class TestCoverageProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 50), st.integers(1, 50), st.floats(0.0, 1.0))
    def test_coverage_bounds_and_monotonicity(self, m, k, p_c):
        if m > k:
            m, k = k, m
        c = coverage_percent(m, k, p_c)
        assert 0.0 <= c <= 1.0 + 1e-12
        # More first-step recipients never reduce coverage.
        if m < k:
            assert coverage_percent(m + 1, k, p_c) >= c - 1e-12
        # Full second-step reach always completes coverage.
        assert coverage_percent(m, k, 1.0) == pytest.approx(1.0)


class TestEngineEdge:
    def test_interleaved_cancellation_storm(self):
        """Heavily mixed schedule/cancel patterns stay consistent."""
        from repro.sim.engine import Engine
        eng = Engine()
        fired = []
        handles = []
        for i in range(200):
            handles.append(
                eng.schedule_at(1.0 + (i % 10) * 0.1, lambda i=i: fired.append(i))
            )
        for h in handles[::2]:
            h.cancel()
        eng.run()
        assert sorted(fired) == list(range(1, 200, 2))

    def test_periodic_task_survives_exception_free_run(self):
        from repro.sim.engine import Engine
        from repro.sim.process import PeriodicTask
        eng = Engine()
        ticks = []
        task = PeriodicTask(eng, 0.5, lambda: ticks.append(eng.now))
        eng.run(until=5.0)
        task.stop()
        eng.run(until=10.0)
        assert len(ticks) == 10
