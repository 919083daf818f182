"""Focused unit tests on ALERT internals with crafted geometry."""

from __future__ import annotations

import pytest

from repro.core.alert import AlertProtocol, _rect_from_bytes, _rect_to_bytes
from repro.core.config import AlertConfig
from repro.core.packet_format import AlertPacketType
from repro.core.zones import Direction, destination_zone
from repro.crypto.cipher import PublicKeyCipher
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.geometry.field import Field
from repro.geometry.primitives import Point, Rect
from repro.location.service import LocationService
from repro.mobility.static import StaticPosition
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine


def build_line_network(n=12, spacing=180.0, field_side=2200.0):
    """Nodes on a horizontal line, `spacing` apart (all links usable)."""
    engine = Engine(seed=2)
    fld = Field(field_side, field_side)
    y = field_side / 2

    def factory(node_id, rng):
        return StaticPosition(Point(60.0 + node_id * spacing, y))

    net = Network(engine, fld, factory, n)
    return net


def attach_alert(net, cfg=None):
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    location = LocationService(net, cost_model=CryptoCostModel())
    proto = AlertProtocol(
        net, location, metrics, cost,
        cfg if cfg is not None else AlertConfig(h_override=4),
    )
    net.start_hello()
    net.engine.run(until=0.5)
    return proto, metrics, cost, location


class TestRectCodec:
    def test_roundtrip(self):
        r = Rect(12.5, 0.0, 800.25, 431.0)
        assert _rect_from_bytes(_rect_to_bytes(r)) == r

    def test_source_zone_encrypts_for_destination_only(self):
        net = build_line_network()
        proto, metrics, _, _ = attach_alert(net)
        proto.send_data(0, 11)
        net.engine.run(until=net.engine.now + 2.0)
        sess = proto._sessions[(0, 11)]
        dest = net.nodes[11]
        blob = PublicKeyCipher.for_owner(dest.keypair).decrypt(sess.zone_src_enc)
        zone_src = _rect_from_bytes(blob)
        # The decrypted return zone contains the source's position.
        assert zone_src.contains_closed(net.nodes[0].position(0.0))


class TestLineTopology:
    def test_delivery_down_the_line(self):
        net = build_line_network()
        proto, metrics, _, _ = attach_alert(net)
        for _ in range(4):
            proto.send_data(0, 11)
            net.engine.run(until=net.engine.now + 1.5)
        assert metrics.delivery_rate() >= 0.75

    def test_header_bookkeeping(self):
        """h accumulates partitions; direction bit flips along the way."""
        net = build_line_network()
        proto, metrics, _, _ = attach_alert(net)
        seen_headers = []
        orig = AlertProtocol._rf_partition

        def spy(self, node, packet):
            seen_headers.append(
                (packet.header.h, packet.header.direction, packet.header.rf_rounds)
            )
            return orig(self, node, packet)

        AlertProtocol._rf_partition = spy
        try:
            proto.send_data(0, 11)
            net.engine.run(until=net.engine.now + 2.0)
        finally:
            AlertProtocol._rf_partition = orig
        assert seen_headers, "at least the source partitions"
        hs = [h for h, _, _ in seen_headers]
        assert hs == sorted(hs)  # divisions-so-far only grows

    def test_source_in_destination_zone_broadcasts_immediately(self):
        """S and D in the same Z_D: no partitioning, straight to the
        k-anonymity broadcast."""
        net = build_line_network(n=6, spacing=30.0)
        proto, metrics, _, _ = attach_alert(net, AlertConfig(h_override=3))
        proto.send_data(0, 5)
        net.engine.run(until=net.engine.now + 1.0)
        flow = metrics.flows()[0]
        assert flow.delivered
        assert flow.rf_count == 0
        assert metrics.counters.get("zone_broadcasts", 0) >= 1


class TestDispatchHygiene:
    def test_foreign_packets_ignored(self):
        """Packets without an ALERT header are dropped silently."""
        net = build_line_network(n=4, spacing=100.0)
        proto, metrics, _, _ = attach_alert(net)
        alien = Packet(kind=PacketKind.DATA, src=0, dst=3, size_bytes=64)
        alien.header = object()
        net.nodes[1].deliver(alien)  # must not raise
        assert metrics.packets_sent == 0

    def test_is_final_recipient_requires_pseudonym_match(self):
        net = build_line_network(n=4, spacing=100.0)
        proto, _, _, _ = attach_alert(net)
        proto.send_data(0, 3)
        net.engine.run(until=net.engine.now + 1.0)
        # Craft a packet claiming a bogus destination pseudonym.
        fld = net.field
        zd = destination_zone(fld.bounds, net.nodes[3].position(0.0), 4)
        from repro.core.packet_format import AlertHeader
        hdr = AlertHeader(
            ptype=AlertPacketType.RREQ,
            p_src=b"x" * 20,
            p_dst=b"y" * 20,  # not node 3's pseudonym
            zone_dst=zd,
            zone_src_enc=b"",
            td=None,
            h=0,
            h_max=4,
            direction=Direction.VERTICAL,
            ttl=10,
        )
        pkt = Packet(kind=PacketKind.DATA, src=0, dst=3, size_bytes=64)
        pkt.header = hdr
        assert not proto._is_final_recipient(net.nodes[3], pkt)
