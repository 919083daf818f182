"""Reception dedup keys live in the packet's header.

``AlertHeader.seen`` records which (node, zone stage, RF round, TD)
receptions of one packet have been handled, ``ZapHeader.seen`` which
(node, stage) ones.  Every copy of the packet shares the set, a newly
built packet starts a fresh one, and the set is freed by refcount with
the packet's last copy — also while the cyclic collector is off, as it
is during ``run_experiment``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.alert import AlertProtocol
from repro.core.config import AlertConfig
from repro.core.packet_format import AlertHeader, AlertPacketType
from repro.core.zones import Direction
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import run_experiment
from repro.geometry.field import Field
from repro.geometry.primitives import Point, Rect
from repro.location.service import LocationService
from repro.mobility.static import StaticPosition
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.routing.zap import ZapHeader, ZapProtocol
from repro.sim.engine import Engine
from tests import test_reliability_and_edges as reliability


class _TrackedSet(set):
    """A ``set`` that takes weak references."""


@pytest.fixture
def entries(monkeypatch):
    """Every packet ALERT starts (source RREQs, resends, RREPs, NAKs)
    passes ``_continue_from`` once, before any copy of it exists.
    Record its header and the state of its ``seen`` set there."""
    log = []
    original = AlertProtocol._continue_from

    def spy(self, node, packet):
        hdr = packet.header
        log.append((hdr, hdr.seen, len(hdr.seen)))
        return original(self, node, packet)

    monkeypatch.setattr(AlertProtocol, "_continue_from", spy)
    return log


def _header(**kw) -> AlertHeader:
    fields = dict(
        ptype=AlertPacketType.RREQ, p_src=b"s", p_dst=b"d",
        zone_dst=Rect(800.0, 800.0, 900.0, 900.0), zone_src_enc=b"",
        td=Point(850.0, 850.0), h=1, h_max=4,
        direction=Direction.VERTICAL, session=1, seq=0, ttl=10,
    )
    fields.update(kw)
    return AlertHeader(**fields)


class TestSeenOwnership:
    def test_clone_shares_seen(self):
        hdr = _header()
        hdr.seen.add((3, 0, 0, None))
        copy = hdr.clone()
        assert copy.seen is hdr.seen
        assert copy.bitmap_chain is not hdr.bitmap_chain

    def test_new_headers_start_fresh(self):
        assert _header().seen is not _header().seen

    def test_rreq_rrep_nak_start_fresh_sets(self, monkeypatch, entries):
        """The NAK-recovery run builds RREQs (sends and a resend), RREPs
        and a NAK; each enters routing with a set of its own, empty."""
        reliability.TestNakRecovery._run_with_lost_seq(monkeypatch)
        assert {hdr.ptype for hdr, _, _ in entries} == set(AlertPacketType)
        assert all(size == 0 for _, _, size in entries)
        sets = [seen for _, seen, _ in entries]
        assert len({id(s) for s in sets}) == len(sets)


class TestHandledOnce:
    @staticmethod
    def _setup():
        engine = Engine(seed=5)
        positions = [Point(100.0, 100.0), Point(200.0, 100.0), Point(850.0, 850.0)]
        net = Network(
            engine, Field(1000.0, 1000.0),
            lambda i, rng: StaticPosition(positions[i]), len(positions),
        )
        proto = AlertProtocol(
            net, LocationService(net, cost_model=CryptoCostModel()),
            MetricsCollector(), CryptoCostModel(), AlertConfig(h_override=4),
        )
        handled = []
        proto._segment_forward = lambda node, packet: handled.append(
            (node.id, packet)
        )
        return net, proto, handled

    def test_duplicate_reception_is_dropped(self):
        net, proto, handled = self._setup()
        packet = Packet(PacketKind.DATA, src=1, dst=2, size_bytes=64,
                        header=_header())
        node0, node1 = net.nodes[0], net.nodes[1]
        proto._on_packet(node0, packet)
        proto._on_packet(node0, packet)
        # A second copy of the same frame shares the dedup set.
        proto._on_packet(node0, packet.fork())
        assert [nid for nid, _ in handled] == [0]
        # Another node, or the same node in a later RF round, is new.
        proto._on_packet(node1, packet.fork())
        later = packet.fork()
        later.header.rf_rounds = 1
        proto._on_packet(node0, later)
        assert [nid for nid, _ in handled] == [0, 1, 0]


def _run_keeping_protocol(monkeypatch, alert_options):
    """A short ``run_experiment``, and the ``AlertProtocol`` it built."""
    built = []
    original = AlertProtocol.__init__

    def capture(self, *args, **kw):
        original(self, *args, **kw)
        built.append(self)

    monkeypatch.setattr(AlertProtocol, "__init__", capture)
    cfg = ExperimentConfig(
        n_nodes=40, field_size=600.0, duration=6.0, n_pairs=3,
        alert_options=alert_options,
    )
    result = run_experiment(cfg)
    [proto] = built
    return proto, result


def test_protocol_keeps_no_reception_set(monkeypatch):
    """The only set ALERT keeps is the destinations' per-(session,
    seq, type) delivery record, which grows with deliveries, not
    receptions."""
    proto, result = _run_keeping_protocol(monkeypatch, {})
    sets = {
        name for name, value in vars(proto).items()
        if isinstance(value, (set, frozenset))
    }
    assert sets == {"_dest_received"}
    delivered = sum(1 for f in result.metrics.flows() if f.delivered)
    assert 0 < len(proto._dest_received) <= delivered


@pytest.mark.parametrize("confirm", [False, True])
def test_session_state_kept_only_while_readable(monkeypatch, confirm):
    """A delivered packet's digest is gone; ciphertexts and flow ids
    for resends are kept only when confirmation can resend."""
    proto, result = _run_keeping_protocol(
        monkeypatch, {"enable_confirmation": confirm}
    )
    flows = result.metrics.flows()
    delivered = sum(1 for f in flows if f.delivered)
    sessions = proto._sessions.values()
    assert delivered > 0
    assert sum(len(s.sent_digests) for s in sessions) == len(flows) - delivered
    assert result.metrics.counters.get("payload_verified", 0) == delivered
    kept = sum(len(s.retained) + len(s.flow_ids) for s in sessions)
    assert (kept > 0) is confirm


@pytest.mark.parametrize(
    "cfg",
    [
        # dense: every flow delivered, zone broadcasts and overhearing
        ExperimentConfig(n_nodes=40, field_size=600.0, duration=10.0, n_pairs=4),
        # sparse: drops, resends, RREPs and NAKs
        ExperimentConfig(
            n_nodes=20, field_size=1500.0, duration=10.0, n_pairs=4,
            alert_options={"enable_confirmation": True},
        ),
    ],
    ids=["dense", "sparse-confirmed"],
)
def test_seen_dies_with_the_packet(monkeypatch, cfg):
    """With the cyclic collector off, every packet's ``seen`` set is
    freed once all copies of the packet are delivered or dropped."""
    refs = []
    original = AlertProtocol._continue_from

    def track(self, node, packet):
        hdr = packet.header
        hdr.seen = _TrackedSet(hdr.seen)
        refs.append(weakref.ref(hdr.seen))
        return original(self, node, packet)

    monkeypatch.setattr(AlertProtocol, "_continue_from", track)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_experiment(cfg, max_packets_per_pair=3)
        alive = sum(1 for r in refs if r() is not None)
    finally:
        if was_enabled:
            gc.enable()
    flows = result.metrics.flows()
    # Nothing is left in flight, so every packet is delivered or dropped.
    assert flows and all(f.delivered or f.dropped_reason for f in flows)
    assert len(refs) >= len(flows)
    assert alive == 0


# ----------------------------------------------------------------------
# ZAP: the same rule, keyed by (node, stage)
# ----------------------------------------------------------------------
def _zap_header(**kw) -> ZapHeader:
    return ZapHeader(zone=Rect(700.0, 700.0, 950.0, 950.0), ttl=12, **kw)


class TestZapSeen:
    def test_clone_shares_seen(self):
        hdr = _zap_header()
        hdr.seen.add((3, 0))
        assert hdr.clone().seen is hdr.seen

    def test_new_headers_start_fresh(self):
        assert _zap_header().seen is not _zap_header().seen

    def test_duplicate_reception_is_dropped(self):
        engine = Engine(seed=5)
        positions = [Point(100.0, 100.0), Point(200.0, 100.0), Point(850.0, 850.0)]
        net = Network(
            engine, Field(1000.0, 1000.0),
            lambda i, rng: StaticPosition(positions[i]), len(positions),
        )
        proto = ZapProtocol(
            net, LocationService(net, cost_model=CryptoCostModel()),
            MetricsCollector(), CryptoCostModel(),
        )
        handled = []
        proto._forward = lambda node, packet: handled.append(node.id)
        packet = Packet(PacketKind.DATA, src=1, dst=2, size_bytes=64,
                        header=_zap_header())
        node0, node1 = net.nodes[0], net.nodes[1]
        proto._dispatch(node0, packet)
        proto._dispatch(node0, packet)
        # A second copy of the same frame shares the dedup set.
        proto._dispatch(node0, packet.fork())
        assert handled == [0]
        # Another node is new; so is the same node in the flood stage,
        # where a node outside the zone handles the copy and stops.
        proto._dispatch(node1, packet.fork())
        flooded = packet.fork()
        flooded.header.stage = 1
        proto._dispatch(node0, flooded)
        proto._dispatch(node0, flooded.fork())
        assert handled == [0, 1]
        assert packet.header.seen == {(0, 0), (1, 0), (0, 1)}


ZAP_RUN = ExperimentConfig(
    protocol="ZAP", n_nodes=40, field_size=800.0, duration=8.0, n_pairs=4,
)


def test_zap_keeps_no_reception_set(monkeypatch):
    built = []
    original = ZapProtocol.__init__

    def capture(self, *args, **kw):
        original(self, *args, **kw)
        built.append(self)

    monkeypatch.setattr(ZapProtocol, "__init__", capture)
    result = run_experiment(ZAP_RUN)
    [proto] = built
    assert result.metrics.counters.get("zap_zone_floods", 0) > 0
    assert not [
        name for name, value in vars(proto).items()
        if isinstance(value, (set, frozenset))
    ]


def test_zap_seen_dies_with_the_packet(monkeypatch):
    """With the cyclic collector off, every ZAP packet's ``seen`` set
    is freed once the run has drained."""
    refs = []
    original = ZapHeader.__init__

    def track(self, *args, **kw):
        original(self, *args, **kw)
        if "seen" not in kw:  # a new packet, not a clone's copy
            self.seen = _TrackedSet()
            refs.append(weakref.ref(self.seen))

    monkeypatch.setattr(ZapHeader, "__init__", track)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_experiment(ZAP_RUN, max_packets_per_pair=3)
        alive = sum(1 for r in refs if r() is not None)
    finally:
        if was_enabled:
            gc.enable()
    flows = result.metrics.flows()
    assert flows and any(f.delivered for f in flows)
    assert len(refs) == len(flows)
    assert alive == 0
