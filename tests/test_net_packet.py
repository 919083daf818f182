"""Tests for the generic packet record."""

from __future__ import annotations

import pytest

from repro.core.packet_format import (
    AlertHeader,
    AlertPacketType,
)
from repro.core.zones import Direction
from repro.geometry.primitives import Rect
from repro.net.packet import Packet, PacketKind
from repro.routing.zap import ZapHeader


def make(**kw):
    defaults = dict(kind=PacketKind.DATA, src=1, dst=2, size_bytes=512)
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_record_visit_collapses_duplicates(self):
        p = make()
        p.record_visit(1)
        p.record_visit(1)
        p.record_visit(2)
        p.record_visit(1)
        assert p.trace == [1, 2, 1]

    def test_fork_copies_trace_independently(self):
        p = make()
        p.record_visit(1)
        q = p.fork()
        q.record_visit(2)
        assert p.trace == [1]
        assert q.trace == [1, 2]

    def test_fork_is_new_object_keeps_provenance(self):
        p = make(flow_id=7, payload=b"ct")
        q = p.fork()
        assert q is not p
        assert q.flow_id == 7
        assert q.payload == b"ct"
        assert q.src == p.src and q.dst == p.dst

    def test_fork_rejects_unknown_field(self):
        p = make()
        with pytest.raises(TypeError, match="'size'"):
            p.fork(size=64)
        assert not hasattr(p, "size")

    @pytest.mark.parametrize("name", ["uid", "trace"])
    def test_fork_rejects_owned_fields(self, name):
        with pytest.raises(TypeError, match=repr(name)):
            make().fork(**{name: 1})

    def test_kinds_enumerated(self):
        assert {k.value for k in PacketKind} == {
            "data", "hello", "cover", "nak", "control",
        }


def alert_header(**kw):
    defaults = dict(
        ptype=AlertPacketType.RREQ,
        p_src=b"s" * 20,
        p_dst=b"d" * 20,
        zone_dst=Rect(0, 0, 100, 100),
        zone_src_enc=b"",
        td=None,
        h=0,
        h_max=4,
        direction=Direction.VERTICAL,
        ttl=10,
    )
    defaults.update(kw)
    return AlertHeader(**defaults)


class TestForkHeaderIsolation:
    """`fork()` must give each branch its own header copy.

    Regression tests for the broadcast header-aliasing bug: every
    receiver of ``Network.local_broadcast`` used to share one mutable
    header object, so ``hdr.retries = 0`` (ALERT, ZAP) in one branch
    corrupted its siblings.
    """

    def test_fork_clones_header_object(self):
        p = make(header=alert_header())
        q = p.fork()
        assert q.header is not p.header

    def test_branch_mutation_cannot_affect_parent(self):
        p = make(header=alert_header())
        q = p.fork()
        q.header.zone_stage = 2
        q.header.retries = 5
        q.header.bitmap_chain.append(b"x")
        assert p.header.zone_stage == 0
        assert p.header.retries == 0
        assert p.header.bitmap_chain == []

    def test_sibling_branches_are_independent(self):
        p = make(header=ZapHeader(zone=Rect(0, 0, 50, 50), ttl=12))
        a, b = p.fork(), p.fork()
        a.header.retries = 7
        a.header.ttl -= 3
        assert b.header.retries == 0
        assert b.header.ttl == 12

    def test_none_header_stays_none(self):
        assert make().fork().header is None

    def test_fork_uses_header_clone(self):
        class Marked:
            def clone(self):
                return ("cloned", self)

        hdr = Marked()
        assert make(header=hdr).fork().header == ("cloned", hdr)
