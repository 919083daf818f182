"""Tests for the generic packet record."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.core.packet_format import (
    AlertHeader,
    AlertPacketType,
    SegmentState,
)
from repro.core.zones import Direction
from repro.crypto.cipher import ShadowCiphertext
from repro.geometry.primitives import Rect
from repro.net.packet import Packet, PacketKind, clone_header
from repro.routing.zap import ZapHeader


def make(**kw):
    defaults = dict(kind=PacketKind.DATA, src=1, dst=2, size_bytes=512)
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_unique_uids(self):
        assert make().uid != make().uid

    def test_hops_from_trace(self):
        p = make()
        assert p.hops == 0
        p.record_visit(1)
        assert p.hops == 0
        p.record_visit(5)
        p.record_visit(9)
        assert p.hops == 2

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

    def test_fork_gets_new_uid_keeps_provenance(self):
        p = make(flow_id=7)
        p.transmissions = 3
        p.crypto_delay = 0.5
        q = p.fork()
        assert q.uid != p.uid
        assert q.flow_id == 7
        assert q.transmissions == 3
        assert q.crypto_delay == 0.5
        assert q.src == p.src and q.dst == p.dst

    def test_fork_overrides(self):
        p = make()
        q = p.fork(kind=PacketKind.NAK, size_bytes=64)
        assert q.kind is PacketKind.NAK
        assert q.size_bytes == 64
        assert q.src == p.src

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
    )
    defaults.update(kw)
    return AlertHeader(**defaults)


class TestForkHeaderIsolation:
    """`fork()` must give each branch its own header copy.

    Regression tests for the broadcast header-aliasing bug: every
    receiver of ``Network.local_broadcast`` used to share one mutable
    header object, so ``hdr.segment.retries = 0`` (ALERT) or
    ``hdr.retries = 0`` (ZAP) in one branch corrupted its siblings.
    """

    def test_fork_clones_header_object(self):
        p = make(header=alert_header())
        q = p.fork()
        assert q.header is not p.header

    def test_branch_mutation_cannot_affect_parent(self):
        p = make(header=alert_header())
        q = p.fork()
        q.header.zone_stage = 2
        q.header.segment.retries = 5
        q.header.bitmap_chain.append(b"x")
        assert p.header.zone_stage == 0
        assert p.header.segment.retries == 0
        assert p.header.bitmap_chain == []

    def test_sibling_branches_are_independent(self):
        p = make(header=ZapHeader(zone=Rect(0, 0, 50, 50), ttl=12))
        a, b = p.fork(), p.fork()
        a.header.retries = 7
        a.header.ttl -= 3
        assert b.header.retries == 0
        assert b.header.ttl == 12

    def test_explicit_header_override_is_not_cloned(self):
        hdr = alert_header()
        p = make(header=alert_header())
        q = p.fork(header=hdr)
        assert q.header is hdr

    def test_none_header_stays_none(self):
        assert make().fork().header is None

    def test_clone_header_deepcopy_fallback(self):
        @dataclass
        class CustomHeader:  # no clone() method
            hops: list = field(default_factory=list)

        hdr = CustomHeader(hops=[1, 2])
        copy_ = clone_header(hdr)
        copy_.hops.append(3)
        assert hdr.hops == [1, 2]

    def test_clone_header_prefers_clone_method(self):
        class Marked:
            def clone(self):
                return ("cloned", self)

        hdr = Marked()
        assert clone_header(hdr) == ("cloned", hdr)


class TestHeaderRule:
    """One rule for ``clone_header`` and ``fork``: exact bytes shared,
    ``None`` passed through, ``clone()`` used, anything else deep-copied."""

    def test_bytes_header_is_shared(self):
        ttl = b"\x00" * 64
        assert clone_header(ttl) is ttl
        assert make(header=ttl).fork().header is ttl

    def test_none_passes_through(self):
        assert clone_header(None) is None

    def test_shadow_ciphertext_is_copied(self):
        hdr = ShadowCiphertext(64, b"\x00")
        for copy_ in (clone_header(hdr), make(header=hdr).fork().header):
            assert copy_ is not hdr
            assert type(copy_) is ShadowCiphertext
            assert copy_ == hdr
            assert copy_.plaintext == hdr.plaintext

    def test_mutable_header_siblings_independent(self):
        p = make(header={"hops": [1, 2]})
        a, b = p.fork(), p.fork()
        a.header["hops"].append(3)
        assert b.header == {"hops": [1, 2]}
        assert p.header == {"hops": [1, 2]}
