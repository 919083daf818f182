"""Tests for the Table-1 taxonomy and the ALERT packet format."""

from __future__ import annotations

from repro.core.packet_format import (
    AlertHeader,
    AlertPacketType,
    header_wire_size,
)
from repro.core.zones import Direction
from repro.geometry.primitives import Point, Rect
from repro.routing.taxonomy import PROTOCOL_TAXONOMY, format_taxonomy


def make_header(**kw):
    defaults = dict(
        ptype=AlertPacketType.RREQ,
        p_src=b"s" * 20,
        p_dst=b"d" * 20,
        zone_dst=Rect(0, 0, 100, 100),
        zone_src_enc=b"e" * 32,
        td=Point(50, 50),
        h=2,
        h_max=5,
        direction=Direction.VERTICAL,
        ttl=10,
    )
    defaults.update(kw)
    return AlertHeader(**defaults)


class TestTaxonomy:
    def test_paper_rows_present(self):
        names = {e.name for e in PROTOCOL_TAXONOMY}
        for expected in ("MASK", "ANODR", "AO2P", "ZAP", "ALARM", "ALERT"):
            assert expected in names

    def test_alert_is_the_only_full_package(self):
        """Table 1's point: only ALERT has identity + location + route
        anonymity for both endpoints."""
        full = [
            e for e in PROTOCOL_TAXONOMY
            if e.route_anonymity
            and "source" in e.identity_anonymity
            and "destination" in e.identity_anonymity
            and "source" in e.location_anonymity
            and "destination" in e.location_anonymity
        ]
        assert [e.name for e in full] == ["ALERT"]

    def test_hop_by_hop_geographic_rows_lack_route_anonymity(self):
        for e in PROTOCOL_TAXONOMY:
            if e.mechanism == "Hop-by-hop encryption" and e.routing == "Geographic":
                assert not e.route_anonymity

    def test_format_renders_all_rows(self):
        text = format_taxonomy()
        assert len(text.splitlines()) == len(PROTOCOL_TAXONOMY) + 2
        assert "Route anonymity" in text


class TestAlertHeader:
    def test_clone_is_independent(self):
        h = make_header()
        h.bitmap_chain.append(b"one")
        c = h.clone()
        c.zone_stage = 2
        c.bitmap_chain.append(b"two")
        c.ttl = 0
        c.retries = 3
        assert h.zone_stage == 0
        assert h.bitmap_chain == [b"one"]
        assert (h.ttl, h.retries) == (10, 0)
        assert c.bitmap_chain == [b"one", b"two"]

    def test_clone_preserves_fields(self):
        h = make_header(seq=7, session=3, rf_rounds=2, fallback=True)
        c = h.clone()
        assert (c.seq, c.session, c.rf_rounds, c.fallback) == (7, 3, 2, True)
        assert c.zone_dst == h.zone_dst

    def test_wire_size_counts_variable_fields(self):
        h = make_header()
        base = header_wire_size(h, 512)
        h.bitmap_chain.append(b"x" * 40)
        assert header_wire_size(h, 512) == base + 40
        h2 = make_header(wrapped_key=b"k" * 16)
        assert header_wire_size(h2, 512) == base + 16

    def test_wire_size_scales_with_data(self):
        h = make_header()
        assert header_wire_size(h, 1024) == header_wire_size(h, 512) + 512

    def test_segment_state_defaults(self):
        """A segment's hop state is the header's ``GeoHeader`` fields:
        greedy, no retries yet, the hop budget it was built with."""
        h = make_header(ttl=4)
        assert (h.ttl, h.retries, h.mode) == (4, 0, "greedy")
        assert h.prev_pos is None and h.perimeter_entry is None
