"""``AlertProtocol._maybe_rebroadcast``: the second-hop zone coverage
decision (paper §2.3) — a destination-zone member rebroadcasts unless a
live neighbour inside the zone sits strictly closer to the zone centre.

The deciding node's neighbour table is crafted directly, padded with
filler rows that can never suppress, so each case runs at a small and
a large table size.
"""

from __future__ import annotations

import pytest

from repro.core.alert import AlertProtocol
from repro.core.config import AlertConfig
from repro.core.packet_format import AlertHeader, AlertPacketType
from repro.core.zones import Direction
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.geometry.field import Field
from repro.geometry.primitives import Point, Rect
from repro.location.service import LocationService
from repro.mobility.static import StaticPosition
from repro.net.neighbor_table import NeighborEntry, NeighborTable
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine

#: Destination zone [100, 300) × [100, 300); centre (200, 200).
ZONE = Rect(100.0, 100.0, 300.0, 300.0)
#: The deciding node sits in the zone's near corner, so rows outside
#: the zone can still be closer to the centre than it is.
ME = Point(101.0, 101.0)
NOW = 10.0
TTL = 3.0
#: Filler-row counts: a handful, and a table well past 64 rows.
SIZES = (5, 100)


def _entry(addr: int, x: float, y: float, seen: float = NOW) -> NeighborEntry:
    return NeighborEntry(addr, b"", Point(x, y), None, seen)


def _filler(n: int) -> list[NeighborEntry]:
    """Rows that never suppress: live, closer than ME, but out of zone."""
    return [_entry(1000 + i, 150.0 + 0.5 * i, 99.0) for i in range(n)]


def _decide(rows, n_filler: int, zone_flood: bool = True) -> bool:
    """Whether node 0 at ``ME`` rebroadcasts with ``rows`` + filler."""
    engine = Engine(seed=3)
    net = Network(
        engine, Field(1000.0, 1000.0),
        lambda i, rng: StaticPosition(ME if i == 0 else Point(900.0, 900.0)),
        2,
    )
    proto = AlertProtocol(
        net,
        LocationService(net, cost_model=CryptoCostModel()),
        MetricsCollector(),
        CryptoCostModel(),
        AlertConfig(zone_flood=zone_flood),
    )
    sent = []
    net.local_broadcast = lambda sender, pkt, flow=None: sent.append(
        (sender, pkt.header.zone_stage)
    )
    engine.run(until=NOW)
    node = net.nodes[0]
    node.neighbors = NeighborTable(ttl=TTL)
    node.neighbors.bulk_update([*_filler(n_filler), *rows])
    hdr = AlertHeader(
        ptype=AlertPacketType.RREQ, p_src=b"s", p_dst=b"d", zone_dst=ZONE,
        zone_src_enc=b"", td=None, h=0, h_max=4,
        direction=Direction.VERTICAL, zone_stage=1, ttl=10,
    )
    packet = Packet(PacketKind.DATA, src=1, dst=0, size_bytes=64, header=hdr)
    proto._maybe_rebroadcast(node, packet)
    assert sent in ([], [(0, 2)])
    assert hdr.zone_stage == 1  # the rebroadcast goes out on a fork
    return bool(sent)


@pytest.mark.parametrize("n_filler", SIZES)
class TestMaybeRebroadcast:
    def test_no_closer_member_rebroadcasts(self, n_filler):
        assert _decide([], n_filler)

    def test_closer_live_member_suppresses(self, n_filler):
        assert not _decide([_entry(1, 190.0, 200.0)], n_filler)

    def test_closer_member_just_inside_far_edges_suppresses(self, n_filler):
        assert not _decide([_entry(1, 299.999, 200.0)], n_filler)
        assert not _decide([_entry(1, 200.0, 299.999)], n_filler)

    def test_closer_row_outside_zone_does_not_suppress(self, n_filler):
        assert _decide([_entry(1, 200.0, 99.0)], n_filler)
        assert _decide([_entry(1, 99.0, 200.0)], n_filler)

    def test_closer_row_on_half_open_edge_does_not_suppress(self, n_filler):
        # x1 / y1 are exclusive: a row exactly on either is outside.
        assert _decide([_entry(1, 300.0, 200.0)], n_filler)
        assert _decide([_entry(1, 200.0, 300.0)], n_filler)

    def test_stale_closer_row_does_not_suppress(self, n_filler):
        stale = NOW - TTL - 0.01
        assert _decide([_entry(1, 190.0, 200.0, seen=stale)], n_filler)

    def test_row_exactly_at_ttl_cutoff_is_live(self, n_filler):
        assert not _decide([_entry(1, 190.0, 200.0, seen=NOW - TTL)], n_filler)

    def test_equidistant_row_does_not_suppress(self, n_filler):
        # The mirror corner is exactly as far from the centre as we are;
        # within 1e-9 of our distance counts as "not closer".
        assert _decide([_entry(1, 299.0, 299.0)], n_filler)
        assert _decide([_entry(1, 101.0, 299.0)], n_filler)

    def test_zone_flood_off_never_rebroadcasts(self, n_filler):
        assert not _decide([], n_filler, zone_flood=False)
