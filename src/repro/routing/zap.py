"""ZAP: anonymous geo-forwarding through location cloaking
(Wu, Liu, Hong & Bertino, IEEE TPDS 2008; paper ref. [13]).

ZAP protects only the destination: the source addresses packets to an
*anonymity zone* (AZ) around D's position instead of to D, geo-forwards
to the zone, and floods inside it, so an observer learns the zone but
not which member is D.  The geo-forwarding leg is GPSR
(:class:`~repro.routing.gpsr.GpsrProtocol`'s greedy/perimeter step
and hop-retry rule) toward the zone's centre.

§3.3 discusses ZAP's two options against intersection attacks —
"dynamically enlarges the range of anonymous zones to broadcast the
messages or minimizes communication session time" — and argues both
are costly; ALERT's two-step multicast is the paper's alternative.
This implementation exposes the enlargement as the one constructor
option, ``enlargement_per_packet``, so the attack benchmark can
reproduce that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.geometry.primitives import Point, Rect
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.routing.gpsr import GeoHeader, GpsrProtocol


@dataclass
class ZapHeader(GeoHeader):
    """Per-packet ZAP state: the anonymity zone, not D's position."""

    zone: Rect
    stage: int = 0  # 0 = geo-forwarding, 1 = in-zone flood
    session: int = 0
    seq: int = 0
    #: (node, stage) receptions already handled; one set per packet,
    #: shared by all its copies (``clone`` passes it on), as
    #: ``AlertHeader.seen``.  Simulator bookkeeping, not on the wire.
    seen: set = field(default_factory=set)


class ZapProtocol(GpsrProtocol):
    """The ZAP comparison protocol (destination anonymity only)."""

    name = "ZAP"
    # The ALERT paper gives none of ZAP's values.
    #: Hop budget for the geo-forwarding leg.
    ttl = 12
    #: Initial side length of the square anonymity zone, metres.
    zone_side = 250.0
    #: Cap on the enlarged zone's side, metres.
    max_zone_side = 1000.0

    def __init__(self, network, location, metrics=None, cost_model=None,
                 enlargement_per_packet: float = 0.0) -> None:
        super().__init__(network, location, metrics, cost_model)
        #: fractional growth of the zone side per packet of a session,
        #: ZAP's intersection-attack countermeasure (§3.3; 0 disables it)
        self.enlargement_per_packet = enlargement_per_packet
        self._session_seq: dict[tuple[int, int], int] = {}
        #: optional hook: (time, in-zone recipient ids) per flood —
        #: consumed by the intersection-attack harness.
        self.zone_delivery_observer: Callable | None = None

    # ------------------------------------------------------------------
    def _zone_for(self, center: Point, seq: int) -> Rect:
        """The (possibly enlarged) anonymity zone for packet ``seq``."""
        side = min(
            self.zone_side * (1.0 + self.enlargement_per_packet * seq),
            self.max_zone_side,
        )
        half = side / 2.0
        bounds = self.network.field.bounds
        x0 = min(max(center.x - half, bounds.x0), bounds.x1 - side)
        y0 = min(max(center.y - half, bounds.y0), bounds.y1 - side)
        x0 = max(x0, bounds.x0)
        y0 = max(y0, bounds.y0)
        return Rect(x0, y0, min(x0 + side, bounds.x1), min(y0 + side, bounds.y1))

    def _initiate(self, packet: Packet) -> None:
        record = self.lookup_destination(packet.src, packet.dst)
        key = (packet.src, packet.dst)
        seq = self._session_seq.get(key, 0)
        self._session_seq[key] = seq + 1
        packet.header = ZapHeader(
            zone=self._zone_for(record.position, seq),
            ttl=self.ttl,
            session=packet.src * 100_003 + packet.dst,
            seq=seq,
        )
        node = self.network.nodes[packet.src]
        packet.record_visit(node.id)
        # ZAP encrypts the payload for the destination once (symmetric,
        # key assumed established as in the paper's model).
        delay = self.cost.symmetric_encrypt()
        self._after_crypto(delay, lambda: self._forward(node, packet))

    def _dispatch(self, node: Node, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or not isinstance(
            packet.header, ZapHeader
        ):
            return
        hdr: ZapHeader = packet.header
        # The set lives in the header and is shared by every copy of
        # this packet, so session and seq need not enter the key, and
        # it dies with the last copy.
        seen = hdr.seen
        before = len(seen)
        seen.add((node.id, hdr.stage))
        if len(seen) == before:  # single hash for the probe + insert
            return
        hdr.retries = 0

        if node.id == packet.dst:
            self._delivered(packet)
            # D keeps flooding like any zone member so it cannot be
            # singled out by its (non-)forwarding behaviour.
        now = self.engine.now
        if hdr.stage == 1:
            if hdr.zone.contains(node.position(now)):
                self._flood(node, packet)
            return
        self._forward(node, packet)

    # ------------------------------------------------------------------
    def _forward(self, node: Node, packet: Packet) -> None:
        hdr: ZapHeader = packet.header
        pos = node.position(self.engine.now)
        if hdr.zone.contains(pos):
            hdr.stage = 1
            self._flood(node, packet)
            return
        if hdr.ttl <= 0:
            self._dropped(packet, "ttl-exhausted")
            return
        self._route(node, packet, pos, hdr.zone.center, None)

    def _flood(self, node: Node, packet: Packet) -> None:
        """In-zone flood: every zone member rebroadcasts once."""
        hdr: ZapHeader = packet.header
        self._mark_participant(packet, node.id)
        members = self.network.nodes_in_rect(hdr.zone)
        receivers = self.network.local_broadcast(
            node.id, packet, flow=packet.flow_id
        )
        if self.zone_delivery_observer is not None:
            # Sender + in-zone receivers are the visibly active set.
            member_set = set(members)
            in_zone = [node.id] + [r for r in receivers if r in member_set]
            self.zone_delivery_observer(self.engine.now, in_zone)
        self.metrics.note("zap_zone_floods")
        self.metrics.note("zap_zone_population", len(members))
