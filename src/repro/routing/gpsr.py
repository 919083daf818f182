"""GPSR: Greedy Perimeter Stateless Routing (Karp & Kung; paper ref. [15]).

The baseline of the paper's evaluation: "a packet is always forwarded
to the node nearest to the destination.  When such a node does not
exist, GPSR uses perimeter forwarding to find the hop that is the
closest to the destination."

Implementation notes
--------------------
* Greedy mode forwards to the neighbor-table entry closest to the
  target position, requiring strict progress.
* Perimeter mode planarises the local neighborhood with the Gabriel
  graph and walks it by the right-hand rule, recovering to greedy as
  soon as the packet is closer to the target than where it entered
  perimeter mode.  (The full face-crossing test of the original paper
  is omitted; the TTL bounds any residual walks, matching the paper's
  "forwarding continues until the routing path length reaches a
  predefined TTL … set to 10".)
* The greedy/Gabriel/right-hand-rule helpers are module-level functions
  because ALERT reuses them for its RF-to-RF segments (§2.3: "Between
  any two RFs, the relays perform the GPSR routing").
* :func:`next_hop_geographic` is the one greedy/perimeter forwarding
  step, and :class:`GeoHeader` the per-packet hop state it and the
  shared hop-retry rule (:meth:`RoutingProtocol._retry_hop`, also
  ALERT's) work on.  The comparison protocols the paper describes as
  routing "similar to GPSR" (ALARM, AO2P) and ZAP's geo-forwarding leg
  derive from :class:`GpsrProtocol` and route with both toward a
  target of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.net.neighbor_table import NeighborEntry, NeighborTable
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.geometry.primitives import Point
from repro.routing.base import RoutingProtocol

_PROGRESS_EPS = 1e-9


# ----------------------------------------------------------------------
# reusable geographic-forwarding primitives
# ----------------------------------------------------------------------
def next_hop_greedy(
    self_pos: Point, target: Point, entries: list[NeighborEntry]
) -> NeighborEntry | None:
    """The neighbor strictly closest to ``target``, or ``None``.

    Returns ``None`` when no neighbor makes progress (a local maximum
    — GPSR's trigger for perimeter mode, and ALERT's trigger for
    declaring the current node a random forwarder).
    """
    best: NeighborEntry | None = None
    own = self_pos.sq_distance_to(target)
    best_d = own
    for e in entries:
        d = e.position.sq_distance_to(target)
        if d < best_d - _PROGRESS_EPS:
            best = e
            best_d = d
    return best


#: Neighborhood size at which the batched greedy path switches from
#: the scalar epsilon chain to the NumPy vector pass.  Measured
#: crossover on this kernel: the vector pass (with its column-cache
#: build amortised over a round's decisions) wins from ~36 rows; below
#: that the scalar loop's lack of fixed per-array overhead wins.
_BATCH_MIN = 36


def next_hop_greedy_batched(
    self_pos: Point,
    target: Point,
    table: NeighborTable,
    now: float,
    batch_min: int = _BATCH_MIN,
) -> NeighborEntry | None:
    """:func:`next_hop_greedy` over a table's cached column arrays.

    Node-for-node identical to the scalar path over
    ``table.live_entries(now)`` at any ``batch_min``: squared distances
    come out of one vector pass (``dx*dx + dy*dy`` elementwise — the
    exact two-term IEEE sum ``Point.sq_distance_to`` computes), and the
    scalar epsilon chain is then replayed over only the candidates that
    could ever win it.  A row updates the scalar chain's ``best`` only
    if ``d < best_d - eps`` with ``best_d`` starting at the own
    distance and only ever decreasing, so every winner satisfies
    ``d < own - eps`` — the vector prefilter — and candidate order
    (ascending address) matches the scalar iteration order.

    Small neighborhoods (fewer than ``batch_min`` rows) run the scalar
    chain directly: per-array fixed overhead exceeds the whole loop
    there, and the result is identical either way.
    """
    if len(table) < batch_min:
        return next_hop_greedy(self_pos, target, table.live_entries(now))
    rows, xs, ys, seen = table.columns()
    dx = xs - target.x
    dy = ys - target.y
    d2 = dx * dx + dy * dy
    own = self_pos.sq_distance_to(target)
    mask = d2 < own - _PROGRESS_EPS
    mask &= seen >= now - table.ttl
    cand = np.flatnonzero(mask)
    best: NeighborEntry | None = None
    best_d = own
    for i in cand.tolist():
        d = d2[i]
        if d < best_d - _PROGRESS_EPS:
            best = rows[i]
            best_d = d
    return best


def gabriel_neighbors(
    self_pos: Point, entries: list[NeighborEntry]
) -> list[NeighborEntry]:
    """Local Gabriel-graph planarisation of the one-hop neighborhood.

    Edge (self, v) survives iff no witness w lies strictly inside the
    circle with diameter (self, v).  Planarity is what makes the
    right-hand rule traverse faces instead of looping.
    """
    keep: list[NeighborEntry] = []
    for v in entries:
        mid = self_pos.midpoint(v.position)
        r2 = self_pos.sq_distance_to(v.position) / 4.0
        ok = True
        for w in entries:
            if w is v:
                continue
            if w.position.sq_distance_to(mid) < r2 - _PROGRESS_EPS:
                ok = False
                break
        if ok:
            keep.append(v)
    return keep


def next_hop_right_hand(
    self_pos: Point, reference: Point, entries: list[NeighborEntry]
) -> NeighborEntry | None:
    """First planar neighbor counterclockwise from the reference ray.

    ``reference`` is the previous hop's position (or the target when
    entering perimeter mode).  Returns ``None`` only when there are no
    neighbors at all.
    """
    planar = gabriel_neighbors(self_pos, entries)
    if not planar:
        return None
    ref_angle = math.atan2(reference.y - self_pos.y, reference.x - self_pos.x)
    best: NeighborEntry | None = None
    best_sweep = float("inf")
    for e in planar:
        a = math.atan2(e.position.y - self_pos.y, e.position.x - self_pos.x)
        sweep = (a - ref_angle) % (2.0 * math.pi)
        if sweep < 1e-12:
            sweep = 2.0 * math.pi  # going straight back is the last resort
        if sweep < best_sweep:
            best_sweep = sweep
            best = e
    return best


@dataclass(kw_only=True)
class GeoHeader:
    """Per-packet hop state: the greedy/perimeter state of
    :func:`next_hop_geographic` and the ``ttl``/``retries`` the shared
    hop-retry rule reads.

    Protocol headers, ALERT's included, derive from it and add their
    routing target.
    """

    ttl: int
    mode: str = "greedy"  # or "perimeter"
    perimeter_entry: Point | None = None
    prev_pos: Point | None = None
    retries: int = 0

    def clone(self) -> "GeoHeader":
        """Independent copy for a broadcast branch (fields immutable)."""
        return replace(self)


def next_hop_geographic(
    hdr: GeoHeader,
    self_pos: Point,
    target: Point,
    table: NeighborTable,
    now: float,
    local_max: NeighborEntry | None,
) -> NeighborEntry | None:
    """One greedy/perimeter forwarding decision toward ``target``.

    A packet in perimeter mode returns to greedy mode as soon as it is
    closer to ``target`` than where it entered perimeter mode.  Greedy
    mode picks the neighbor closest to ``target``; at a local maximum
    the packet goes to ``local_max`` if one is given, else it enters
    perimeter mode and follows the right-hand rule.  Returns ``None``
    only when the node has no live neighbor.
    """
    if hdr.mode == "perimeter" and (
        self_pos.distance_to(target)
        < hdr.perimeter_entry.distance_to(target) - _PROGRESS_EPS
    ):
        hdr.mode = "greedy"
        hdr.perimeter_entry = None
    if hdr.mode == "greedy":
        choice = next_hop_greedy_batched(self_pos, target, table, now)
        if choice is not None:
            return choice
        if local_max is not None:
            return local_max
        hdr.mode = "perimeter"
        hdr.perimeter_entry = self_pos
    # The row list is only materialised on this (rare) perimeter path.
    return next_hop_right_hand(
        self_pos, hdr.prev_pos or target, table.live_entries(now)
    )


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
@dataclass
class GpsrHeader(GeoHeader):
    """Per-packet GPSR routing state: the position routed toward and
    the destination's address."""

    target: Point
    dst_addr: int


class GpsrProtocol(RoutingProtocol):
    """The GPSR baseline protocol.

    ALARM, AO2P and ZAP subclass it.  Each sets its own target in
    :meth:`_initiate` (ZAP in :meth:`_forward`), adds its per-hop crypto
    in :meth:`_dispatch` (AO2P also its hand-off rule and contention in
    :meth:`_direct_hand_off` and :meth:`_unicast`), and shares
    :meth:`_route`, :meth:`_transmit` and :meth:`_on_link_failure`,
    which retries under :meth:`RoutingProtocol._retry_hop`.  AO2P and
    ZAP override the hop budget ``ttl``; ALARM keeps GPSR's.
    """

    name = "GPSR"
    #: Maximum hops per packet: "a predefined TTL … set to 10" (§5).
    ttl = 10

    # -- origination ---------------------------------------------------
    def _initiate(self, packet: Packet) -> None:
        record = self.lookup_destination(packet.src, packet.dst)
        packet.header = GpsrHeader(
            target=record.position,
            dst_addr=packet.dst,
            ttl=self.ttl,
        )
        node = self.network.nodes[packet.src]
        packet.record_visit(node.id)
        self._forward(node, packet)

    # -- reception -------------------------------------------------------
    def _dispatch(self, node: Node, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or not isinstance(
            packet.header, GpsrHeader
        ):
            return
        packet.header.retries = 0  # fresh hop, fresh retry budget
        self._forward(node, packet)

    # -- forwarding core ---------------------------------------------------
    def _forward(self, node: Node, packet: Packet) -> None:
        hdr: GpsrHeader = packet.header
        if node.id == hdr.dst_addr:
            self._delivered(packet)
            return
        if hdr.ttl <= 0:
            self._dropped(packet, "ttl-exhausted")
            return
        now = self.engine.now
        self_pos = node.position(now)
        direct = node.neighbors.get(hdr.dst_addr, now)
        if direct is not None and self._direct_hand_off(
            direct, self_pos, hdr.target
        ):
            self._transmit(node, direct, packet, self_pos)
            return
        self._route(node, packet, self_pos, hdr.target, direct)

    def _direct_hand_off(
        self, direct: NeighborEntry, self_pos: Point, target: Point
    ) -> bool:
        """Whether the destination, a live neighbor, takes the packet
        now.  GPSR always hands it over; a destination refused here is
        still handed the packet at a local maximum."""
        return True

    def _route(
        self,
        node: Node,
        packet: Packet,
        self_pos: Point,
        target: Point,
        local_max: NeighborEntry | None,
    ) -> None:
        """Forward one hop by :func:`next_hop_geographic`."""
        choice = next_hop_geographic(
            packet.header, self_pos, target, node.neighbors,
            self.engine.now, local_max,
        )
        if choice is None:
            self._dropped(packet, "no-neighbors")
            return
        self._transmit(node, choice, packet, self_pos)

    def _transmit(
        self, node: Node, choice: NeighborEntry, packet: Packet, self_pos: Point
    ) -> None:
        hdr: GeoHeader = packet.header
        hdr.ttl -= 1
        hdr.prev_pos = self_pos
        self._mark_participant(packet, node.id)
        self._unicast(node, choice, packet)

    def _unicast(
        self, node: Node, choice: NeighborEntry, packet: Packet
    ) -> None:
        self.network.unicast(
            node.id,
            choice.link_address,
            packet,
            on_failed=lambda reason: self._on_link_failure(
                node, choice, packet, reason
            ),
            flow=packet.flow_id,
        )

    def _on_link_failure(
        self, node: Node, choice: NeighborEntry, packet: Packet, reason: str
    ) -> None:
        """Retry from the same node under the shared hop-retry rule."""
        if self._retry_hop(node, choice, packet, reason):
            self._forward(node, packet)
