"""AO2P: Ad hoc On-demand Position-based Private routing (Wu, TMC 2005;
paper ref. [10]).

The paper's description (§5): "The routing of AO2P is similar to GPSR
except it has a contention phase in which the neighboring nodes of the
current packet holder will contend to be the next hop. … Also, AO2P
selects a position on the line connecting the source and destination
that is further to the source node than the destination … which may
lead to long path length with higher routing cost than GPSR."

Model
-----
* Routing is GPSR (:class:`~repro.routing.gpsr.GpsrProtocol`'s
  greedy/perimeter step and hop-retry rule) toward the *proxy
  destination*: the point on the ray S→D extended
  ``proxy_extension_m`` beyond D, clamped to the field, so the real
  destination's position never appears in the packet.
* Each hop adds a contention-phase delay (receiver-side distance-class
  contention) plus one public-key operation (AO2P is hop-by-hop
  encryption in Table 1) — together slightly more than ALARM's per-hop
  cost, matching "the latency of AO2P is a little higher than ALARM".
* The destination, being on the S→proxy line and closer to the proxy
  than the current holder's other neighbors, naturally wins contention
  when in range; we deliver when the destination is selected or when
  it overhears as a direct neighbor of the holder.
"""

from __future__ import annotations

from functools import partial

from repro.geometry.primitives import Point
from repro.net.neighbor_table import NeighborEntry
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.routing.gpsr import GpsrHeader, GpsrProtocol


class Ao2pProtocol(GpsrProtocol):
    """The AO2P comparison protocol."""

    name = "AO2P"
    # §5 describes AO2P's proxy and contention phase but gives none of
    # these values.
    #: Maximum hops per packet.
    ttl = 12
    #: How far beyond the destination, along the S→D ray, the proxy
    #: position is placed, metres.
    proxy_extension_m = 200.0
    #: Number of distance classes in the contention phase.
    contention_classes = 4
    #: Per-class contention slot, seconds; the expected per-hop
    #: contention delay is ``(classes / 2) · slot``.
    contention_slot_s = 0.002

    def __init__(self, network, location, metrics=None, cost_model=None) -> None:
        super().__init__(network, location, metrics, cost_model)
        self._rng = self.engine.rng.stream("ao2p")

    # ------------------------------------------------------------------
    def _proxy_position(self, src_pos: Point, dst_pos: Point) -> Point:
        """The anonymised destination: beyond D on the S→D ray."""
        d = src_pos.distance_to(dst_pos)
        extension = d + self.proxy_extension_m
        proxy = src_pos.toward(dst_pos, extension)
        return self.network.field.clamp(proxy)

    def _contention_delay(self, n_candidates: int) -> float:
        """Receiver contention delay for one hop.

        Candidates are classified into distance classes; the winner's
        class index drives how many slots elapse.  More candidates →
        later expected winning slot (bounded by the class count).
        """
        if n_candidates <= 0:
            return self.contention_slot_s
        occupied = min(self.contention_classes, n_candidates)
        slot = 1 + int(self._rng.integers(0, occupied))
        return slot * self.contention_slot_s

    # ------------------------------------------------------------------
    def _initiate(self, packet: Packet) -> None:
        record = self.lookup_destination(packet.src, packet.dst)
        src_pos = self.network.nodes[packet.src].position(self.engine.now)
        # The header carries the proxy, never D's position.
        packet.header = GpsrHeader(
            target=self._proxy_position(src_pos, record.position),
            dst_addr=packet.dst,
            ttl=self.ttl,
        )
        node = self.network.nodes[packet.src]
        packet.record_visit(node.id)
        delay = self.cost.pubkey_encrypt()
        self._after_crypto(delay, lambda: self._forward(node, packet))

    def _dispatch(self, node: Node, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or not isinstance(
            packet.header, GpsrHeader
        ):
            return
        packet.header.retries = 0
        # Hop-by-hop encryption: the new holder re-encrypts for its
        # next hop (one public-key operation per hop).
        delay = self.cost.pubkey_encrypt()
        self._after_crypto(delay, lambda: self._forward(node, packet))

    def _direct_hand_off(
        self, direct: NeighborEntry, self_pos: Point, target: Point
    ) -> bool:
        # The destination contends like any neighbor and, lying on the
        # path toward the proxy, wins whenever it makes progress toward
        # the proxy; otherwise it still receives at a local maximum.
        own = self_pos.sq_distance_to(target)
        return direct.position.sq_distance_to(target) < own

    def _unicast(
        self, node: Node, choice: NeighborEntry, packet: Packet
    ) -> None:
        """Hand over after the contention phase among the holder's
        neighbors."""
        contention = self._contention_delay(
            len(node.neighbors.live_entries(self.engine.now))
        )
        self.engine.schedule_in(
            contention, partial(super()._unicast, node, choice, packet)
        )
