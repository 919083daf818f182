"""The ALERT routing protocol (paper §2).

Per-packet lifecycle:

1. **Source** — establishes (or reuses) a session with the destination:
   resolves D's position and public key through the location service,
   derives the destination zone ``Z_D`` (§2.4), generates a symmetric
   session key wrapped under D's public key, encrypts its own H-th
   partitioned source zone ``Z_S`` under D's public key (the return
   address of §2.5), and symmetrically encrypts the payload.  With
   "notify and go" enabled, the real send is deferred by a random
   back-off while neighbors emit cover traffic (§2.6).
2. **Random forwarders** — each RF partitions the field (alternating
   directions, starting from the packet's direction bit) until it is
   separated from ``Z_D``, draws a random temporary destination in the
   half containing ``Z_D``, and GPSR-greedy-routes toward it; the relay
   that finds no neighbor closer to the TD is the next RF (§2.3).
3. **Destination zone** — the first receiver inside ``Z_D`` broadcasts
   to the zone (k-anonymity), or, with the intersection defense on,
   multicasts to ``m`` holders who release the packet on the next
   packet's arrival (§3.3).
4. **Destination** — recognises its pseudonym, unwraps the session key
   (once), undoes bitmap scrambling, decrypts, optionally confirms with
   an RREP routed back to ``Z_S``, and NAKs sequence gaps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import AlertConfig
from repro.core.intersection_defense import (
    HolderState,
    scramble_payload,
    unscramble_payload,
)
from repro.core.notify_and_go import NotifyAndGo
from repro.core.packet_format import (
    AlertHeader,
    AlertPacketType,
    header_wire_size,
)
from repro.core.zones import (
    Direction,
    destination_zone,
    required_partitions,
    separate_from_zone,
)
from repro.crypto.cipher import IntegrityError, PublicKeyCipher, SymmetricCipher
from repro.crypto.keys import SymmetricKey
from repro.geometry.primitives import Point, Rect
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.routing.base import RoutingProtocol
from repro.routing.gpsr import next_hop_greedy_batched
from repro.sim.process import Timer

# Values the paper fixes rather than evaluates.  Each is read at use
# time, so a test can monkeypatch it.

#: Direction of the canonical first split that computes ``Z_D`` and
#: ``Z_S`` (§2.4 splits vertically first).
FIRST_DIRECTION = Direction.VERTICAL
#: Hop budget of each GPSR segment between two random forwarders: the
#: paper's GPSR TTL "set to 10" (§5).
SEGMENT_TTL = 10
#: Safety bound on partition rounds per packet.  The paper needs at
#: most ``H`` rounds (H ≤ 6 in Figs. 9–11); voids can force a
#: forwarder to re-partition, so this leaves room above ``H``.
MAX_RF_ROUNDS = 12
#: Source resend timer, seconds, for the §2.5 confirmation (the paper
#: names the resend but gives no timer value).
CONFIRMATION_TIMEOUT = 1.0
#: Resend attempts per unconfirmed packet before giving up (§2.5).
MAX_RESENDS = 2


def _rect_to_bytes(r: Rect) -> bytes:
    import struct

    return struct.pack(">dddd", r.x0, r.y0, r.x1, r.y1)


def _rect_from_bytes(blob: bytes) -> Rect:
    import struct

    x0, y0, x1, y1 = struct.unpack(">dddd", blob)
    return Rect(x0, y0, x1, y1)


@dataclass
class SessionState:
    """Source-side state of one S→D transmission session."""

    session_id: int
    src: int
    dst: int
    key: SymmetricKey
    wrapped_key: bytes
    zone_src_enc: bytes
    zd: Rect
    dest_position: Point
    dest_public: object
    seq: int = 0
    #: sha256 of sent plaintexts not yet delivered, for end-to-end
    #: integrity verification
    sent_digests: dict[int, bytes] = field(default_factory=dict)
    #: metrics flow id per sequence number (confirmation-timeout
    #: feedback); filled only with ``enable_confirmation``
    flow_ids: dict[int, int] = field(default_factory=dict)
    #: retained ciphertexts for resend/NAK recovery; filled only with
    #: ``enable_confirmation``
    retained: dict[int, bytes] = field(default_factory=dict)
    confirm_timers: dict[int, Timer] = field(default_factory=dict)
    resends: dict[int, int] = field(default_factory=dict)


class AlertProtocol(RoutingProtocol):
    """ALERT attached to a network (see module docstring)."""

    name = "ALERT"

    def __init__(
        self,
        network,
        location,
        metrics=None,
        cost_model=None,
        config: AlertConfig | None = None,
    ) -> None:
        super().__init__(network, location, metrics, cost_model)
        self.config = config if config is not None else AlertConfig()
        self.h = (
            self.config.h_override
            if self.config.h_override is not None
            else required_partitions(network.n_nodes, self.config.k)
        )
        self._rng = self.engine.rng.stream("alert")
        self._sessions: dict[tuple[int, int], SessionState] = {}
        self._next_session = 1
        #: destination-side unwrapped session keys, by session id
        self._dest_keys: dict[int, SymmetricKey] = {}
        #: destination-side highest seq seen per session (NAK detection)
        self._dest_seq: dict[int, int] = {}
        #: recipient-side (session, seq, ptype value) already processed
        self._dest_received: set[tuple] = set()
        #: intersection-defense holder state per session
        self._holders: dict[int, HolderState] = {}
        #: optional hook: (time, observable zone recipient ids) per
        #: zone delivery — consumed by the intersection-attack harness.
        #: The observable set is the *addressed* recipients (the m-set
        #: under the defense; all in-range zone members without it).
        self.zone_delivery_observer = None
        self.notify = NotifyAndGo(network, self._rng, self.cost, self.metrics)

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def _get_session(self, src: int, dst: int) -> SessionState:
        sess = self._sessions.get((src, dst))
        if sess is not None:
            return sess
        record = self.lookup_destination(src, dst)
        key = SymmetricKey.generate(self._rng)
        dest_cipher = PublicKeyCipher.for_encryption(record.public_key)
        wrapped = dest_cipher.encrypt(key.material)
        self.cost.pubkey_encrypt()

        bounds = self.network.field.bounds
        src_pos = self.network.nodes[src].position(self.engine.now)
        zone_src = destination_zone(bounds, src_pos, self.h, FIRST_DIRECTION)
        zone_src_bytes = _rect_to_bytes(zone_src)
        zone_src_enc = dest_cipher.encrypt(zone_src_bytes)
        self.cost.pubkey_encrypt()

        zd = destination_zone(bounds, record.position, self.h, FIRST_DIRECTION)
        sess = SessionState(
            session_id=self._next_session,
            src=src,
            dst=dst,
            key=key,
            wrapped_key=wrapped,
            zone_src_enc=zone_src_enc,
            zd=zd,
            dest_position=record.position,
            dest_public=record.public_key,
        )
        self._next_session += 1
        self._sessions[(src, dst)] = sess
        return sess

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------
    def _initiate(self, packet: Packet) -> None:
        sess = self._get_session(packet.src, packet.dst)
        if self.location.updates_enabled:
            record = self.lookup_destination(packet.src, packet.dst)
            sess.dest_position = record.position
            sess.zd = destination_zone(
                self.network.field.bounds, record.position, self.h, FIRST_DIRECTION
            )

        seq = sess.seq
        sess.seq += 1
        data_size = packet.size_bytes
        # .astype/.tobytes consumes the stream exactly like the former
        # per-byte int() loop (same integers() call), without the loop.
        plaintext = (
            self._rng.integers(0, 256, size=data_size)
            .astype(np.uint8)
            .tobytes()
        )
        sess.sent_digests[seq] = hashlib.sha256(plaintext).digest()
        nonce = seq.to_bytes(8, "big")
        ciphertext = SymmetricCipher(sess.key).encrypt(plaintext, nonce)
        confirm = self.config.enable_confirmation
        if confirm:
            # Only ``_resend`` reads these, and only confirmation arms it.
            if packet.flow_id is not None:
                sess.flow_ids[seq] = packet.flow_id
            sess.retained[seq] = ciphertext

        delay = self.cost.symmetric_encrypt()

        header = self._rreq_header(sess, seq)
        packet.header = header
        packet.payload = ciphertext
        packet.size_bytes = header_wire_size(header, len(ciphertext))

        source = self.network.nodes[packet.src]
        if confirm:
            self._arm_confirmation(sess, seq)

        def start() -> None:
            self._continue_from(source, packet)

        if self.config.notify_and_go:
            self._after_crypto(delay, lambda: self.notify.run(source, start))
        else:
            self._after_crypto(delay, start)

    def _rreq_header(self, sess: SessionState, seq: int) -> AlertHeader:
        """A fresh RREQ header for ``seq`` of ``sess``, pseudonyms as of
        now."""
        now = self.engine.now
        return AlertHeader(
            ptype=AlertPacketType.RREQ,
            p_src=self.network.nodes[sess.src].pseudonym_at(now),
            p_dst=self.network.nodes[sess.dst].pseudonym_at(now),
            zone_dst=sess.zd,
            zone_src_enc=sess.zone_src_enc,
            td=None,
            h=0,
            h_max=self.h,
            direction=FIRST_DIRECTION,
            wrapped_key=sess.wrapped_key,
            session=sess.session_id,
            seq=seq,
            ttl=SEGMENT_TTL,
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, node: Node, packet: Packet) -> None:
        if packet.kind is PacketKind.COVER:
            self.notify.handle_cover(node, packet)
            return
        if not isinstance(packet.header, AlertHeader):
            return
        self._on_packet(node, packet)

    def _on_packet(self, node: Node, packet: Packet) -> None:
        hdr: AlertHeader = packet.header
        # Dedup key: a node may handle the same packet again in a later
        # RF round / with a different TD (routes legitimately revisit
        # nodes after re-partitioning), but never twice for the same
        # (stage, round, TD) — that would be a genuine loop or a
        # duplicate broadcast fork.  The set lives in the header and is
        # shared by every copy of this packet, so session, seq and type
        # need not enter the key, and it dies with the last copy.
        td = hdr.td
        key = (
            node.id,
            hdr.zone_stage,
            hdr.rf_rounds,
            (round(td.x, 6), round(td.y, 6)) if td is not None else None,
        )
        seen = hdr.seen
        before = len(seen)
        seen.add(key)
        if len(seen) == before:  # single hash for the probe + insert
            return
        hdr.retries = 0  # fresh hop, fresh link-retry budget

        now = self.engine.now
        pos = node.position(now)
        in_zone = hdr.zone_dst.contains(pos)

        if self._is_final_recipient(node, packet):
            self._deliver_at_recipient(node, packet)
            # Inside Z_D the destination keeps behaving like any other
            # zone member (forwarding toward the zone center, holding,
            # re-broadcasting) — terminating the delivery chain early
            # would make D observably different from its cover set.
            # Outside the zone (overheard en route) it just listens.
            if not in_zone:
                return

        if in_zone:
            self._zone_phase(node, packet)
        elif hdr.zone_stage == 0:
            self._segment_forward(node, packet)
        # Out-of-zone receivers of a zone broadcast drop the packet:
        # only the destination (handled above) may react to it.

    # ------------------------------------------------------------------
    # RF / segment machinery
    # ------------------------------------------------------------------
    def _continue_from(self, node: Node, packet: Packet) -> None:
        """Entry point at the source (or a responder) after crypto."""
        hdr: AlertHeader = packet.header
        pos = node.position(self.engine.now)
        self._mark_participant(packet, node.id)
        if hdr.zone_dst.contains(pos):
            self._zone_phase(node, packet)
        else:
            self._rf_partition(node, packet)

    def _rf_partition(self, node: Node, packet: Packet) -> None:
        """This node acts as a random forwarder: partition, pick a TD."""
        hdr: AlertHeader = packet.header
        pos = node.position(self.engine.now)

        if hdr.rf_rounds >= MAX_RF_ROUNDS:
            # Void-induced stall: make one last GPSR run straight at
            # the zone (still only zone-granular information).
            if hdr.fallback:
                self._dropped(packet, "rf-rounds-exhausted")
                return
            hdr.fallback = True
            hdr.td = hdr.zone_dst.center
            hdr.ttl = SEGMENT_TTL
            hdr.retries = 0
            self._segment_forward(node, packet)
            return

        try:
            result = separate_from_zone(
                self.network.field.bounds, pos, hdr.zone_dst, hdr.direction
            )
        except ValueError:
            # Numerically on the zone border: treat as in-zone.
            self._zone_phase(node, packet)
            return

        hdr.h += result.partitions
        hdr.direction = result.next_direction
        hdr.rf_rounds += 1
        hdr.td = result.next_zone.random_point(self._rng)
        hdr.ttl = SEGMENT_TTL
        hdr.retries = 0
        if packet.flow_id is not None:
            self.metrics.record_partitions(packet.flow_id, result.partitions)
        self._segment_forward(node, packet)

    def _segment_forward(self, node: Node, packet: Packet) -> None:
        """One greedy GPSR step toward the current temporary destination."""
        hdr: AlertHeader = packet.header
        if hdr.td is None:
            self._rf_partition(node, packet)
            return
        now = self.engine.now
        pos = node.position(now)
        choice = next_hop_greedy_batched(pos, hdr.td, node.neighbors, now)

        if choice is None:
            if hdr.fallback:
                self._dropped(packet, "void-no-progress")
                return
            # No neighbor closer to the TD: this node is the next RF.
            if packet.flow_id is not None:
                self.metrics.record_rf(packet.flow_id, node.id)
            self._rf_partition(node, packet)
            return

        if hdr.ttl <= 0:
            # Segment budget exhausted: promote to RF where we stand.
            if packet.flow_id is not None:
                self.metrics.record_rf(packet.flow_id, node.id)
            self._rf_partition(node, packet)
            return

        hdr.ttl -= 1
        self._mark_participant(packet, node.id)
        self.network.unicast(
            node.id,
            choice.link_address,
            packet,
            on_failed=lambda reason, c=choice: self._on_link_failure(
                node, c, packet, reason
            ),
            flow=packet.flow_id,
            overhear=self._overhear_listener(packet),
        )

    def _overhear_listener(self, packet: Packet) -> int | None:
        """Promiscuous destination reception (see AlertConfig).

        A unicast frame is physically audible to every node in range of
        the transmitter; the destination recognises its cleartext
        pseudonym ``P_D`` and accepts the packet.  The true-id handle
        below is the simulator's stand-in for that radio truth — the
        protocol never routes on it.
        """
        if not self.config.promiscuous_destination or packet.dst < 0:
            return None
        return packet.dst

    def _on_link_failure(self, node: Node, choice, packet: Packet, reason: str) -> None:
        """Retry from the same node under the shared hop-retry rule."""
        if self._retry_hop(node, choice, packet, reason):
            self._segment_forward(node, packet)

    # ------------------------------------------------------------------
    # destination-zone phase
    # ------------------------------------------------------------------
    def _zone_phase(self, node: Node, packet: Packet) -> None:
        hdr: AlertHeader = packet.header
        if hdr.zone_stage == 0:
            if self.config.intersection_defense and hdr.ptype is AlertPacketType.RREQ:
                self._zone_multicast_defended(node, packet)
            else:
                self._zone_broadcast(node, packet)
        elif hdr.zone_stage == 1 and not self.config.intersection_defense:
            self._maybe_rebroadcast(node, packet)
        # stage 2 (rebroadcasts / holder releases) terminates here.

    def _zone_broadcast(self, node: Node, packet: Packet) -> None:
        """Plain §2.3 delivery: broadcast to the k nodes of Z_D.

        If this node's radio disk does not cover the whole zone (it
        typically entered at an edge), it first relays greedily toward
        the zone center — still ordinary in-zone forwarding — until one
        broadcast reaches every member.
        """
        hdr: AlertHeader = packet.header
        now = self.engine.now
        pos = node.position(now)
        rng_m = self.network.radio.range_m
        covers = all(
            pos.distance_to(c) <= rng_m for c in hdr.zone_dst.corners()
        )
        if not covers:
            center = hdr.zone_dst.center
            choice = next_hop_greedy_batched(
                pos, center, node.neighbors, now
            )
            if choice is not None and hdr.zone_dst.contains(choice.position):
                hdr.td = center
                self._mark_participant(packet, node.id)
                self.network.unicast(
                    node.id,
                    choice.link_address,
                    packet,
                    on_failed=lambda reason, c=choice: self._on_link_failure(
                        node, c, packet, reason
                    ),
                    flow=packet.flow_id,
                )
                return
        hdr.zone_stage = 1
        self._mark_participant(packet, node.id)
        members = self.network.nodes_in_rect(hdr.zone_dst)
        self.metrics.note("zone_population", len(members))
        self.metrics.note("zone_broadcasts")
        receivers = self.network.local_broadcast(
            node.id, packet, flow=packet.flow_id
        )
        if (
            self.zone_delivery_observer is not None
            and hdr.ptype is AlertPacketType.RREQ
        ):
            member_set = set(members)
            # The transmitting node visibly holds the packet too.
            observable = [node.id] + [r for r in receivers if r in member_set]
            self.zone_delivery_observer(self.engine.now, observable)

    def _maybe_rebroadcast(self, node: Node, packet: Packet) -> None:
        """Second-hop zone coverage: the member nearest the zone center
        rebroadcasts once (local decision from its own neighbor table)."""
        if not self.config.zone_flood:
            return
        hdr: AlertHeader = packet.header
        now = self.engine.now
        pos = node.position(now)
        center = hdr.zone_dst.center
        threshold = pos.sq_distance_to(center) - 1e-9
        contains = hdr.zone_dst.contains
        for e in node.neighbors.live_entries(now):
            ep = e.position
            if contains(ep) and ep.sq_distance_to(center) < threshold:
                return  # someone more central will do it
        # This node's branch ends here, so it goes out as the rebroadcast.
        hdr.zone_stage = 2
        self._mark_participant(packet, node.id)
        self.metrics.note("zone_rebroadcasts")
        self.network.local_broadcast(node.id, packet, flow=packet.flow_id)

    def _zone_multicast_defended(self, node: Node, packet: Packet) -> None:
        """§3.3 two-step delivery (intersection-attack defense)."""
        hdr: AlertHeader = packet.header
        self._mark_participant(packet, node.id)
        state = self._holders.setdefault(hdr.session, HolderState())
        dest_public = self._session_by_id(hdr.session).dest_public

        # Step 2 for the *previous* packet: holders release it now.
        # Releases are prepared (scramble draws come from the protocol
        # stream) and then broadcast one holder after another — RNG
        # streams are per-subsystem, so sending after all scramble draws
        # rather than between them leaves every stream's draws unchanged.
        releases: list[tuple[int, Packet, int | None]] = []
        # Each holder sends its own held copy: ``state.holders`` is
        # cleared below, so no one else keeps it.
        for holder_id, held in state.holders:
            release: Packet = held  # type: ignore[assignment]
            rhdr: AlertHeader = release.header
            rhdr.zone_stage = 2
            # Fresh scramble so the release is not byte-identical to
            # the original multicast.
            scrambled, bitmap = scramble_payload(
                release.payload, dest_public, self._rng
            )
            self.cost.pubkey_encrypt()
            release.payload = scrambled
            rhdr.bitmap_chain.append(bitmap)
            self.metrics.note("defense_releases")
            releases.append((holder_id, release, release.flow_id))
        if releases:
            self.network.broadcast_fanout(releases)
        state.holders = []

        # Step 1 for *this* packet: scramble and multicast to m members.
        members = [
            nid
            for nid in self.network.nodes_in_rect(hdr.zone_dst)
            if nid != node.id
        ]
        if not members:
            # Degenerate zone: fall back to plain broadcast.
            self._zone_broadcast(node, packet)
            return
        m = min(self.config.multicast_m, len(members))
        chosen = [
            int(i) for i in self._rng.choice(members, size=m, replace=False)
        ]
        scrambled, bitmap = scramble_payload(
            packet.payload, dest_public, self._rng
        )
        self.cost.pubkey_encrypt()
        packet.payload = scrambled
        hdr.bitmap_chain.append(bitmap)
        hdr.zone_stage = 1
        state.held_seq = hdr.seq
        self.metrics.note("defense_multicasts")
        self.metrics.note("defense_recipients", m)
        receivers = self.network.local_broadcast(
            node.id, packet, flow=packet.flow_id, restrict_to=chosen
        )
        if self.zone_delivery_observer is not None:
            # The multicasting RF plus its addressed recipients.
            self.zone_delivery_observer(
                self.engine.now, [node.id] + list(receivers)
            )
        # Receivers become holders of this packet.
        state.holders = [
            (rid, packet.fork()) for rid in receivers
        ]

    def _session_by_id(self, session_id: int) -> SessionState:
        """The session with ``session_id`` (any side)."""
        for sess in self._sessions.values():
            if sess.session_id == session_id:
                return sess
        raise KeyError(f"unknown session {session_id}")

    # ------------------------------------------------------------------
    # recipient side
    # ------------------------------------------------------------------
    def _is_final_recipient(self, node: Node, packet: Packet) -> bool:
        hdr: AlertHeader = packet.header
        return node.id == packet.dst and node.pseudonyms.was_ours(hdr.p_dst)

    def _deliver_at_recipient(self, node: Node, packet: Packet) -> None:
        hdr: AlertHeader = packet.header
        # The recipient hears most packets several times (zone
        # broadcast, rebroadcast, overhearing); process each
        # (session, seq, type) once and discard duplicates, so one
        # NAK makes one resend and one RREP one confirmation.  The
        # type enters as its value: 1:1 with the member, and its str
        # hash is cached on the singleton, unlike Enum.__hash__ (pure
        # Python, re-run per lookup).  ``_value_`` skips the
        # DynamicClassAttribute descriptor.
        dedup = (hdr.session, hdr.seq, hdr.ptype._value_)
        if dedup in self._dest_received:
            return
        self._dest_received.add(dedup)
        if hdr.ptype is AlertPacketType.RREQ:
            self._deliver_data(node, packet)
        elif hdr.ptype is AlertPacketType.RREP:
            self._on_confirmation(hdr)
        elif hdr.ptype is AlertPacketType.NAK:
            self._on_nak(hdr)

    def _deliver_data(self, node: Node, packet: Packet) -> None:
        hdr: AlertHeader = packet.header
        key = self._dest_keys.get(hdr.session)
        if key is None and hdr.wrapped_key:
            material = PublicKeyCipher.for_owner(node.keypair).decrypt(
                hdr.wrapped_key
            )
            self.cost.pubkey_decrypt()
            key = SymmetricKey(material)
            self._dest_keys[hdr.session] = key

        payload = packet.payload
        if hdr.bitmap_chain:
            for blob in reversed(hdr.bitmap_chain):
                payload = unscramble_payload(payload, blob, node.keypair)
                self.cost.pubkey_decrypt()
        if key is not None:
            try:
                plaintext = SymmetricCipher(key).decrypt(payload)
                self.cost.symmetric_decrypt()
                sess = self._sessions.get((packet.src, packet.dst))
                if sess is not None:
                    # Read once: ``_dest_received`` lets each seq
                    # through here at most once.
                    digest = sess.sent_digests.pop(hdr.seq, None)
                    if digest == hashlib.sha256(plaintext).digest():
                        self.metrics.note("payload_verified")
                    else:
                        self.metrics.note("payload_mismatch")
            except IntegrityError:
                self.metrics.note("payload_decrypt_failures")
        self._delivered(packet)

        # Sequence-gap detection → NAK (reliability machinery).
        if self.config.enable_confirmation:
            last = self._dest_seq.get(hdr.session, -1)
            if hdr.seq > last + 1:
                for missing in range(last + 1, hdr.seq):
                    self._send_control(
                        node, packet, AlertPacketType.NAK, missing
                    )
            self._dest_seq[hdr.session] = max(last, hdr.seq)
            self._send_control(node, packet, AlertPacketType.RREP, hdr.seq)

    # ------------------------------------------------------------------
    # reliability: confirmation / NAK / resend
    # ------------------------------------------------------------------
    def _arm_confirmation(self, sess: SessionState, seq: int) -> None:
        timer = Timer(self.engine, lambda: self._resend(sess, seq))
        timer.start(CONFIRMATION_TIMEOUT)
        sess.confirm_timers[seq] = timer

    def _resend(self, sess: SessionState, seq: int) -> None:
        # The confirmation window closed (or a NAK arrived) without an
        # RREP for this seq — the closed-loop timeout signal.  Reported
        # before the resend-budget check so a given-up packet still
        # feeds back.
        self._report_timeout(sess.flow_ids.get(seq))
        count = sess.resends.get(seq, 0)
        if count >= MAX_RESENDS:
            self.metrics.note("resend_given_up")
            return
        sess.resends[seq] = count + 1
        ciphertext = sess.retained.get(seq)
        if ciphertext is None:
            return
        self.metrics.note("resends")
        packet = Packet(
            kind=PacketKind.DATA,
            src=sess.src,
            dst=sess.dst,
            size_bytes=0,
            flow_id=None,  # retransmission; original flow keeps its record
            payload=ciphertext,
        )
        header = self._rreq_header(sess, seq)
        packet.header = header
        packet.size_bytes = header_wire_size(header, len(ciphertext))
        self._arm_confirmation(sess, seq)
        self._continue_from(self.network.nodes[sess.src], packet)

    def _send_control(
        self, node: Node, data_packet: Packet, ptype: AlertPacketType, seq: int
    ) -> None:
        """Send an RREP/NAK back toward the source zone Z_S."""
        hdr: AlertHeader = data_packet.header
        try:
            zone_src = _rect_from_bytes(
                PublicKeyCipher.for_owner(node.keypair).decrypt(hdr.zone_src_enc)
            )
            self.cost.pubkey_decrypt()
        except Exception:
            self.metrics.note("control_zone_decode_failures")
            return
        control = Packet(
            kind=PacketKind.DATA if ptype is AlertPacketType.RREP else PacketKind.NAK,
            src=node.id,
            dst=data_packet.src,
            size_bytes=128,
        )
        control.header = AlertHeader(
            ptype=ptype,
            p_src=node.pseudonym_at(self.engine.now),
            p_dst=hdr.p_src,
            zone_dst=zone_src,
            zone_src_enc=b"",
            td=None,
            h=0,
            h_max=self.h,
            direction=FIRST_DIRECTION,
            session=hdr.session,
            seq=seq,
            ttl=SEGMENT_TTL,
        )
        self.metrics.note("rrep_sent" if ptype is AlertPacketType.RREP else "nak_sent")
        self._continue_from(node, control)

    def _on_confirmation(self, hdr: AlertHeader) -> None:
        """Source received an RREP: cancel the resend timer."""
        sess = self._session_by_id(hdr.session)
        timer = sess.confirm_timers.pop(hdr.seq, None)
        if timer is not None:
            timer.cancel()
        self.metrics.note("rrep_received")

    def _on_nak(self, hdr: AlertHeader) -> None:
        """Source received a NAK: resend the missing sequence number."""
        self.metrics.note("nak_received")
        self._resend(self._session_by_id(hdr.session), hdr.seq)
