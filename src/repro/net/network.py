"""The Network container: nodes + radio + MAC + event engine.

``Network`` is the simulation's link layer.  It owns the node array,
maintains time-indexed position snapshots (with a uniform-grid spatial
index), tracks concurrent in-flight transmissions for MAC contention,
and exposes exactly two communication primitives to protocols:

* :meth:`unicast` — an acknowledged one-hop frame exchange, and
* :meth:`local_broadcast` — an unacknowledged one-hop broadcast,

plus hello-beacon neighbor discovery.  Everything above (GPSR, ALERT,
ALARM, AO2P) is built from these.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Sequence

import numpy as np

from repro.crypto.keys import generate_keypair
from repro.geometry.field import Field
from repro.geometry.primitives import Point, Rect
from repro.geometry.spatial_index import GridIndex
from repro.mobility.base import MobilityModel, SnapshotInterpolator
from repro.net.mac import Mac80211Dcf, MacOutcome
from repro.net.neighbor_table import HelloLog, HelloRound
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.radio import RadioModel
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask

#: Called after every link-layer exchange: (flow_id, attempts, success).
TxListener = Callable[[int | None, int, bool], None]

# Simulator settings the paper leaves open.  Each is read where it is
# used, so a test can monkeypatch it (before building a network, for
# the two that construction reads).

#: Maximum staleness of the cached position snapshot, seconds.  At the
#: paper's top speed (8 m/s, Fig. 14b) 0.2 s bounds the position error
#: to 1.6 m, negligible against the 250 m radius (§5).
SNAPSHOT_RESOLUTION = 0.2
#: RSA modulus width of node keypairs.  The keys are functional toys;
#: the crypto cost model charges the cost of the paper's real keys.
KEYPAIR_BITS = 64
#: Carrier-sense radius as a multiple of the transmission range
#: (802.11's ~2.2×) for the MAC's contention-load count.
CARRIER_SENSE_FACTOR = 2.2
#: Hello-beacon period, seconds.  The paper has nodes beacon
#: "periodically" (§2.2) without a period; a neighbor-table row lives
#: three periods (``NeighborTable.ttl``).  Read by :meth:`start_hello`.
HELLO_INTERVAL = 1.0


def _event_category(packet: Packet) -> str:
    """Engine event-counter category for a frame delivery."""
    return "data" if packet.kind is PacketKind.DATA else "control"


class Network:
    """A MANET instance.

    Parameters
    ----------
    engine:
        The discrete-event engine driving this network.
    field:
        Deployment area.
    mobility_factory:
        ``(node_id, rng) -> MobilityModel`` builder, called once per
        node with a per-node random stream.
    n_nodes:
        Number of nodes.

    The radio is a :class:`RadioModel` (250 m unit disk);
    ``SNAPSHOT_RESOLUTION``, ``KEYPAIR_BITS``, ``CARRIER_SENSE_FACTOR``
    and ``HELLO_INTERVAL`` are module constants.
    """

    def __init__(
        self,
        engine: Engine,
        field: Field,
        mobility_factory: Callable[[int, np.random.Generator], MobilityModel],
        n_nodes: int,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.engine = engine
        self.field = field
        self.radio = RadioModel()
        self.cs_range = CARRIER_SENSE_FACTOR * self.radio.range_m
        self.mac = Mac80211Dcf(self.radio, engine.rng.stream("mac"))

        # The "keys" stream is private to key generation, so drawing
        # every keypair up front leaves the per-node streams untouched.
        keypairs = generate_keypair(
            engine.rng.stream("keys"), bits=KEYPAIR_BITS, size=n_nodes
        )
        #: the hello rounds of the last ``NeighborTable.ttl`` seconds,
        #: from which every node's neighbor table pulls its rows
        self.hello_rounds = HelloLog()
        self.nodes: list[Node] = []
        for i, keypair in enumerate(keypairs):
            node_rng = engine.rng.stream(f"node-{i}")
            mobility = mobility_factory(i, node_rng)
            self.nodes.append(
                Node(i, mobility, keypair, node_rng, self.hello_rounds)
            )

        # Position snapshot cache.  ``_snapshot_positions`` is always
        # the array the grid index was built over; ``_snapshot_scratch``
        # is a second (N, 2) buffer the next refresh interpolates into,
        # so old and new positions can be diffed without allocating.
        self._snapshot_time: float = -1.0
        # Per-node long-term public keys (keypairs never rotate) and one
        # int object per node id, for the rows built from hello rounds:
        # rows and table keys share these instead of holding new ints.
        self._publics = [kp.public for kp in keypairs]
        self._ids = list(range(n_nodes))
        self._snapshot_positions: np.ndarray | None = None
        self._snapshot_scratch: np.ndarray | None = None
        self._snapshot_index: GridIndex | None = None
        self._mobilities = [node.mobility for node in self.nodes]
        # Segment-cached batch interpolator: bit-identical to per-node
        # position() calls but only consults models whose trajectory
        # leg expired since the previous refresh.
        self._interpolator = SnapshotInterpolator(self._mobilities)
        #: snapshot maintenance counters (diagnostics / benchmarks)
        self.snapshot_rebuilds = 0
        self.snapshot_incremental = 0

        # Active-node mask, invalidated by node fail()/restore() hooks
        # so neighbor queries need not re-check every hit's flag.
        self._active_mask: np.ndarray | None = None
        # Reused all-population buffer for hello-round interpolation.
        self._hello_pos_buf: np.ndarray | None = None
        for node in self.nodes:
            node.on_state_change = self._on_node_state_change

        # In-flight transmissions for contention, kept as a min-heap on
        # end time: (end_time, x, y).  Expired entries pop off the
        # front instead of rebuilding the list on every load query.
        self._in_flight: list[tuple[float, float, float]] = []

        #: pluggable metrics sink
        self.tx_listener: TxListener | None = None
        self._hello_tasks: list[PeriodicTask] = []
        #: counters
        self.hello_tx = 0
        self.unicast_tx = 0
        self.broadcast_tx = 0
        #: cumulative radio airtime (seconds) for energy accounting
        self.airtime_tx_s = 0.0
        self.airtime_rx_s = 0.0
        #: size of a hello beacon frame on the air, bytes
        self.hello_size_bytes = 32

    # ------------------------------------------------------------------
    # positions and snapshots
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self.nodes)

    def position_of(self, node_id: int) -> Point:
        """Exact position of a node at the current simulation time."""
        return self.nodes[node_id].position(self.engine.now)

    def batch_positions(
        self, t: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """All-population positions at ``t`` via the cached interpolator.

        Bit-identical to per-node ``position(t)`` calls, but only
        models whose cached trajectory leg expired are consulted in
        Python — the interpolation itself is a handful of whole-array
        operations.  Shared by the snapshot path, hello
        rounds, and location-service write rounds.
        """
        return self._interpolator(t, out=out)

    def snapshot(self) -> tuple[np.ndarray, GridIndex]:
        """Cached (positions, spatial index) at the current time.

        Refreshed when the cache is ``SNAPSHOT_RESOLUTION`` seconds old
        or older (so ``SNAPSHOT_RESOLUTION = 0.0`` means "always fresh").
        The first call builds the index; every refresh after it hands
        the newly interpolated positions to
        :meth:`GridIndex.adopt_positions`, which rebuckets only nodes
        that crossed a cell boundary.  The index holds every node
        whatever its state (readers filter by :meth:`active_mask`), so
        a node failing or recovering needs no rebuild.
        """
        now = self.engine.now
        index = self._snapshot_index
        if (
            index is not None
            and now - self._snapshot_time < SNAPSHOT_RESOLUTION
        ):
            assert self._snapshot_positions is not None
            return self._snapshot_positions, index

        # Batch query: one vectorised interpolation over all nodes
        # (node i's mobility fills row i) into the spare buffer, so the
        # cached array (still owned by the index) survives for diffing.
        scratch = self._snapshot_scratch
        if scratch is None:
            scratch = np.empty((self.n_nodes, 2), dtype=np.float64)
        pos = self._interpolator(now, out=scratch)

        if index is None:
            index = self._snapshot_index = GridIndex(pos, self.radio.range_m)
            self.snapshot_rebuilds += 1
        else:
            index.adopt_positions(pos)
            self.snapshot_incremental += 1
        # The index owns ``pos`` now; the previous array (if any)
        # becomes the next refresh's interpolation buffer.
        self._snapshot_scratch = self._snapshot_positions
        self._snapshot_positions = pos
        self._snapshot_time = now
        return pos, index

    def _on_node_state_change(self, _node: Node) -> None:
        self._active_mask = None

    def active_mask(self) -> np.ndarray:
        """Boolean mask of live nodes, cached until a node flips state."""
        if self._active_mask is None:
            self._active_mask = np.fromiter(
                (n.active for n in self.nodes), dtype=bool, count=self.n_nodes
            )
        return self._active_mask

    def neighbors_of(self, node_id: int) -> list[int]:
        """Live node ids within radio range now, excluding ``node_id``.

        The receiver set of every one-hop broadcast: plain ``int`` ids
        in ascending order.
        """
        _, index = self.snapshot()
        p = self.position_of(node_id)
        hits = index.query_radius(p.x, p.y, self.radio.range_m)
        live = hits[self.active_mask()[hits]]
        return live[live != node_id].tolist()

    def nodes_in_rect(self, rect: Rect) -> list[int]:
        """Node ids currently inside ``rect`` (half-open).

        Ground truth from the position snapshot, not from any node's
        neighbour table: ALERT's ``_zone_broadcast`` and
        ``_zone_multicast_defended`` (and ZAP's ``_flood``) call it on
        every zone delivery.
        """
        _, index = self.snapshot()
        return [int(i) for i in index.query_rect(rect.x0, rect.y0, rect.x1, rect.y1)]

    def node_nearest_to(self, point: Point, exclude: int | None = None) -> int:
        """Oracle: id of the node nearest to ``point``."""
        _, index = self.snapshot()
        return index.nearest(point.x, point.y, exclude=exclude)

    # ------------------------------------------------------------------
    # contention load
    # ------------------------------------------------------------------
    def _local_load(self, around: Point) -> float:
        """Concurrent in-flight transmissions within carrier sense."""
        now = self.engine.now
        in_flight = self._in_flight
        # Expired transmissions sit at the heap front; pop them off.
        while in_flight and in_flight[0][0] <= now:
            heapq.heappop(in_flight)
        cs2 = self.cs_range * self.cs_range
        ax = around.x
        ay = around.y
        count = 0
        for _, x, y in in_flight:
            dx = x - ax
            dy = y - ay
            if dx * dx + dy * dy <= cs2:
                count += 1
        return float(count)

    def _register_tx(self, origin: Point, duration: float) -> None:
        heapq.heappush(
            self._in_flight, (self.engine.now + duration, origin.x, origin.y)
        )

    # ------------------------------------------------------------------
    # communication primitives
    # ------------------------------------------------------------------
    def unicast(
        self,
        sender_id: int,
        receiver_id: int,
        packet: Packet,
        on_failed: Callable[[str], None] | None = None,
        flow: int | None = None,
        overhear: int | None = None,
    ) -> None:
        """One-hop acknowledged frame exchange.

        Failure modes: the receiver is out of range (stale neighbor
        table) or the MAC retry limit is exhausted.  Delivery invokes
        the receiver's protocol hook; failure invokes
        ``on_failed(reason)`` after the wasted airtime elapses.

        ``overhear`` optionally names a promiscuous listener: if that
        node is live and in range of the sender when the frame goes on
        the air, it gets a :meth:`~repro.net.packet.Packet.fork` of the
        frame with the same MAC timing as the exchange — radio frames
        are broadcast by nature, ACKed or not.  Only then is the frame
        copied.
        """
        if sender_id == receiver_id:
            raise ValueError("unicast to self")
        sender = self.nodes[sender_id]
        receiver = self.nodes[receiver_id]
        now = self.engine.now
        spos = sender.position(now)
        rpos = receiver.position(now)
        dist = spos.distance_to(rpos)
        packet.record_visit(sender_id)

        airtime = self.radio.tx_time(packet.size_bytes)
        if not receiver.active:
            # Compromised / disabled node: frames go unacknowledged.
            outcome = MacOutcome(False, airtime, 1)
            reason = "dead-receiver"
        elif not self.radio.in_range(dist):
            # One attempt burns airtime with no receiver in range.
            outcome = MacOutcome(False, airtime, 1)
            reason = "out-of-range"
        else:
            outcome = self.mac.unicast(
                packet.size_bytes, dist, self._local_load(spos), flow=flow
            )
            reason = "retry-exhausted"

        sender.tx_count += outcome.attempts
        self.unicast_tx += outcome.attempts
        self.airtime_tx_s += outcome.attempts * airtime
        if outcome.success:
            self.airtime_rx_s += airtime
        self._register_tx(spos, outcome.delay_s)
        if self.tx_listener is not None:
            self.tx_listener(flow, outcome.attempts, outcome.success)

        category = _event_category(packet)
        if outcome.success:
            self.engine.schedule_deliver_batch(
                now + outcome.delay_s, [receiver], [packet], category=category
            )
        elif on_failed is not None:
            self.engine.schedule_in(
                outcome.delay_s, lambda r=reason: on_failed(r),
                category=category, cancellable=False,
            )

        if overhear is not None and overhear not in (sender_id, receiver_id):
            listener = self.nodes[overhear]
            if listener.active and self.radio.in_range(
                spos.distance_to(listener.position(now))
            ):
                self.engine.schedule_deliver_batch(
                    now + outcome.delay_s, [listener], [packet.fork()],
                    category=category,
                )

    def local_broadcast(
        self,
        sender_id: int,
        packet: Packet,
        flow: int | None = None,
        restrict_to: Sequence[int] | None = None,
    ) -> list[int]:
        """One-hop unacknowledged broadcast.

        Every in-range node receives a :meth:`~repro.net.packet.Packet.fork`
        of ``packet`` — its own trace list *and* its own header copy,
        so a receiver mutating per-hop routing state cannot corrupt a
        sibling branch, and all of them ride one batched delivery record.
        A notify-and-go cover (``PacketKind.COVER``) is the exception:
        every receiver makes one failed TTL decrypt and drops it, so all
        receivers share ``packet`` itself — one delivery event each,
        but no fork, and their ids all land on the one shared trace.
        ``restrict_to`` optionally filters the receiver set by node id —
        used by ALERT's destination-zone delivery where only zone members
        process the frame (others drop it at the link layer).

        Returns the list of receiver ids (empty if the frame collided).
        """
        sender = self.nodes[sender_id]
        now = self.engine.now
        spos = sender.position(now)
        packet.record_visit(sender_id)
        outcome = self.mac.broadcast(packet.size_bytes, self._local_load(spos))
        sender.tx_count += outcome.attempts
        self.broadcast_tx += outcome.attempts
        self.airtime_tx_s += self.radio.tx_time(packet.size_bytes)
        self._register_tx(spos, outcome.delay_s)
        if self.tx_listener is not None:
            self.tx_listener(flow, outcome.attempts, outcome.success)
        if not outcome.success:
            return []

        receivers = self.neighbors_of(sender_id)
        self.airtime_rx_s += self.radio.tx_time(packet.size_bytes) * len(receivers)
        if restrict_to is not None:
            allowed = set(restrict_to)
            receivers = [r for r in receivers if r in allowed]

        if receivers:
            nodes = self.nodes
            if packet.kind is PacketKind.COVER:
                branches = [packet] * len(receivers)
            else:
                branches = [packet.fork() for _ in receivers]
            self.engine.schedule_deliver_batch(
                now + outcome.delay_s,
                [nodes[rid] for rid in receivers],
                branches,
                category=_event_category(packet),
            )
        return receivers

    def broadcast_fanout(
        self, txs: Sequence[tuple[int, Packet, int | None]]
    ) -> list[list[int]]:
        """A fan-out of :meth:`local_broadcast` calls at one instant.

        ``txs`` is a sequence of ``(sender_id, packet, flow)`` triples
        sharing the current instant (e.g. ALERT's holder release).  Each
        sender goes on the air in ``txs`` order, so sender *j*'s frame
        is already in flight when a later sender senses the channel.

        Returns one receiver list per transmission, in ``txs`` order.
        """
        return [
            self.local_broadcast(sender_id, packet, flow)
            for sender_id, packet, flow in txs
        ]

    # ------------------------------------------------------------------
    # hello beacons
    # ------------------------------------------------------------------
    def start_hello(self) -> None:
        """Start periodic hello beacons on every node.

        Beacons are processed as one *round* per interval: every node
        emits once and neighbor tables update from a single position
        snapshot.  (Real beacons are jittered within the interval to
        avoid collisions; since hello frames are not contended through
        the MAC model, collapsing a round into one event is
        behaviourally identical and orders of magnitude cheaper — one
        snapshot instead of N per interval.)  A warm-up round at t≈0
        populates the tables so the first data packets can route.
        """
        rng = self.engine.rng.stream("hello")
        offset = float(rng.uniform(0.05, 0.2))
        task = PeriodicTask(
            self.engine,
            HELLO_INTERVAL,
            self._emit_hello_round,
            jitter=0.1 * HELLO_INTERVAL,
            rng=rng,
            start_offset=offset,
            category="hello",
        )
        self._hello_tasks.append(task)

    def _emit_hello_round(self) -> None:
        """One beacon round: every live node advertises to its neighbors.

        The round is recorded, not delivered: a :class:`HelloRound`
        holding the transmitters, what they advertised and, for each
        live node, which transmitters it heard goes into
        :attr:`hello_rounds`.  Each neighbor table pulls its rows from
        there when it is next read or written, and a round builds its
        rows only then (see :mod:`repro.net.neighbor_table`).

        Draws and counters are those of the scalar round (one beacon
        per live node in ascending order, receivers from
        :meth:`neighbors_of`) that the test suite keeps as its
        reference oracle.  The first transmitter's state is built as in
        that sequence (pseudonym fuzz draw, then position/trajectory
        draw, then the round's snapshot refresh — where the scalar
        path's ``neighbors_of`` would refresh it); the remaining
        transmitters' pseudonyms are then drawn in ascending node order
        and their positions come from one vectorised pass — read
        straight off the snapshot when it was interpolated at exactly
        this instant (bit-identical to ``Trajectory.at``, and the
        refresh already extended every trajectory, so the scalar loop
        would have drawn nothing), else batch-interpolated via
        :meth:`batch_positions` over the same models in the same order
        (identical draw sequence).  Per node the stream order is
        pseudonym-then-position, as in the scalar loop; streams are
        per-node (per-group for RPGM, which both passes visit in
        ascending order), so cross-node interleaving is draw-order
        neutral.  Who heard whom is worked out with receivers grouped
        by grid cell (:meth:`GridIndex.grouped_candidates`), each group
        against its candidate transmitters under
        ``GridIndex.query_radius``'s exact arithmetic, so the pairwise
        work scales with local density instead of N²; ``airtime_rx_s``
        counts each transmitter's receivers from the result.
        """
        now = self.engine.now
        nodes = self.nodes
        active = self.active_mask()
        tx_ids = np.flatnonzero(active)
        tx_list = list(map(self._ids.__getitem__, tx_ids.tolist()))
        n_tx = len(tx_list)
        if n_tx == 0:
            return
        hello_air = self.radio.tx_time(self.hello_size_bytes)
        # First transmitter exactly as the scalar sequence: pseudonym
        # draw, then position draw, then the round's snapshot refresh.
        node0 = nodes[tx_list[0]]
        pseudonyms = [node0.pseudonym_at(now)]
        p0 = node0.position(now)
        snap_pos, snap_index = self.snapshot()
        # Round counters in ascending order — the same sequence of
        # float adds as the per-transmitter loop.
        self.hello_tx += n_tx
        air = self.airtime_tx_s
        for i in tx_list:
            nodes[i].tx_count += 1
            air += hello_air
        self.airtime_tx_s = air
        # Inlined ``pseudonym_at`` fast path: with a 30 s lifetime and
        # ~1 s rounds, almost no pseudonym rotates in a given round, so
        # the common case is one validity test and a digest read;
        # rotation falls back to the full call (same draws, same
        # manager state as the scalar path).
        _append = pseudonyms.append
        for i in tx_list[1:]:
            mgr = nodes[i].pseudonyms
            cur = mgr._current
            if cur is not None and cur.valid_at(now):
                _append(cur.digest)
            else:
                _append(mgr.current(now).digest)
        centers = np.empty((n_tx, 2), dtype=np.float64)
        centers[0, 0] = p0.x
        centers[0, 1] = p0.y
        if n_tx > 1:
            if self._snapshot_time == now:
                # The snapshot was interpolated at exactly this instant
                # (bit-identical to the trajectory read) and refreshing
                # it extended every trajectory through ``now`` — the
                # scalar position calls would replay these values with
                # no further draws.
                centers[1:] = snap_pos[tx_ids[1:]]
            else:
                # Snapshot still fresh from an earlier instant: batch-
                # interpolate at ``now`` through the segment-cached
                # interpolator (bit-identical to per-model
                # ``position``; stale legs extend in ascending node
                # order, the same per-stream draw sequence the scalar
                # loop and the next snapshot refresh would use).
                buf = self._hello_pos_buf
                if buf is None or buf.shape[0] != len(nodes):
                    buf = self._hello_pos_buf = np.empty(
                        (len(nodes), 2), dtype=np.float64
                    )
                self._interpolator(now, out=buf)
                centers[1:] = buf[tx_ids[1:]]
        # Who heard whom.  Every live node beacons, so receiver ``j`` is
        # transmitter ``j``, listening at its snapshot position.
        # Receivers are grouped by grid cell, and each group shares one
        # gather of the transmitters whose cells lie within reach — a
        # superset of its true senders (cell size ≥ radius) — filtered
        # by ``GridIndex.query_radius``'s exact arithmetic.  Each
        # receiver's senders are appended to ``heard`` as one slice, so
        # no (receiver, transmitter) pair array is built or sorted.
        r = self.radio.range_m
        r2 = r * r
        rx = snap_pos[tx_ids]
        # transmitter indices fit 16 bits up to 65,536 live nodes
        wide = n_tx > 0x10000
        heard = array("i" if wide else "H")
        heard_dtype = np.int32 if wide else np.uint16
        bounds = np.empty((n_tx, 2), dtype=np.int64)
        # receivers per transmitter, for the airtime count
        counts = np.zeros(n_tx, dtype=np.int64)
        senders = GridIndex(centers, snap_index.cell_size)
        for q, cand in senders.grouped_candidates(rx, r):
            # the column views reproduce the reference dx*dx + dy*dy
            # term order
            dx = rx[q, :1] - centers[cand, 0]
            dy = rx[q, 1:] - centers[cand, 1]
            dx *= dx
            dy *= dy
            dx += dy
            hit = dx <= r2
            hit &= cand != q[:, None]  # no node hears its own beacon
            counts[cand] += hit.sum(axis=0)
            rl, tl = np.nonzero(hit)
            ends = np.searchsorted(rl, np.arange(q.size + 1))
            ends += len(heard)
            bounds[q, 0] = ends[:-1]
            bounds[q, 1] = ends[1:]
            heard.frombytes(cand[tl].astype(heard_dtype).tobytes())
        # Receiver airtime in ascending transmitter order — the same
        # sequence of float adds as the per-transmitter loop.
        air_rx = self.airtime_rx_s
        for c in counts.tolist():
            air_rx += hello_air * c
        self.airtime_rx_s = air_rx
        # by node id; a node that was down heard nothing
        heard_by = np.zeros((len(nodes), 2), dtype=np.int64)
        heard_by[tx_ids] = bounds
        self.hello_rounds.append(
            HelloRound(
                now, tx_list, centers, pseudonyms, heard, heard_by,
                self._publics,
            )
        )

    def stop_hello(self) -> None:
        """Stop all beacon tasks (end of a run)."""
        for task in self._hello_tasks:
            task.stop()
        self._hello_tasks.clear()
