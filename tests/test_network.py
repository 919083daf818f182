"""Tests for the Network container (unicast, broadcast, beacons)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.field import Field
from repro.geometry.primitives import Point
from repro.geometry.spatial_index import GridIndex
from repro.mobility.static import StaticPosition
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from tests.conftest import build_network
from tests.oracles import (
    NaiveIndex,
    naive_local_load,
    scalar_hello_round,
    scalar_positions,
)


def data_packet(src=0, dst=1, size=512, flow=None):
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, size_bytes=size, flow_id=flow)


class TestSnapshots:
    def test_snapshot_shape(self, static_network):
        pos, idx = static_network.snapshot()
        assert pos.shape == (static_network.n_nodes, 2)
        assert len(idx) == static_network.n_nodes

    def test_snapshot_cached_within_resolution(self, static_network):
        _, a = static_network.snapshot()
        _, b = static_network.snapshot()
        assert a is b

    def test_snapshot_refreshes_after_resolution(self, small_network):
        small_network.snapshot()
        refreshes = (
            small_network.snapshot_rebuilds
            + small_network.snapshot_incremental
        )
        small_network.engine.schedule_in(1.0, lambda: None)
        small_network.engine.run()
        pos, _ = small_network.snapshot()
        # The cache aged out: a new refresh happened (incremental
        # maintenance may reuse the same index object) and the
        # positions reflect the new time.
        assert (
            small_network.snapshot_rebuilds
            + small_network.snapshot_incremental
        ) == refreshes + 1
        np.testing.assert_array_equal(
            pos,
            scalar_positions(small_network._mobilities, small_network.engine.now),
        )

    def test_neighbors_symmetric(self, static_network):
        net = static_network
        for nid in range(0, net.n_nodes, 7):
            for other in net.neighbors_of(nid):
                assert nid in net.neighbors_of(other)

    def test_neighbors_excludes_self(self, static_network):
        for nid in range(static_network.n_nodes):
            assert nid not in static_network.neighbors_of(nid)

    def test_nodes_in_rect(self, static_network):
        net = static_network
        from repro.geometry.primitives import Rect
        inside = net.nodes_in_rect(Rect(0, 0, 600, 600))
        assert sorted(inside) == list(range(net.n_nodes))

    def test_node_nearest_to(self, static_network):
        net = static_network
        p = net.position_of(3)
        assert net.node_nearest_to(p) == 3
        assert net.node_nearest_to(p, exclude=3) != 3


class TestReceiverSet:
    """The receiver set every one-hop broadcast fans out to."""

    def test_neighbors_of_contract(self, static_network):
        net = static_network
        sender = 0
        nbrs = net.neighbors_of(sender)
        assert len(nbrs) >= 2, "test network too sparse"
        victim = nbrs[len(nbrs) // 2]
        net.nodes[victim].fail()
        got = net.neighbors_of(sender)
        assert all(type(i) is int for i in got)
        assert got == sorted(got)
        assert sender not in got and victim not in got
        pos, _ = net.snapshot()
        hits = NaiveIndex(pos).query_radius(*pos[sender], net.radio.range_m)
        assert got == [
            int(i) for i in hits if i != sender and net.nodes[i].active
        ]

    def test_query_radius_boundary_matches_naive(self):
        """A point at exactly ``radius`` is in; one ULP beyond is out."""
        cx, cy, r = 1000.0, 500.0, 250.0
        angles = np.linspace(0.0, 2 * math.pi, 97)
        ring = np.column_stack(
            (cx + r * np.cos(angles), cy + r * np.sin(angles))
        )
        on = np.array([[cx + r, cy], [cx, cy - r]])
        beyond = np.array(
            [[np.nextafter(cx + r, np.inf), cy], [cx, np.nextafter(cy - r, -np.inf)]]
        )
        pos = np.vstack((on, beyond, ring))
        got = GridIndex(pos, r).query_radius(cx, cy, r)
        np.testing.assert_array_equal(got, NaiveIndex(pos).query_radius(cx, cy, r))
        assert {0, 1} <= set(got.tolist())
        assert not {2, 3} & set(got.tolist())


class TestUnicast:
    def test_in_range_unicast_delivers(self, static_network):
        net = static_network
        a = 0
        nbrs = net.neighbors_of(a)
        assert nbrs, "test network too sparse"
        b = nbrs[0]
        got = []
        net.nodes[b].on_receive = lambda node, pkt: got.append(pkt)
        pkt = data_packet(src=a, dst=b)
        net.unicast(a, b, pkt)
        net.engine.run()
        assert len(got) == 1 and got[0] is pkt
        assert pkt.trace[0] == a and pkt.trace[-1] == b

    def test_unicast_to_self_raises(self, static_network):
        with pytest.raises(ValueError):
            static_network.unicast(0, 0, data_packet())

    def test_out_of_range_fails(self, static_network):
        net = static_network
        # Find the pair with maximum distance (certainly out of range
        # of the 250 m radio in a 600 m field: corners).
        import numpy as np
        pos, _ = net.snapshot()
        d2 = ((pos[None] - pos[:, None]) ** 2).sum(-1)
        a, b = np.unravel_index(np.argmax(d2), d2.shape)
        if d2[a, b] ** 0.5 <= net.radio.range_m:
            pytest.skip("all nodes mutually in range")
        failures = []
        net.unicast(int(a), int(b), data_packet(), on_failed=failures.append)
        net.engine.run()
        assert failures == ["out-of-range"]

    def test_tx_listener_invoked(self, static_network):
        net = static_network
        seen = []
        net.tx_listener = lambda flow, attempts, ok: seen.append((flow, ok))
        b = net.neighbors_of(0)[0]
        net.unicast(0, b, data_packet(flow=42), flow=42)
        net.engine.run()
        assert seen and seen[0][0] == 42

    def test_delivery_takes_positive_time(self, static_network):
        net = static_network
        b = net.neighbors_of(0)[0]
        times = []
        net.nodes[b].on_receive = lambda n, p: times.append(net.engine.now)
        net.unicast(0, b, data_packet())
        net.engine.run()
        assert times and times[0] > 0.0


def _line_network(listener_x: float) -> Network:
    """Sender 0 at x=0, receiver 1 at x=100, listener 2 at ``listener_x``."""
    xs = (0.0, 100.0, listener_x)
    return Network(
        Engine(seed=1), Field(2000.0, 2000.0),
        lambda i, rng: StaticPosition(Point(xs[i], 500.0)), 3,
    )


class TestOverhear:
    """``unicast(overhear=...)`` copies the frame only for a listener
    that hears it."""

    def _send(self, monkeypatch, listener_x):
        net = _line_network(listener_x)
        forks = []
        fork = Packet.fork
        monkeypatch.setattr(
            Packet, "fork", lambda self: forks.append(1) or fork(self)
        )
        batches = []
        schedule = net.engine.schedule_deliver_batch
        monkeypatch.setattr(
            net.engine, "schedule_deliver_batch",
            lambda t, targets, pkts, **kw: batches.append(
                ([n.id for n in targets], [id(p) for p in pkts])
            ) or schedule(t, targets, pkts, **kw),
        )
        got = {}
        for n in net.nodes:
            n.on_receive = lambda node, pkt: got.setdefault(node.id, pkt)
        pkt = data_packet(src=0, dst=2)
        net.unicast(0, 1, pkt, overhear=2)
        net.engine.run()
        return net, pkt, forks, batches, got

    def test_out_of_range_listener_costs_no_copy(self, monkeypatch):
        net, pkt, forks, batches, got = self._send(monkeypatch, 1500.0)
        assert forks == []
        assert batches == [([1], [id(pkt)])]
        assert net.nodes[2].rx_count == 0 and 2 not in got

    def test_in_range_listener_gets_its_own_copy(self, monkeypatch):
        net, pkt, forks, batches, got = self._send(monkeypatch, 50.0)
        assert forks == [1]
        heard = got[2]
        assert heard is not pkt and got[1] is pkt
        assert heard.trace == [0, 2]
        assert pkt.trace == [0, 1]


class TestBroadcast:
    def test_broadcast_reaches_neighbors(self, static_network):
        net = static_network
        got = []
        for n in net.nodes:
            n.on_receive = lambda node, pkt: got.append(node.id)
        expect = set(net.neighbors_of(0))
        receivers = net.local_broadcast(0, data_packet(src=0, dst=-1))
        net.engine.run()
        if receivers:  # broadcast may be lost to base_loss (rare)
            assert set(receivers) == expect
            assert set(got) == expect

    def test_restrict_to_filters(self, static_network):
        net = static_network
        nbrs = net.neighbors_of(0)
        allowed = nbrs[:2]
        receivers = net.local_broadcast(
            0, data_packet(src=0, dst=-1), restrict_to=allowed
        )
        assert set(receivers) <= set(allowed)

    def test_forks_are_independent(self, static_network):
        net = static_network
        seen = []
        for n in net.nodes:
            n.on_receive = lambda node, pkt: seen.append(pkt)
        packet = data_packet(src=0, dst=-1)
        net.local_broadcast(0, packet)
        net.engine.run()
        ids = {id(p) for p in seen}
        assert len(ids) == len(seen) and id(packet) not in ids

    def test_receiver_header_mutation_cannot_affect_other_branch(
        self, static_network
    ):
        """Header-aliasing regression (the zone-broadcast corruption bug).

        Every branch of a broadcast must carry its own header copy: a
        receiver resetting its per-hop routing state (as ALERT and ZAP do
        with ``hdr.retries = 0``) used to mutate the single shared header object, corrupting every
        sibling branch.  Fails on the pre-fix ``Packet.fork()``.
        """
        from repro.routing.zap import ZapHeader
        from repro.geometry.primitives import Rect

        net = static_network
        delivered = []
        for n in net.nodes:
            n.on_receive = lambda node, pkt: delivered.append(pkt)
        packet = data_packet(src=0, dst=-1)
        packet.header = ZapHeader(zone=Rect(0, 0, 100, 100), ttl=12, retries=2)
        receivers = net.local_broadcast(0, packet)
        net.engine.run()
        if len(receivers) < 2:
            return  # collided frame / sparse neighborhood: nothing to check
        headers = [p.header for p in delivered]
        assert len(set(map(id, headers))) == len(headers)  # no aliasing
        # One receiver mutates its per-hop state...
        headers[0].retries = 0
        headers[0].ttl -= 1
        # ...and neither a sibling branch nor the sender's packet moves.
        assert headers[1].retries == 2
        assert headers[1].ttl == 12
        assert packet.header.retries == 2
        assert packet.header.ttl == 12


class TestBroadcastFanout:
    """``broadcast_fanout`` is exactly a loop of ``local_broadcast`` calls."""

    @pytest.mark.parametrize("seed", [5, 19])
    def test_matches_sequential_local_broadcasts(self, seed):
        fan = build_network(seed=seed)
        seq = build_network(seed=seed)
        logs = []
        for net in (fan, seq):
            log = []
            logs.append(log)
            for n in net.nodes:
                n.on_receive = lambda node, pkt, net=net, log=log: log.append(
                    (net.engine.now, node.id, pkt.src)
                )
            net.engine.schedule_in(0.3, lambda: None)
            net.engine.run()
            # Frames still on the air load every fan-out sender's
            # carrier-sense count.
            for s in (1, 2, 3):
                net.local_broadcast(s, data_packet(src=s, dst=-1))
        senders = list(range(4, 40, 3))
        assert len(senders) >= 12
        got = fan.broadcast_fanout(
            [(s, data_packet(src=s, dst=-1, flow=s), s) for s in senders]
        )
        want = [
            seq.local_broadcast(s, data_packet(src=s, dst=-1, flow=s), flow=s)
            for s in senders
        ]
        assert got == want
        assert any(got) and not all(got)  # both outcomes exercised
        assert fan.broadcast_tx == seq.broadcast_tx
        assert fan.airtime_tx_s == seq.airtime_tx_s
        assert fan.airtime_rx_s == seq.airtime_rx_s
        assert fan._in_flight == seq._in_flight
        for attr in ("attempts_total", "collisions_total", "drops_total"):
            assert getattr(fan.mac, attr) == getattr(seq.mac, attr)
        assert (
            fan.mac._rng.bit_generator.state
            == seq.mac._rng.bit_generator.state
        )
        fan.engine.run()
        seq.engine.run()
        assert logs[0] and logs[0] == logs[1]


class TestLocalLoad:
    """``_local_load`` matches the scalar carrier-sense count exactly."""

    @staticmethod
    def register(net, entries, x, y, duration):
        net._register_tx(Point(x, y), duration)
        entries.append((net.engine.now + duration, x, y))

    @staticmethod
    def load(net, entries, x, y):
        got = net._local_load(Point(x, y))
        assert got == naive_local_load(
            entries, net.engine.now, Point(x, y), net.cs_range
        )
        return got

    def test_entry_ending_now_is_expired(self, static_network):
        net = static_network
        entries = []
        self.register(net, entries, 10.0, 10.0, 0.004)
        self.register(net, entries, 20.0, 20.0, 0.008)
        net.engine.run(until=0.004)
        assert self.load(net, entries, 0.0, 0.0) == 1.0
        net.engine.run(until=0.008)
        assert self.load(net, entries, 0.0, 0.0) == 0.0

    def test_entry_exactly_cs_range_away_counts(self, static_network):
        net = static_network
        assert net.cs_range == 550.0
        entries = []
        self.register(net, entries, 0.0, 0.0, 0.01)
        # On an axis, and on a 3-4-5 diagonal (330² + 440² = 550²).
        assert self.load(net, entries, 550.0, 0.0) == 1.0
        assert self.load(net, entries, 330.0, 440.0) == 1.0
        assert self.load(net, entries, 550.0, 1e-3) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.002]) | st.floats(0.0, 0.01),
                st.booleans(),
                st.floats(-200.0, 800.0),
                st.floats(-200.0, 800.0),
                st.sampled_from([0.0, 0.002]) | st.floats(0.0, 0.01),
            ),
            max_size=60,
        )
    )
    def test_matches_naive_count(self, ops):
        """Random positions, durations and query times: every count
        equals the scalar count over all entries ever registered."""
        net = build_network(n_nodes=2, static=True)
        entries = []
        for dt, is_tx, x, y, duration in ops:
            net.engine.run(until=net.engine.now + dt)
            if is_tx:
                self.register(net, entries, x, y, duration)
            else:
                self.load(net, entries, x, y)


class TestHello:
    def test_beacons_populate_neighbor_tables(self, small_network):
        net = small_network
        net.start_hello()
        net.engine.run(until=0.5)
        populated = sum(1 for n in net.nodes if len(n.neighbors) > 0)
        assert populated >= net.n_nodes * 0.9
        net.stop_hello()

    def test_beacon_entries_match_truth(self, static_network):
        net = static_network
        net.start_hello()
        net.engine.run(until=0.5)
        node = net.nodes[0]
        for e in node.neighbors.live_entries(net.engine.now):
            truth = net.position_of(e.link_address)
            assert truth.distance_to(e.position) < 5.0
        net.stop_hello()

    def test_stop_hello_stops_counting(self, static_network):
        net = static_network
        net.start_hello()
        net.engine.run(until=1.5)
        net.stop_hello()
        count = net.hello_tx
        net.engine.schedule_in(5.0, lambda: None)
        net.engine.run()
        assert net.hello_tx == count


def assert_rounds_match(vec, ref):
    """Run one vectorised round on ``vec`` and one scalar round on
    ``ref``; every counter and neighbor-table row must agree."""
    vec._emit_hello_round()
    scalar_hello_round(ref)
    now = vec.engine.now
    assert vec.hello_tx == ref.hello_tx
    assert vec.airtime_tx_s == ref.airtime_tx_s
    assert vec.airtime_rx_s == ref.airtime_rx_s
    for a, b in zip(vec.nodes, ref.nodes):
        assert a.tx_count == b.tx_count
        assert a.neighbors.live_entries(now) == b.neighbors.live_entries(now)


class TestHelloRoundParity:
    """The vectorized round must match the scalar reference exactly."""

    @pytest.mark.parametrize("static", [True, False])
    @pytest.mark.parametrize(
        ("seed", "n_nodes", "snapshot_at", "side"),
        [
            pytest.param(3, 40, None, 600.0, id="3"),
            pytest.param(11, 40, None, 600.0, id="11"),
            # Paper density (200 nodes/km², side 1000·sqrt(N/200)): many
            # occupied grid cells, so the round merges pairs across
            # cell groups and sorts them by receiver.
            pytest.param(5, 600, None, 1000.0 * math.sqrt(3), id="5-n600"),
            # Snapshot refreshed earlier but still within
            # SNAPSHOT_RESOLUTION: the round interpolates positions.
            pytest.param(3, 40, 0.6, 600.0, id="3-stale-snapshot"),
            # Every node inside one grid cell: a single candidate group,
            # whose pairs need no receiver sort.
            pytest.param(7, 30, None, 200.0, id="7-one-cell"),
            # A field so sparse that no beacon reaches anyone.
            pytest.param(9, 5, None, 50_000.0, id="9-isolated"),
        ],
    )
    def test_vectorized_matches_scalar(
        self, static, seed, n_nodes, snapshot_at, side
    ):
        vec, ref = (
            build_network(
                n_nodes=n_nodes, seed=seed, field_size=side, static=static
            )
            for _ in range(2)
        )
        for net in (vec, ref):
            if snapshot_at is not None:
                net.engine.schedule_in(snapshot_at, net.snapshot)
            net.engine.schedule_in(0.7, lambda: None)
            net.engine.run()
        assert_rounds_match(vec, ref)
        assert (vec._snapshot_time < vec.engine.now) == (
            snapshot_at is not None
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_nodes=st.integers(min_value=1, max_value=120),
        side=st.sampled_from([120.0, 400.0, 600.0, 1000.0, 2500.0]),
        static=st.booleans(),
        dead=st.sets(st.integers(min_value=0, max_value=119), max_size=20),
        rounds=st.integers(min_value=1, max_value=3),
    )
    def test_parity_property(self, seed, n_nodes, side, static, dead, rounds):
        """Random populations, densities and failures, over several
        rounds: every counter and table row matches the scalar round."""
        vec, ref = (
            build_network(
                n_nodes=n_nodes, seed=seed, field_size=side, static=static
            )
            for _ in range(2)
        )
        for net in (vec, ref):
            for nid in dead:
                if nid < n_nodes:
                    net.nodes[nid].fail()
        for _ in range(rounds):
            for net in (vec, ref):
                net.engine.schedule_in(0.9, lambda: None)
                net.engine.run()
            assert_rounds_match(vec, ref)

    @pytest.mark.parametrize("dead", [(), (3, 17)])
    def test_parity_over_ttl_without_reads(self, dead):
        """Ten rounds 1 s apart (10 s, over three 3 s TTLs) with no
        table read in between: every round drops each receiver's queued
        slices past the TTL, keeps the one exactly at the cutoff, and
        the lazily built tables still show the scalar reference's live
        view."""
        vec, ref = (
            build_network(n_nodes=60, seed=21, field_size=400.0, speed=20.0)
            for _ in range(2)
        )
        for r in range(10):
            for net in (vec, ref):
                if r == 4:
                    for nid in dead:
                        net.nodes[nid].fail()
                net.engine.schedule_in(1.0, lambda: None)
                net.engine.run()
            vec._emit_hello_round()
            scalar_hello_round(ref)
            now = vec.engine.now
            for node in vec.nodes:
                if not node.active:
                    continue
                pending = node.neighbors._pending
                # every live node hears a beacon every round here
                assert pending[-1][0] == now
                assert all(s[0] >= now - node.neighbors.ttl for s in pending)
                # round times are whole seconds: 1 s rounds under a 3 s
                # TTL keep four slices, the oldest exactly at the cutoff
                assert len(pending) == min(r + 1, 4)
                if r >= 3:
                    assert pending[0][0] == now - node.neighbors.ttl
        assert vec.hello_tx == ref.hello_tx
        assert vec.airtime_tx_s == ref.airtime_tx_s
        assert vec.airtime_rx_s == ref.airtime_rx_s
        now = vec.engine.now
        for later in (now, now + 1.0, now + 3.0):
            for a, b in zip(vec.nodes, ref.nodes):
                assert a.tx_count == b.tx_count
                assert a.neighbors.live_entries(later) == b.neighbors.live_entries(
                    later
                )
                for nid in range(vec.n_nodes):
                    assert a.neighbors.get(nid, later) == b.neighbors.get(nid, later)
        # mobility churned neighbour sets, so dropped slices held rows
        # the scalar tables still store as dead
        assert sum(len(n.neighbors) for n in vec.nodes) < sum(
            len(n.neighbors) for n in ref.nodes
        )

    def test_parity_at_exact_range(self):
        """Pairs exactly one radio range apart, and nodes sitting on grid
        cell boundaries, are in range for both rounds."""
        points = [
            (0.0, 0.0), (250.0, 0.0), (250.0, 250.0), (500.0, 0.0),
            (150.0, 200.0), (400.0, 450.0), (750.0, 500.0), (999.0, 999.0),
        ]

        def static_net():
            fld = Field(1000.0, 1000.0)
            return Network(
                Engine(seed=1), fld,
                lambda i, rng: StaticPosition(Point(*points[i])),
                len(points),
            )

        vec, ref = static_net(), static_net()
        assert_rounds_match(vec, ref)
        # (0, 0) hears (250, 0) and (150, 200), both exactly 250 m away.
        heard = {e.link_address for e in vec.nodes[0].neighbors.live_entries(0.0)}
        assert heard == {1, 4}

    def test_parity_with_dead_nodes(self):
        vec = build_network(seed=4, static=True)
        ref = build_network(seed=4, static=True)
        for net in (vec, ref):
            for nid in (0, 7, 13):
                net.nodes[nid].fail()
        assert_rounds_match(vec, ref)
        # dead nodes never transmit
        assert vec.nodes[0].tx_count == 0
