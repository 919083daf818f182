"""Unit tests for the notify-and-go mechanism in isolation."""

from __future__ import annotations

from repro.core import notify_and_go
from repro.core.notify_and_go import NotifyAndGo
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.net.packet import Packet, PacketKind
from tests.conftest import build_network


def make_nag(net):
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    nag = NotifyAndGo(net, net.engine.rng.stream("nag"), cost, metrics)
    return nag, metrics, cost


class TestNotifyAndGo:
    def test_real_send_deferred_within_window(self, monkeypatch):
        monkeypatch.setattr(notify_and_go, "NOTIFY_T", 0.01)
        monkeypatch.setattr(notify_and_go, "NOTIFY_T0", 0.05)
        net = build_network(static=True)
        net.start_hello()
        net.engine.run(until=0.5)
        nag, _, _ = make_nag(net)
        fired = []
        backoff = nag.run(net.nodes[0], lambda: fired.append(net.engine.now))
        assert 0.01 <= backoff <= 0.06
        start = net.engine.now
        net.engine.run(until=start + 0.1)
        assert len(fired) == 1
        assert 0.01 <= fired[0] - start <= 0.06

    def test_every_neighbor_covers(self):
        net = build_network(static=True)
        net.start_hello()
        net.engine.run(until=0.5)
        nag, metrics, _ = make_nag(net)
        source = net.nodes[0]
        eta = len(source.neighbors.live_entries(net.engine.now))
        nag.run(source, lambda: None)
        net.engine.run(until=net.engine.now + 0.1)
        assert metrics.counters.get("cover_tx", 0) == eta

    def test_anonymity_set_counts_source(self):
        net = build_network(static=True)
        net.start_hello()
        net.engine.run(until=0.5)
        nag, metrics, _ = make_nag(net)
        source = net.nodes[0]
        eta = len(source.neighbors.live_entries(net.engine.now))
        nag.run(source, lambda: None)
        assert metrics.counters["notify_anonymity_set"] == eta + 1

    def test_cover_receivers_charge_decrypt(self):
        net = build_network(static=True)
        net.start_hello()
        net.engine.run(until=0.5)
        nag, metrics, cost = make_nag(net)
        nag.run(net.nodes[0], lambda: None)
        net.engine.run(until=net.engine.now + 0.1)
        # Cover frames are broadcast; every receiver that dispatches one
        # through handle_cover pays a public-key decryption attempt.
        cover = Packet(kind=PacketKind.COVER, src=1, dst=-1, size_bytes=16)
        before = cost.charges.get("pubkey_decrypt", 0)
        nag.handle_cover(net.nodes[2], cover)
        assert cost.charges.get("pubkey_decrypt", 0) == before + 1
        assert metrics.counters.get("cover_rx_decrypt_attempts", 0) >= 1

    def test_cover_packets_do_not_propagate(self):
        """Covers die at first hop: no receiver re-broadcasts them."""
        net = build_network(static=True)
        net.start_hello()
        net.engine.run(until=0.5)
        nag, metrics, _ = make_nag(net)
        # Route cover handling like AlertProtocol does.
        for node in net.nodes:
            node.on_receive = (
                lambda n, p: nag.handle_cover(n, p)
                if p.kind is PacketKind.COVER
                else None
            )
        before_tx = net.broadcast_tx
        nag.run(net.nodes[0], lambda: None)
        net.engine.run(until=net.engine.now + 0.2)
        eta = metrics.counters.get("cover_tx", 0)
        # Exactly one broadcast per cover — no forwarding cascade.
        assert net.broadcast_tx - before_tx == eta

    def test_cover_broadcast_fan_out(self):
        """One real cover broadcast: each of η receivers pays exactly one
        decrypt attempt, in its own delivery event, and all of them share
        the sender's one cover object."""
        net = build_network(static=True)
        nag, metrics, cost = make_nag(net)
        sender = 0
        receivers = net.neighbors_of(sender)
        eta = len(receivers)
        assert eta >= 2, "test network too sparse"
        branches = []

        def on_receive(node, packet):
            branches.append((node.id, packet))
            nag.handle_cover(node, packet)

        for node in net.nodes:
            node.on_receive = on_receive
        rx_before = [n.rx_count for n in net.nodes]
        decrypts = cost.charges.get("pubkey_decrypt", 0)
        attempts = metrics.counters.get("cover_rx_decrypt_attempts", 0)
        events_before = net.engine.events_processed

        nag._send_cover(sender)
        net.engine.run(until=net.engine.now + 0.1)

        assert cost.charges["pubkey_decrypt"] == decrypts + eta
        assert metrics.counters["cover_rx_decrypt_attempts"] == attempts + eta
        assert [n.rx_count - b for n, b in zip(net.nodes, rx_before)] == [
            1 if i in receivers else 0 for i in range(net.n_nodes)
        ]
        assert sorted(rid for rid, _ in branches) == receivers
        cover = branches[0][1]
        assert cover.kind is PacketKind.COVER
        assert all(packet is cover for _, packet in branches)
        assert net.engine.events_processed - events_before == eta

    def test_failed_neighbor_sends_no_cover(self):
        """A neighbour that failed after the last hello round is still in
        the source's table, but a dead node transmits nothing."""
        net = build_network(static=True)
        net.start_hello()
        net.engine.run(until=0.5)
        nag, metrics, cost = make_nag(net)
        source = net.nodes[0]
        entries = source.neighbors.live_entries(net.engine.now)
        eta = len(entries)
        assert eta >= 2, "test network too sparse"
        dead = net.nodes[entries[0].link_address]
        dead.fail()
        tx_before = dead.tx_count

        nag.run(source, lambda: None)
        net.engine.run(until=net.engine.now + 0.1)

        assert metrics.counters.get("cover_tx", 0) == eta - 1
        assert cost.charges.get("pubkey_encrypt", 0) == eta - 1
        assert dead.tx_count == tx_before
