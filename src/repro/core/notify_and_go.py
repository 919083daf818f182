"""The "notify and go" source-anonymity mechanism (paper §2.6).

Phase 1 ("notify"): the source piggybacks a transmission notification
on its periodic update, announcing back-off parameters ``t`` and
``t0``.  Phase 2 ("go"): the source *and every neighbor* transmit at
independent uniform times in ``[t, t + t0]`` — the neighbors sending a
few bytes of random cover data — so an eavesdropper sees η + 1
simultaneous senders and cannot tell which one originated real data
(η-anonymity, η = number of neighbors).

Cover packets carry ``TTL = 0`` encrypted under the next relay's
public key; receivers that cannot find a valid TTL attempt one
public-key decryption and drop the packet, so covers never propagate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.crypto.cipher import PublicKeyCipher
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind


class NotifyAndGo:
    """Coordinates one notify-and-go round per outgoing source packet.

    Parameters
    ----------
    network:
        The network (covers are physical broadcasts).
    rng:
        Random stream for back-off draws and cover payloads.
    cost:
        Crypto cost model — TTL encryption/decryption attempts are
        tallied here.
    metrics:
        Cover-traffic counters land in ``metrics.counters``.
    t, t0:
        The back-off window ``[t, t + t0]``.
    cover_size_bytes:
        Size of each neighbor's cover packet.
    """

    def __init__(
        self,
        network: Network,
        rng: np.random.Generator,
        cost: CryptoCostModel,
        metrics: MetricsCollector,
        t: float = 0.002,
        t0: float = 0.02,
        cover_size_bytes: int = 16,
    ) -> None:
        self.network = network
        self.engine = network.engine
        self._rng = rng
        self.cost = cost
        self.metrics = metrics
        self.t = t
        self.t0 = t0
        self.cover_size_bytes = cover_size_bytes

    def anonymity_set_size(self, source: Node) -> int:
        """η + 1: the source plus its live neighbors."""
        return 1 + len(source.neighbors.live_entries(self.engine.now))

    def run(self, source: Node, send_real: Callable[[], None]) -> float:
        """Launch one round: covers from neighbors, real send from S.

        ``send_real`` is invoked after the source's own back-off.
        Returns the source's drawn back-off (useful to tests).
        """
        now = self.engine.now
        entries = source.neighbors.live_entries(now)
        self.metrics.note("notify_rounds")
        self.metrics.note("notify_anonymity_set", len(entries) + 1)

        # Neighbors' cover packets at independent back-offs.
        for entry in entries:
            backoff = float(self._rng.uniform(self.t, self.t + self.t0))
            neighbor_id = entry.link_address
            self.engine.schedule_in(
                backoff,
                lambda nid=neighbor_id: self._send_cover(nid),
                category="control",
                cancellable=False,
            )

        # The source's real packet.
        source_backoff = float(self._rng.uniform(self.t, self.t + self.t0))
        self.engine.schedule_in(
            source_backoff, send_real, category="data", cancellable=False
        )
        return source_backoff

    def _send_cover(self, node_id: int) -> None:
        """One neighbor emits a cover packet with an encrypted TTL=0."""
        node = self.network.nodes[node_id]
        # .astype/.tobytes consumes the stream exactly like the former
        # per-byte int() loop (same integers() call), without the loop.
        payload = (
            self._rng.integers(0, 256, size=self.cover_size_bytes)
            .astype(np.uint8)
            .tobytes()
        )
        # Encrypt TTL=0 under the node's *own* key: no other node will
        # ever find a valid TTL inside, which is the point.
        cipher = PublicKeyCipher.for_encryption(node.keypair.public)
        ttl_enc = cipher.encrypt(b"\x00")
        self.cost.pubkey_encrypt()
        packet = Packet(
            kind=PacketKind.COVER,
            src=node_id,
            dst=-1,
            size_bytes=self.cover_size_bytes + len(ttl_enc),
            payload=payload,
            created_at=self.engine.now,
        )
        packet.header = ttl_enc
        self.metrics.note("cover_tx")
        self.network.local_broadcast(node_id, packet)

    def handle_cover(self, node: Node, packet: Packet) -> None:
        """Receiver-side cover processing: try to decrypt TTL, drop.

        "Every node that receives a packet but cannot find a valid TTL
        will try to decrypt the TTL using its own private key" — one
        public-key decryption attempt per receiver, then the packet
        dies.
        """
        # cost.pubkey_decrypt() and metrics.note(), inlined: every
        # receiver of every cover broadcast runs this.
        charges = self.cost.charges
        charges["pubkey_decrypt"] = charges.get("pubkey_decrypt", 0) + 1
        counters = self.metrics.counters
        counters["cover_rx_decrypt_attempts"] = (
            counters.get("cover_rx_decrypt_attempts", 0.0) + 1.0
        )
        # The decrypt fails (wrong key) or yields TTL=0 — drop either way.
