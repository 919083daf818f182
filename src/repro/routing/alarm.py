"""ALARM: Anonymous Location-Aided Routing in suspicious MANETs
(Defrawy & Tsudik, ICNP 2007; paper ref. [5]).

The paper's description (§5): "each node periodically disseminates its
own identity to its authenticated neighbors and continuously collects
all other nodes' identities.  Thus, nodes can build a secure map of
other nodes for geographical routing.  In routing, each node encrypts
the packet by its key which is verified by the next hop en route.  Such
dissemination period was set to 30 s."

Model
-----
* Every ``dissemination_interval`` (30 s) each node signs and locally
  broadcasts its (pseudonymous) identity + location; receptions are
  counted (they are the "id dissemination hops" of Fig. 15a) and, via
  epidemic aggregation, every node's *secure map* converges to the
  positions as of the start of the round.  We charge one signature per
  announcement and one verification per reception to the crypto cost
  model and store a per-round global map snapshot — the aggregation
  messages themselves ride inside the counted announcements.
* Data routing is GPSR (:class:`~repro.routing.gpsr.GpsrProtocol`'s
  greedy/perimeter step and hop-retry rule) toward the destination's
  *mapped* (up to 30 s stale) position, using live neighbor tables for
  the actual hop; each hop performs one public-key verification, charged
  as simulated latency — the source of ALARM's high latency in
  Fig. 14a.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.primitives import Point
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.routing.gpsr import GpsrHeader, GpsrProtocol
from repro.sim.process import PeriodicTask


@dataclass(frozen=True)
class AlarmConfig:
    """ALARM tunables.

    Parameters
    ----------
    dissemination_interval:
        Period of the identity/location dissemination (paper: 30 s).
    ttl:
        Maximum hops per data packet.
    """

    dissemination_interval: float = 30.0
    ttl: int = 10


class AlarmProtocol(GpsrProtocol):
    """The ALARM comparison protocol."""

    name = "ALARM"

    def __init__(self, network, location, metrics=None, cost_model=None,
                 config: AlarmConfig | None = None) -> None:
        super().__init__(
            network, location, metrics, cost_model,
            config if config is not None else AlarmConfig(),
        )
        #: the "secure map": node id -> position as of the last round
        self.secure_map: dict[int, Point] = {}
        self.dissemination_rounds = 0
        self._run_dissemination_round()
        self._task = PeriodicTask(
            self.engine,
            self.config.dissemination_interval,
            self._run_dissemination_round,
        )

    def stop(self) -> None:
        """Stop the periodic dissemination (end of a run)."""
        self._task.stop()

    # ------------------------------------------------------------------
    # proactive dissemination
    # ------------------------------------------------------------------
    def _run_dissemination_round(self) -> None:
        """One network-wide identity dissemination round.

        Each node signs one announcement (1 signature) heard by its
        in-range neighbors (1 verification per reception); the
        reception count accumulates into the ``dissemination_rx``
        metric used by Fig. 15a's "ALARM (include id dissemination
        hops)" series.
        """
        now = self.engine.now
        self.dissemination_rounds += 1
        total_rx = 0
        for node in self.nodes_shuffled():
            self.secure_map[node.id] = node.position(now)
            self.cost.sign()
            receivers = self.network.neighbors_of(node.id)
            total_rx += len(receivers)
            self.cost.verify(len(receivers))
            node.tx_count += 1
        self.metrics.note("dissemination_rx", total_rx)
        self.metrics.note("dissemination_tx", self.network.n_nodes)

    def nodes_shuffled(self) -> list[Node]:
        """Nodes in id order (kept as a hook for randomised rounds)."""
        return list(self.network.nodes)

    def amortized_dissemination_rx(self) -> float:
        """Dissemination receptions per data packet sent so far."""
        sent = max(self.metrics.packets_sent, 1)
        return self.metrics.counters.get("dissemination_rx", 0.0) / sent

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _initiate(self, packet: Packet) -> None:
        target = self.secure_map.get(packet.dst)
        if target is None:  # pragma: no cover - map always complete here
            self._dropped(packet, "unknown-destination")
            return
        packet.header = GpsrHeader(
            target=target, dst_addr=packet.dst, ttl=self.config.ttl
        )
        node = self.network.nodes[packet.src]
        packet.record_visit(node.id)
        # The source encrypts the packet with its key (one public-key
        # operation) before the first hop.
        delay = self.cost.pubkey_encrypt()
        self._after_crypto(packet, delay, lambda: self._forward(node, packet))

    def _dispatch(self, node: Node, packet: Packet) -> None:
        if packet.kind is not PacketKind.DATA or not isinstance(
            packet.header, GpsrHeader
        ):
            return
        packet.header.retries = 0
        # The next hop verifies the previous hop's encryption before
        # processing — the per-hop public-key cost of Fig. 14a.
        delay = self.cost.verify()
        self._after_crypto(packet, delay, lambda: self._forward(node, packet))
