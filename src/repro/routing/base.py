"""The protocol interface shared by ALERT, GPSR, ALARM, AO2P and ZAP.

A protocol attaches to a :class:`~repro.net.network.Network`, claims
every node's receive hook, wires the network's transmission listener to
a :class:`~repro.experiments.metrics.MetricsCollector`, and exposes
``send_data(src, dst, size)`` to traffic sources.  Crypto processing
is charged as *scheduled simulated delay* through :meth:`_after_crypto`
so that end-to-end latency figures emerge from the event timeline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.metrics import MetricsCollector
from repro.location.service import LocationService
from repro.net.feedback import FlowFeedback
from repro.net.neighbor_table import NeighborEntry
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind

#: Alternative next hops a node tries after link-layer failures before
#: it drops the packet at that hop; shared by all five protocols.
MAX_FORWARD_RETRIES = 3


class RoutingProtocol(ABC):
    """Base class for routing protocols.

    Parameters
    ----------
    network:
        The network to attach to (the protocol takes over every node's
        ``on_receive`` hook).
    location:
        Location service used to resolve destination position/keys.
    metrics:
        Collector for flow records (a fresh one is created if omitted).
    cost_model:
        Crypto cost model (a fresh one if omitted).
    """

    #: protocol name used in metrics and result tables
    name = "base"

    def __init__(
        self,
        network: Network,
        location: LocationService,
        metrics: MetricsCollector | None = None,
        cost_model: CryptoCostModel | None = None,
    ) -> None:
        self.network = network
        self.location = location
        self.engine = network.engine
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.cost = cost_model if cost_model is not None else CryptoCostModel()
        #: optional per-flow delivery-feedback channel for closed-loop
        #: traffic; assigned by the harness (see ``runner.py``) so
        #: protocol constructors stay unchanged.  Purely observational:
        #: reporting consumes no randomness and schedules nothing.
        self.feedback: FlowFeedback | None = None
        network.tx_listener = self.metrics.record_tx
        for node in network.nodes:
            node.on_receive = self._dispatch

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def send_data(
        self,
        src: int,
        dst: int,
        size_bytes: int = 512,
        on_flow: Callable[[int], None] | None = None,
    ) -> int:
        """Originate one data packet from ``src`` to ``dst``.

        Returns the metrics flow id.  Protocol subclasses implement
        the actual initiation in :meth:`_initiate`.

        ``on_flow``, when given, receives the flow id *before* the
        packet is handed to the protocol.  Feedback reporting is
        synchronous — a MAC-layer drop or terminal no-route drop can
        fire inside :meth:`_initiate`, before ``send_data`` returns —
        so a caller that wants to observe its flow's feedback must
        register through this hook rather than on the return value, or
        it misses any signal raised during initiation.
        """
        if src == dst:
            raise ValueError("source and destination must differ")
        flow_id = self.metrics.start_flow(
            src, dst, self.engine.now, size_bytes, protocol=self.name
        )
        if on_flow is not None:
            on_flow(flow_id)
        packet = Packet(
            kind=PacketKind.DATA,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            created_at=self.engine.now,
            flow_id=flow_id,
        )
        self._initiate(packet)
        return flow_id

    @abstractmethod
    def _initiate(self, packet: Packet) -> None:
        """Start routing a freshly created data packet from its source."""

    @abstractmethod
    def _dispatch(self, node: Node, packet: Packet) -> None:
        """Handle link-layer delivery of ``packet`` at ``node``."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _after_crypto(self, packet: Packet, delay: float, fn: Callable[[], None]) -> None:
        """Charge ``delay`` seconds of crypto processing, then run ``fn``."""
        packet.crypto_delay += delay
        if delay > 0:
            self.engine.schedule_in(
                delay, fn, category="control", cancellable=False
            )
        else:
            fn()

    def _delivered(self, packet: Packet) -> None:
        """Record first delivery at the true destination."""
        if packet.flow_id is not None:
            self.metrics.record_delivery(
                packet.flow_id, self.engine.now, path=packet.trace
            )
            if self.feedback is not None:
                self.feedback.delivery(packet.flow_id, self.engine.now)

    def _dropped(self, packet: Packet, reason: str) -> None:
        """Record a terminal drop."""
        if packet.flow_id is not None:
            self.metrics.record_drop(packet.flow_id, reason)
            if self.feedback is not None:
                self.feedback.drop(packet.flow_id, reason, self.engine.now)

    def _retry_hop(
        self, node: Node, choice: NeighborEntry, packet: Packet, reason: str
    ) -> bool:
        """The one hop-retry rule, for any header with ``ttl`` and
        ``retries``.

        Reports the failure to feedback (non-terminal), blacklists the
        failed neighbor ``choice``, counts the failure and refunds the
        hop's TTL (the failed hop did not advance the packet).  Returns
        whether ``node`` may try another next hop; past
        :data:`MAX_FORWARD_RETRIES` it drops the packet instead.
        """
        hdr = packet.header
        if self.feedback is not None and packet.flow_id is not None:
            self.feedback.link_failure(packet.flow_id, reason, self.engine.now)
        node.neighbors.remove(choice.link_address)
        hdr.retries += 1
        hdr.ttl += 1
        if hdr.retries > MAX_FORWARD_RETRIES:
            self._dropped(packet, f"link-failure:{reason}")
            return False
        return True

    def _report_timeout(self, flow_id: int | None) -> None:
        """Report an end-to-end confirmation timeout to feedback."""
        if self.feedback is not None:
            self.feedback.timeout(flow_id, self.engine.now)

    def _mark_participant(self, packet: Packet, node_id: int) -> None:
        """Record ``node_id`` as an actual participant for this flow."""
        if packet.flow_id is not None:
            self.metrics.record_participant(packet.flow_id, node_id)

    def lookup_destination(self, requester: int, dst: int):
        """Resolve the destination's location record via the service."""
        return self.location.lookup(requester, dst)
