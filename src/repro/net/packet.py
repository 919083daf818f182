"""The generic packet record shared by every protocol.

Protocol-specific headers (e.g., ALERT's universal RREQ/RREP/NAK format
of §2.5) ride in ``header``; the link layer only looks at ``size_bytes``
and the addressing fields.  ``trace`` accumulates the node ids a packet
actually visited — the raw material for the participating-nodes and
hops-per-packet metrics (§5.2 metrics 1 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class PacketKind(Enum):
    """Coarse packet classes used by the substrate and metrics."""

    DATA = "data"
    HELLO = "hello"
    COVER = "cover"  # notify-and-go camouflage traffic
    NAK = "nak"
    CONTROL = "control"  # dissemination, location-service, etc.


@dataclass
class Packet:
    """One packet in flight.

    Parameters
    ----------
    kind:
        Coarse class (data / hello / cover / nak / control).
    src, dst:
        *True* endpoint node ids, used only by the harness for metric
        attribution; protocols must never read them for forwarding
        decisions (that would break anonymity by construction).
    size_bytes:
        Payload size on the wire; the MAC charges airtime for it.
    header:
        Protocol-specific header object (opaque to the substrate).
    payload:
        Application bytes (possibly ciphertext).
    """

    kind: PacketKind
    src: int
    dst: int
    size_bytes: int
    header: Any = None
    payload: bytes = b""
    #: metrics flow this packet belongs to (None for background traffic)
    flow_id: int | None = None
    #: node ids that have transmitted or received this packet, in order
    trace: list[int] = field(default_factory=list)

    def record_visit(self, node_id: int) -> None:
        """Append a node to the trace (consecutive duplicates collapse)."""
        if not self.trace or self.trace[-1] != node_id:
            self.trace.append(node_id)

    def fork(self) -> "Packet":
        """An independent branch for a second owner of the frame.

        The copy starts with the parent's trace (so path accounting
        stays meaningful for multicast deliveries) in its own list, and
        with its own header from ``header.clone()`` (``None`` passes
        through).  Receivers mutate per-hop routing state in the header
        (retry counters, TTLs, zone stages), so branches must not share
        one.

        The link layer forks once per receiver of
        :meth:`~repro.net.network.Network.local_broadcast`, except a
        ``COVER``'s (a cover dies at its first hop unread, so its
        receivers share the one object), and once for the overhearing
        listener of :meth:`~repro.net.network.Network.unicast`, only
        when it is in range.  A protocol forks nothing itself: a node
        that passes a frame on sends the branch it received.
        """
        d = self.__dict__.copy()
        h = d["header"]
        if h is not None:
            d["header"] = h.clone()
        d["trace"] = self.trace[:]
        clone = object.__new__(Packet)
        clone.__dict__ = d
        return clone
