"""The generic packet record shared by every protocol.

Protocol-specific headers (e.g., ALERT's universal RREQ/RREP/NAK format
of §2.5) ride in ``header``; the link layer only looks at ``size_bytes``
and the addressing fields.  ``trace`` accumulates the node ids a packet
actually visited — the raw material for the participating-nodes and
hops-per-packet metrics (§5.2 metrics 1 and 4).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any

_packet_ids = itertools.count(1)


#: Header types a branch shares instead of copying.  Exact ``bytes``
#: (e.g. a cover's TTL ciphertext) is immutable, so sharing it is
#: indistinguishable from a copy.  Matched by exact type: a ``bytes``
#: subclass may carry a mutable attribute, so it is copied.
_SHARED_HEADER_TYPES = frozenset((bytes, type(None)))


def clone_header(header: Any) -> Any:
    """Copy a protocol header for an independent packet branch.

    The one header rule of :meth:`Packet.fork`: exact ``bytes`` are
    shared and ``None`` passes through; headers that define a
    ``clone()`` method use it (cheap and type-aware — see e.g.
    :meth:`repro.core.packet_format.AlertHeader.clone`); anything else,
    ``bytes`` subclasses included, is deep-copied.
    """
    if type(header) in _SHARED_HEADER_TYPES:
        return header
    clone = getattr(header, "clone", None)
    if callable(clone):
        return clone()
    return copy.deepcopy(header)


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
    created_at:
        Simulation time the packet was born.
    """

    kind: PacketKind
    src: int
    dst: int
    size_bytes: int
    header: Any = None
    payload: bytes = b""
    created_at: float = 0.0
    #: metrics flow this packet belongs to (None for background traffic)
    flow_id: int | None = None
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: node ids that have transmitted or received this packet, in order
    trace: list[int] = field(default_factory=list)
    #: link-layer transmissions used so far (includes broadcasts)
    transmissions: int = 0
    #: simulated crypto delay accumulated along the path (seconds)
    crypto_delay: float = 0.0

    @property
    def hops(self) -> int:
        """Number of link traversals recorded in the trace."""
        return max(len(self.trace) - 1, 0)

    def record_visit(self, node_id: int) -> None:
        """Append a node to the trace (consecutive duplicates collapse)."""
        if not self.trace or self.trace[-1] != node_id:
            self.trace.append(node_id)

    def fork(self, **overrides: Any) -> "Packet":
        """Copy for broadcast fan-out: fresh uid, shared provenance.

        The copy starts with the parent's trace (so path accounting
        stays meaningful for multicast deliveries) but gets its own
        list object, its own uid, and — unless ``header=`` is passed
        explicitly — its **own header copy** under the rule of
        :func:`clone_header`.  Broadcast receivers mutate per-hop
        routing state in the header (retry counters, TTLs, zone
        stages); sharing one mutable header object across branches
        would let one receiver corrupt its siblings.

        ``overrides`` replace dataclass fields of the copy; ``uid`` and
        ``trace`` are fork's own and any other name is rejected, both
        with :class:`TypeError`.
        """
        d = self.__dict__.copy()
        if overrides:
            _check_overrides(overrides)
            d.update(overrides)
        if "header" not in overrides:
            h = d["header"]
            if type(h) not in _SHARED_HEADER_TYPES:
                d["header"] = clone_header(h)
        d["uid"] = next(_packet_ids)
        d["trace"] = self.trace[:]
        clone = object.__new__(Packet)
        clone.__dict__ = d
        return clone


#: Fields ``fork`` assigns itself, which overrides may not set.
_FORK_OWNED = frozenset(("uid", "trace"))
_PACKET_FIELDS = frozenset(f.name for f in fields(Packet))


def _check_overrides(overrides: dict[str, Any]) -> None:
    for name in overrides:
        if name in _FORK_OWNED:
            raise TypeError(
                f"Packet.fork() assigns {name!r} itself; it cannot be overridden"
            )
        if name not in _PACKET_FIELDS:
            raise TypeError(f"Packet.fork() got an unknown field {name!r}")
