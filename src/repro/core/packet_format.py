"""ALERT's universal packet format (paper §2.5, Fig. 4).

"Because of the randomized routing nature in ALERT, we have a universal
format for RREQ/RREP/NAK."  The header mirrors Fig. 4:

==============  =====================================================
Field           Meaning
==============  =====================================================
``ptype``       RREQ / RREP / NAK
``p_src``       pseudonym of the source (``P_S``)
``p_dst``       pseudonym of the destination (``P_D``)
``zone_src``    ``L_{Z_S}``: the H-th partitioned *source* zone,
                encrypted under the destination's public key (bytes)
``zone_dst``    ``L_{Z_D}``: the destination zone position (cleartext
                — every forwarder needs it)
``td``          the currently selected temporary destination
``h``           divisions performed so far
``h_max``       maximum allowed divisions (``H``)
``wrapped_key`` ``K_s^S`` encrypted under ``K_pub^D`` (session setup)
``ttl_enc``     ``(TTL)_{K_pub^RN}``: TTL encrypted for the next relay
                (source-anonymity cover traffic, §2.6)
``bitmap_enc``  ``(Bitmap)_{K_pub^D}``: altered-bit map for the §3.3
                intersection defense
``direction``   the bit flipped by each RF giving the next partition
                direction
==============  =====================================================

Per-hop routing state that an implementation needs but the paper
leaves implicit (the GPSR segment's hop budget ``ttl`` and its
link-retry count ``retries``) comes from the shared
:class:`~repro.routing.gpsr.GeoHeader` base, which every protocol's
header derives from (§2.3: "Between any two RFs, the relays perform
the GPSR routing").  ALERT's segments are greedy-only, so ``mode``
stays ``"greedy"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.zones import Direction
from repro.geometry.primitives import Point, Rect
from repro.routing.gpsr import GeoHeader


class AlertPacketType(Enum):
    """The three roles of the universal packet format."""

    RREQ = "rreq"
    RREP = "rrep"
    NAK = "nak"


@dataclass
class AlertHeader(GeoHeader):
    """The universal ALERT header (Fig. 4) on the shared hop state."""

    ptype: AlertPacketType
    p_src: bytes
    p_dst: bytes
    zone_dst: Rect
    zone_src_enc: bytes
    td: Point | None
    h: int
    h_max: int
    direction: Direction
    wrapped_key: bytes = b""
    ttl_enc: bytes = b""
    #: chain of encrypted bitmaps; each zone transmission may scramble
    #: the payload once more, so the destination undoes them in reverse
    bitmap_chain: list[bytes] = field(default_factory=list)
    #: session identifier (pseudonymous; lets endpoints pair RREQ/RREP)
    session: int = 0
    #: sequence number within the session (drives NAK loss detection)
    seq: int = 0
    #: rounds of partitioning performed (safety bound bookkeeping)
    rf_rounds: int = 0
    #: 0 = en route, 1 = zone broadcast/multicast, 2 = zone rebroadcast
    zone_stage: int = 0
    #: set once the RF-round budget is exhausted (last-ditch GPSR run)
    fallback: bool = False
    #: (node, zone stage, RF round, TD) receptions already handled;
    #: one set per packet, shared by all its copies (see :meth:`clone`).
    #: Simulator bookkeeping, not on the wire.
    seen: set = field(default_factory=set)

    def clone(self) -> "AlertHeader":
        """Deep-enough copy for broadcast branches.

        :meth:`repro.net.packet.Packet.fork` calls this for every
        broadcast branch, so each receiver can mutate routing state
        (zone stage, bitmap chain, hop state) without affecting
        siblings.  The mutable ``bitmap_chain`` list is copied.  The
        ``seen`` dedup set is shared on purpose: it records which nodes
        have handled this packet in any of its copies, and it is freed
        with the last copy.  Every other field is immutable and shared.
        Built via ``__dict__`` copy rather than the 23-keyword
        constructor: every broadcast branch pays this, making it one of
        the hottest allocation sites of a run.
        """
        new = object.__new__(AlertHeader)
        d = new.__dict__
        d.update(self.__dict__)
        d["bitmap_chain"] = list(self.bitmap_chain)
        return new


def header_wire_size(header: AlertHeader, data_bytes: int) -> int:
    """Approximate on-wire size of an ALERT packet in bytes.

    Field sizes follow Fig. 4's layout: two 20-byte SHA-1 pseudonyms,
    two zone positions (4 floats each), one TD coordinate, counters,
    plus the variable-length encrypted fields.
    """
    fixed = (
        20 + 20  # P_S, P_D
        + 32 + 0  # L_ZD (cleartext rect: 4 × 8-byte floats)
        + 16  # TD coordinate
        + 2  # h, H
        + 1  # direction bit + type tag
    )
    return (
        fixed
        + len(header.zone_src_enc)
        + len(header.wrapped_key)
        + len(header.ttl_enc)
        + sum(len(b) for b in header.bitmap_chain)
        + data_bytes
    )
