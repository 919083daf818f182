"""A network node: identity, keys, mobility, and the receive hook."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.crypto.keys import KeyPair
from repro.crypto.pseudonym import PseudonymManager
from repro.geometry.primitives import Point
from repro.mobility.base import MobilityModel
from repro.net.neighbor_table import HelloLog, NeighborTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packet import Packet

#: Signature of a protocol's packet-arrival hook: (receiver, packet).
ReceiveHook = Callable[["Node", "Packet"], None]


class Node:
    """One mobile node.

    The node owns its long-term keypair, its rotating pseudonym, its
    neighbor table, and its mobility; the routing protocol attached to
    the network registers a receive hook that fires whenever the link
    layer delivers a frame to this node.

    Parameters
    ----------
    node_id:
        Substrate-level index (stands in for the radio hardware
        address; never placed in protocol headers).
    mobility:
        This node's motion.
    keypair:
        Long-term RSA keypair (public half published via the location
        service).
    rng:
        Private random stream (pseudonym fuzz etc.).
    hello_log:
        The network's hello rounds, which the neighbor table reads.
    """

    def __init__(
        self,
        node_id: int,
        mobility: MobilityModel,
        keypair: KeyPair,
        rng: np.random.Generator,
        hello_log: HelloLog,
    ) -> None:
        self.id = node_id
        self.mobility = mobility
        self.keypair = keypair
        mac = node_id.to_bytes(6, "big")
        self.pseudonyms = PseudonymManager(mac, rng)
        self.neighbors = NeighborTable(node_id, hello_log)
        self.on_receive: ReceiveHook | None = None
        #: substrate hook fired when fail()/restore() actually flips the
        #: node's state; the owning Network uses it to invalidate its
        #: cached active-node mask.
        self.on_state_change: Callable[["Node"], None] | None = None
        #: per-node energy proxy: frames transmitted / received
        self.tx_count = 0
        self.rx_count = 0
        #: False once the node is disabled/compromised (DoS experiments);
        #: inactive nodes neither beacon, relay, nor acknowledge frames.
        self.active = True
        # Last (t, Point) answered by position(): forwarding decisions
        # ask for several positions at the same event time, and Point
        # is frozen, so replaying the previous answer is free and safe.
        self._pos_at: float = -1.0
        self._pos_cache: Point | None = None

    def fail(self) -> None:
        """Disable the node (compromise / battery death)."""
        if not self.active:
            return  # already down: no state flip, no invalidation
        self.active = False
        if self.on_state_change is not None:
            self.on_state_change(self)

    def restore(self) -> None:
        """Bring the node back online."""
        if self.active:
            return  # already up: no state flip, no invalidation
        self.active = True
        if self.on_state_change is not None:
            self.on_state_change(self)

    def position(self, t: float) -> Point:
        """True position at time ``t`` (substrate/oracle use only)."""
        if t == self._pos_at:
            return self._pos_cache
        p = self.mobility.position(t)
        self._pos_at = t
        self._pos_cache = p
        return p

    def prime_position(self, t: float, p: Point) -> None:
        """Seed the :meth:`position` cache with an externally computed fix.

        Batched substrate passes (location-service write rounds) evaluate
        whole populations through ``Network.batch_positions`` and hand
        each node its value here, leaving the cache in the same state a
        scalar ``position(t)`` call would have.
        """
        self._pos_at = t
        self._pos_cache = p

    def pseudonym_at(self, t: float) -> bytes:
        """The node's valid pseudonym digest at ``t``."""
        return self.pseudonyms.current(t).digest

    def deliver(self, packet: "Packet") -> None:
        """Link-layer delivery: count it and invoke the protocol hook."""
        self.rx_count += 1
        # Packet.record_visit, inlined: every broadcast receiver runs it.
        trace = packet.trace
        nid = self.id
        if not trace or trace[-1] != nid:
            trace.append(nid)
        if self.on_receive is not None:
            self.on_receive(self, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.id}>"
