"""Location servers: replicated stores of (position, public key).

Each node registers with a *home* server; writes replicate to every
peer ("for high reliability, the location servers can replicate data
between each other"), so any live server can answer any lookup and
individual servers are allowed to fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import PublicKey
from repro.geometry.primitives import Point


@dataclass
class LocationRecord:
    """One node's registered state."""

    node_id: int
    position: Point
    public_key: PublicKey
    updated_at: float


class LocationServer:
    """A single location server.

    Parameters
    ----------
    server_id:
        Identifier within the service.
    """

    def __init__(self, server_id: int) -> None:
        self.id = server_id
        self._records: dict[int, LocationRecord] = {}
        self._alive = True
        #: write/read counters for the §4.3 overhead accounting
        self.writes = 0
        self.reads = 0
        self.replications = 0

    @property
    def alive(self) -> bool:
        """Whether the server is currently reachable."""
        return self._alive

    def fail(self) -> None:
        """Take the server down (it keeps its data)."""
        self._alive = False

    def restore(self) -> None:
        """Bring the server back up."""
        self._alive = True

    def adopt_round(
        self, records: dict[int, LocationRecord], home_count: int
    ) -> None:
        """Adopt one update round's records (no-op while failed).

        ``records`` covers the whole node population, as
        :meth:`LocationService._write_round` produces it, so it replaces
        the table outright, and every replica holds the one dict by
        reference instead of a merged copy.  ``home_count`` of the
        records are writes from this server's own nodes; the rest
        arrived by peer replication.
        """
        if not self._alive:
            return
        self._records = records
        self.writes += home_count
        self.replications += len(records) - home_count

    def fetch(self, node_id: int) -> LocationRecord | None:
        """Read a record; ``None`` if absent or the server is down."""
        if not self._alive:
            return None
        self.reads += 1
        return self._records.get(node_id)
