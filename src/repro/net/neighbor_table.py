"""Hello-beacon neighbor discovery (paper §2.2).

"Each node periodically piggybacks its updated position and pseudonym
to 'hello' messages, and sends the messages to its neighbors.  Also,
every node maintains a routing table that keeps its neighbors'
pseudonyms associated with their locations."

Entries carry the advertised pseudonym, position, and public key as of
the last beacon, so forwarding decisions are made on (slightly stale)
advertised state, not oracle truth — staleness grows with node speed,
which is what degrades routing at 8 m/s in Figs. 15b/16b.

``link_address`` is the simulator's stand-in for "the radio address the
beacon came from": protocols may use it to hand a frame back to the
link layer, but must never treat it as an identity (the pseudonym is
the identity).

Tables pull their rows; beacons push nothing.  A hello round
(:meth:`repro.net.network.Network._emit_hello_round`) is recorded once,
as a :class:`HelloRound` in the network's :class:`HelloLog`: which
nodes beaconed, what they advertised, and which of them each live node
heard.  The log keeps the rounds of the last ``NeighborTable.ttl``
seconds.  Each table keeps a cursor into it: every read and every eager
write first merges the rounds the table has not merged yet, oldest
first, so a table holds what storing each round's beacons on arrival
would have stored, minus rows that expired before anyone read them.  A
round builds its rows on the first merge that needs them, so a round
nobody reads builds none, and only tables that are read store any.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable

import numpy as np

from repro.crypto.keys import PublicKey
from repro.geometry.primitives import Point


@dataclass(slots=True)
class NeighborEntry:
    """One row of a node's neighbor table."""

    link_address: int
    pseudonym: bytes
    position: Point
    public_key: PublicKey
    last_seen: float


class HelloRound:
    """One hello round, as recorded by the network.

    Every node that was live beaconed: transmitter ``j`` is node
    ``tx_list[j]`` (ascending ids), and ``centers[j]`` and
    ``digests[j]`` are the position and pseudonym it advertised.  Node
    ``a`` heard the transmitters ``heard[lo:hi]``, with
    ``(lo, hi) = bounds[a]`` — ``(0, 0)`` if it was down.  ``publics``
    holds every node's public key by id.  The round's rows are built on
    its first merge, so a round nobody reads builds none.
    """

    __slots__ = (
        "time", "seq", "tx_list", "centers", "digests", "heard", "bounds",
        "publics", "_rows",
    )

    def __init__(
        self,
        time: float,
        tx_list: list[int],
        centers: np.ndarray,
        digests: list[bytes],
        heard: array,
        bounds: np.ndarray,
        publics: list[PublicKey],
    ) -> None:
        self.time = time
        #: position in the owning log; set by :meth:`HelloLog.append`
        self.seq = 0
        self.tx_list = tx_list
        self.centers = centers
        self.digests = digests
        self.heard = heard
        self.bounds = bounds
        self.publics = publics
        # one row per transmitter index, built on the first merge
        self._rows: list[NeighborEntry] | None = None

    def _build_rows(self) -> list[NeighborEntry]:
        """Every transmitter's row, in index order."""
        xs = self.centers[:, 0].tolist()
        ys = self.centers[:, 1].tolist()
        return list(map(
            NeighborEntry,
            self.tx_list,
            self.digests,
            map(Point, xs, ys),
            map(self.publics.__getitem__, self.tx_list),
            repeat(self.time),
        ))

    def merge_into(self, table: dict[int, NeighborEntry], node_id: int) -> bool:
        """Store the rows ``node_id`` heard in this round into ``table``.

        Returns whether any row was stored.
        """
        lo, hi = self.bounds[node_id].tolist()
        if lo == hi:
            return False
        js = self.heard[lo:hi].tolist()
        tx_list = self.tx_list
        rows = self._rows
        if rows is None:
            rows = self._rows = self._build_rows()
        if len(js) > 1:
            # one C-level gather each for addresses and rows
            g = itemgetter(*js)
            table.update(zip(g(tx_list), g(rows)))
        else:
            j = js[0]
            table[tx_list[j]] = rows[j]
        return True


class HelloLog:
    """The hello rounds a table may still need, oldest first.

    ``seq`` counts every round ever appended, so a table that has
    merged up to ``seq`` is current.  Rounds older than ``now - ttl``
    are dropped when the next one arrives: none of their rows could
    pass a liveness test again (the simulation clock only grows).
    """

    __slots__ = ("rounds", "seq")

    def __init__(self) -> None:
        self.rounds: deque[HelloRound] = deque()
        self.seq = 0

    def append(self, rnd: HelloRound) -> None:
        """Record ``rnd`` and drop the rounds past the TTL at its time."""
        self.seq += 1
        rnd.seq = self.seq
        rounds = self.rounds
        rounds.append(rnd)
        cutoff = rnd.time - NeighborTable.ttl
        while rounds[0].time < cutoff:
            rounds.popleft()


#: The log of a table that belongs to no network; it never grows.
_NO_ROUNDS = HelloLog()


class NeighborTable:
    """A node's view of its one-hop neighborhood.

    ``node_id`` and ``log`` tie the table to its node and to the
    network's :class:`HelloLog`; a table built without them holds only
    what is written to it.

    Liveness: a row whose ``last_seen`` is older than ``now - ttl`` is
    invisible to every reader — :meth:`get` and :meth:`live_entries`
    filter it, and callers of :meth:`columns` mask it with the same
    predicate.  Dead rows may still be stored (until :meth:`purge`),
    and rounds past the TTL are never merged, so ``len()`` counts
    stored rows, not live ones; it only picks between the
    parity-tested lanes of ``next_hop_greedy_batched``
    (``gpsr._BATCH_MIN``).
    """

    #: Entries older than ``ttl`` seconds are treated as gone (the
    #: neighbor moved away or died): three hello intervals
    #: (``repro.net.network.HELLO_INTERVAL``), so one or two lost
    #: beacons do not evict a live neighbor.  Read through ``self``, so
    #: a test may set it on one table; ``inf`` means rows never expire.
    #: A network's :class:`HelloLog` keeps rounds for the class value.
    ttl = 3.0

    def __init__(
        self, node_id: int | None = None, log: HelloLog | None = None
    ) -> None:
        self._entries: dict[int, NeighborEntry] = {}
        # Address-sorted row cache, invalidated on any write.  Routing
        # decisions call ``live_entries`` far more often than beacons
        # rewrite the table, so the sort must not rerun per decision.
        self._sorted: list[NeighborEntry] | None = None
        # Column view of the sorted rows (positions, last-seen) for the
        # batched forwarding path; rebuilt lazily alongside ``_sorted``.
        self._columns: tuple | None = None
        self._node_id = node_id
        self._log = _NO_ROUNDS if log is None else log
        # ``seq`` of the last round merged
        self._merged = self._log.seq

    def _merge(self) -> None:
        """Merge the log's unmerged rounds, oldest first."""
        log = self._log
        merged = self._merged
        stored = False
        for rnd in log.rounds:
            if rnd.seq > merged and rnd.merge_into(self._entries, self._node_id):
                stored = True
        self._merged = log.seq
        if stored:
            self._sorted = None
            self._columns = None

    def update(self, entry: NeighborEntry) -> None:
        """Insert or refresh the row for ``entry.link_address``."""
        if self._merged != self._log.seq:
            self._merge()
        self._entries[entry.link_address] = entry
        self._sorted = None
        self._columns = None

    def bulk_update(self, entries: Iterable[NeighborEntry]) -> None:
        """Insert or refresh many rows with one cache invalidation."""
        if self._merged != self._log.seq:
            self._merge()
        table = self._entries
        for entry in entries:
            table[entry.link_address] = entry
        self._sorted = None
        self._columns = None

    def ingest_shared(
        self,
        entries: list[NeighborEntry],
        idx: "list[int] | np.ndarray",
        lo: int,
        hi: int,
        addrs: list[int],
    ) -> None:
        """Store ``entries[t]`` under ``addrs[t]`` for ``t in idx[lo:hi]``.

        Equivalent to :meth:`bulk_update` over those rows.
        """
        if self._merged != self._log.seq:
            self._merge()
        table = self._entries
        for t in idx[lo:hi]:
            table[addrs[t]] = entries[t]
        self._sorted = None
        self._columns = None

    def remove(self, link_address: int) -> None:
        """Drop a row (e.g., after repeated link-layer failures)."""
        if self._merged != self._log.seq:
            self._merge()
        if self._entries.pop(link_address, None) is not None:
            self._sorted = None
            self._columns = None

    def live_entries(self, now: float) -> list[NeighborEntry]:
        """All non-expired rows, sorted by link address (deterministic)."""
        if self._merged != self._log.seq:
            self._merge()
        rows = self._sorted
        if rows is None:
            rows = [e for _, e in sorted(self._entries.items())]
            self._sorted = rows
        cutoff = now - self.ttl
        return [e for e in rows if e.last_seen >= cutoff]

    def columns(self) -> tuple[list[NeighborEntry], np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, xs, ys, last_seen)`` over *all* rows, address-sorted.

        The arrays are aligned with ``rows`` and cached between writes,
        so the batched forwarding path (see
        :func:`repro.routing.gpsr.next_hop_greedy_batched`) can compute
        distances for a whole neighborhood in one vector pass instead
        of touching each row's ``Point``.  Liveness is *not* applied
        here — callers mask with ``last_seen >= now - ttl``, which is
        exactly :meth:`live_entries`'s cutoff predicate.
        """
        if self._merged != self._log.seq:
            self._merge()
        cols = self._columns
        if cols is None or self._sorted is None:
            rows = self._sorted
            if rows is None:
                rows = [e for _, e in sorted(self._entries.items())]
                self._sorted = rows
            xs = np.array([e.position.x for e in rows], dtype=np.float64)
            ys = np.array([e.position.y for e in rows], dtype=np.float64)
            seen = np.array([e.last_seen for e in rows], dtype=np.float64)
            cols = (rows, xs, ys, seen)
            self._columns = cols
        return cols

    def get(self, link_address: int, now: float) -> NeighborEntry | None:
        """The live row for ``link_address``, or ``None``."""
        if self._merged != self._log.seq:
            self._merge()
        e = self._entries.get(link_address)
        if e is None or e.last_seen < now - self.ttl:
            return None
        return e

    def purge(self, now: float) -> int:
        """Physically delete expired rows; returns how many were removed."""
        if self._merged != self._log.seq:
            self._merge()
        cutoff = now - self.ttl
        dead = [a for a, e in self._entries.items() if e.last_seen < cutoff]
        for a in dead:
            del self._entries[a]
        if dead:
            self._sorted = None
            self._columns = None
        return len(dead)

    def __len__(self) -> int:
        if self._merged != self._log.seq:
            self._merge()
        return len(self._entries)
