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
"""

from __future__ import annotations

from dataclasses import dataclass
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


class NeighborTable:
    """A node's view of its one-hop neighborhood.

    Liveness: a row whose ``last_seen`` is older than ``now - ttl`` is
    invisible to every reader — :meth:`get` and :meth:`live_entries`
    filter it, and callers of :meth:`columns` mask it with the same
    predicate.  Dead rows may still be stored (until :meth:`purge`),
    and queued hello slices past the TTL are dropped unapplied, so
    ``len()`` counts stored rows, not live ones; it only picks between
    the parity-tested lanes of ``next_hop_greedy_batched``
    (``gpsr._BATCH_MIN``).
    """

    #: Entries older than ``ttl`` seconds are treated as gone (the
    #: neighbor moved away or died): three hello intervals
    #: (``repro.net.network.HELLO_INTERVAL``), so one or two lost
    #: beacons do not evict a live neighbor.  Read through ``self``, so
    #: a test may set it on one table; ``inf`` means rows never expire.
    ttl = 3.0

    def __init__(self) -> None:
        self._entries: dict[int, NeighborEntry] = {}
        # Address-sorted row cache, invalidated on any write.  Routing
        # decisions call ``live_entries`` far more often than beacons
        # rewrite the table, so the sort must not rerun per decision.
        self._sorted: list[NeighborEntry] | None = None
        # Column view of the sorted rows (positions, last-seen) for the
        # batched forwarding path; rebuilt lazily alongside ``_sorted``.
        self._columns: tuple | None = None
        # Deferred hello ingests: (seen, entries, idx, lo, hi, addrs)
        # slices queued by ``ingest_shared`` and materialised — in
        # arrival order, so later rounds overwrite earlier ones exactly
        # as an eager store would — on the first read or eager write.
        # Most nodes in a large field forward nothing between rounds,
        # so their rows are never materialised at all, and slices that
        # pass the TTL unread are dropped.
        self._pending: list[tuple] = []

    def _apply_pending(self) -> None:
        """Materialise queued ``ingest_shared`` slices in arrival order."""
        table = self._entries
        for _, entries, idx, lo, hi, addrs in self._pending:
            # Gather addresses and rows with one C-level itemgetter each
            # and merge via ``dict.update`` — same stores, same order,
            # no per-row interpreter steps.  ``idx`` may be a numpy
            # array (the hello round shares one pair array per round);
            # the slice is materialised here, per applied slice, not for
            # the whole round.
            if hi - lo > 1:
                rows = idx[lo:hi]
                if type(rows) is not list:
                    rows = rows.tolist()
                g = itemgetter(*rows)
                table.update(zip(g(addrs), g(entries)))
            else:
                t = idx[lo]
                table[addrs[t]] = entries[t]
        self._pending.clear()

    def update(self, entry: NeighborEntry) -> None:
        """Insert or refresh the row for ``entry.link_address``."""
        if self._pending:
            self._apply_pending()
        self._entries[entry.link_address] = entry
        self._sorted = None
        self._columns = None

    def bulk_update(self, entries: Iterable[NeighborEntry]) -> None:
        """Insert or refresh many rows with one cache invalidation.

        The eager equivalent of :meth:`ingest_shared`; the hello round
        itself queues slices through the inlined ``ingest_shared``.
        """
        if self._pending:
            self._apply_pending()
        table = self._entries
        for entry in entries:
            table[entry.link_address] = entry
        self._sorted = None
        self._columns = None

    #: Queued ingest slices tolerated before an eager merge bounds the
    #: held references.  The TTL drop in ``ingest_shared`` already keeps
    #: about ``ttl / HELLO_INTERVAL + 1`` slices; this cap holds for any
    #: ``ttl``, ``inf`` included.
    _PENDING_MAX = 32

    def ingest_shared(
        self,
        entries: list[NeighborEntry],
        idx: "list[int] | np.ndarray",
        lo: int,
        hi: int,
        addrs: list[int],
        seen: float,
    ) -> None:
        """Store rows ``entries[t] for t in idx[lo:hi]``.

        The vectorised hello round hands every receiver a slice of one
        shared per-round index list.  The slice is queued, not stored:
        materialisation happens on the table's next read (or eager
        write), so nodes that make no forwarding decision between
        rounds — the vast majority of a 10k-node field — never pay the
        per-row dict stores at all.  Equivalent to ``bulk_update`` over
        the same rows: application order is arrival order, so a later
        round's row for the same address wins exactly as it would
        eagerly.  ``addrs`` carries ``entries[t].link_address`` as
        ``addrs[t]`` (one shared per-round list), sparing the
        materialisation loop an attribute load per row.

        ``seen`` is the round time: no row of the slice has a later
        ``last_seen``, and the table is never read at an earlier time
        (the simulation clock only grows).  Queued slices whose round
        time is below ``seen - ttl`` are dropped first — from the front
        of the queue, which holds every such slice when rounds arrive in
        time order: their rows could never pass a liveness test again,
        so the live view is unchanged and only dead rows go unstored.
        """
        pending = self._pending
        cutoff = seen - self.ttl
        while pending and pending[0][0] < cutoff:
            del pending[0]
        if len(pending) >= self._PENDING_MAX:
            self._apply_pending()
        pending.append((seen, entries, idx, lo, hi, addrs))
        self._sorted = None
        self._columns = None

    def remove(self, link_address: int) -> None:
        """Drop a row (e.g., after repeated link-layer failures)."""
        if self._pending:
            self._apply_pending()
        if self._entries.pop(link_address, None) is not None:
            self._sorted = None
            self._columns = None

    def live_entries(self, now: float) -> list[NeighborEntry]:
        """All non-expired rows, sorted by link address (deterministic)."""
        if self._pending:
            self._apply_pending()
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
        if self._pending:
            self._apply_pending()
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
        if self._pending:
            self._apply_pending()
        e = self._entries.get(link_address)
        if e is None or e.last_seen < now - self.ttl:
            return None
        return e

    def purge(self, now: float) -> int:
        """Physically delete expired rows; returns how many were removed."""
        if self._pending:
            self._apply_pending()
        cutoff = now - self.ttl
        dead = [a for a, e in self._entries.items() if e.last_seen < cutoff]
        for a in dead:
            del self._entries[a]
        if dead:
            self._sorted = None
            self._columns = None
        return len(dead)

    def __len__(self) -> int:
        if self._pending:
            self._apply_pending()
        return len(self._entries)
