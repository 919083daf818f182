"""Tests for the hello-beacon neighbor table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.keys import PublicKey
from repro.geometry.primitives import Point
from repro.net.neighbor_table import NeighborEntry, NeighborTable
from repro.net.network import HELLO_INTERVAL

PK = PublicKey(n=123457, e=65537)


def entry(addr=1, t=0.0, pos=Point(0, 0)):
    return NeighborEntry(
        link_address=addr, pseudonym=b"p" * 20, position=pos,
        public_key=PK, last_seen=t,
    )


def table(ttl):
    """A table whose TTL (a class constant) is set on the instance."""
    t = NeighborTable()
    t.ttl = ttl
    return t


class TestNeighborTable:
    def test_ttl_is_three_hello_intervals(self):
        assert NeighborTable.ttl == 3 * HELLO_INTERVAL

    def test_infinite_ttl_never_expires(self):
        t = table(float("inf"))
        addrs = [1, 2]
        rows = [entry(addr=a, t=0.0) for a in addrs]
        t.ingest_shared(rows, [0, 1], 0, 2, addrs, 0.0)
        t.ingest_shared(rows, [1], 0, 1, addrs, 1e9)
        assert len(t._pending) == 2
        assert t.get(1, now=1e12) is rows[0]
        assert t.live_entries(now=1e12) == rows

    def test_update_and_get(self):
        t = NeighborTable()
        t.update(entry(addr=5, t=1.0))
        assert t.get(5, now=2.0) is not None
        assert t.get(9, now=2.0) is None

    def test_expiry(self):
        t = NeighborTable()
        t.update(entry(addr=5, t=1.0))
        assert t.get(5, now=4.0) is not None  # exactly at cutoff
        assert t.get(5, now=4.1) is None

    def test_refresh_extends_life(self):
        t = NeighborTable()
        t.update(entry(addr=5, t=1.0))
        t.update(entry(addr=5, t=5.0))
        assert t.get(5, now=7.0) is not None

    def test_live_entries_sorted_and_filtered(self):
        t = NeighborTable()
        t.update(entry(addr=9, t=5.0))
        t.update(entry(addr=2, t=5.0))
        t.update(entry(addr=4, t=0.0))  # stale at now=5
        live = t.live_entries(now=5.0)
        assert [e.link_address for e in live] == [2, 9]

    def test_remove(self):
        t = NeighborTable()
        t.update(entry(addr=5, t=1.0))
        t.remove(5)
        assert t.get(5, now=1.0) is None
        t.remove(5)  # idempotent

    def test_purge_deletes_expired(self):
        t = table(1.0)
        t.update(entry(addr=1, t=0.0))
        t.update(entry(addr=2, t=10.0))
        assert t.purge(now=10.0) == 1
        assert len(t) == 1

    def test_len(self):
        t = NeighborTable()
        assert len(t) == 0
        t.update(entry(addr=1))
        t.update(entry(addr=2))
        assert len(t) == 2


class TestSortedCache:
    def test_repeated_reads_reuse_sorted_rows(self):
        t = NeighborTable()
        t.update(entry(addr=3, t=1.0))
        t.update(entry(addr=1, t=1.0))
        t.live_entries(now=1.0)
        cached = t._sorted
        assert cached is not None
        t.live_entries(now=2.0)
        assert t._sorted is cached

    def test_update_invalidates_cache(self):
        t = NeighborTable()
        t.update(entry(addr=1, t=1.0))
        t.live_entries(now=1.0)
        t.update(entry(addr=2, t=1.0))
        assert t._sorted is None
        assert [e.link_address for e in t.live_entries(now=1.0)] == [1, 2]

    def test_bulk_update_matches_repeated_update(self):
        a = NeighborTable()
        b = NeighborTable()
        rows = [entry(addr=i, t=float(i % 3)) for i in (5, 2, 9, 2)]
        for r in rows:
            a.update(r)
        b.bulk_update(rows)
        assert a.live_entries(now=3.0) == b.live_entries(now=3.0)
        assert len(a) == len(b) == 3

    def test_remove_missing_keeps_cache(self):
        t = NeighborTable()
        t.update(entry(addr=1, t=1.0))
        t.live_entries(now=1.0)
        cached = t._sorted
        t.remove(42)
        assert t._sorted is cached

    def test_purge_invalidates_only_when_rows_die(self):
        t = table(1.0)
        t.update(entry(addr=1, t=10.0))
        t.live_entries(now=10.0)
        cached = t._sorted
        assert t.purge(now=10.0) == 0
        assert t._sorted is cached
        t.update(entry(addr=2, t=0.0))
        t.live_entries(now=10.0)
        assert t.purge(now=10.0) == 1
        assert t._sorted is None
        assert [e.link_address for e in t.live_entries(now=10.0)] == [1]


class TestIngestShared:
    """Queued hello-round slices store exactly what ``bulk_update`` does."""

    @pytest.mark.parametrize("shared_addrs", [True, False])
    @pytest.mark.parametrize(
        "n_rounds",
        [3, 10, NeighborTable._PENDING_MAX + 5],
    )
    def test_matches_bulk_update(self, n_rounds, shared_addrs):
        # ``shared_addrs`` reuses one address list object across rounds.
        rng = np.random.default_rng(n_rounds)
        tx_list = [3, 8, 11, 20, 27, 31]
        lazy = table(100.0)
        eager = table(100.0)
        for r in range(n_rounds):
            addrs = tx_list if shared_addrs else list(tx_list)
            entries = [
                entry(addr=a, t=float(r), pos=Point(a, r)) for a in addrs
            ]
            # Every third slice, the last included, holds a single row.
            if (n_rounds - 1 - r) % 3 == 0:
                k = 1
            else:
                k = int(rng.integers(2, len(addrs) + 1))
            rows = np.sort(rng.choice(len(addrs), size=k, replace=False))
            # Pad the slice so ``lo``/``hi`` index into a larger shared
            # pair array, as one receiver's run of a round's pairs does.
            idx = np.concatenate(([0], rows, [len(addrs) - 1])).astype(
                np.uint16
            )
            lazy.ingest_shared(entries, idx, 1, 1 + k, addrs, float(r))
            eager.bulk_update([entries[t] for t in rows.tolist()])
        if n_rounds < NeighborTable._PENDING_MAX:
            assert len(lazy._pending) == n_rounds
            assert lazy._entries == {}
        got = lazy.live_entries(now=float(n_rounds))
        want = eager.live_entries(now=float(n_rounds))
        assert len(got) == len(want) == len(lazy)
        assert all(g is w for g, w in zip(got, want))
        assert lazy._pending == []

    @pytest.mark.parametrize("read_after", [0.0, 0.25, 1.5, 1.75, 2.0, 3.5])
    def test_short_ttl_drops_dead_slices(self, read_after):
        """Rounds every 0.5 s under a 1.5 s TTL with no reads between
        them: queued slices past the TTL are dropped, one exactly at
        the cutoff is kept, and every read matches the eager table."""
        ttl, step, n_rounds = 1.5, 0.5, 40
        rng = np.random.default_rng(17)
        addrs = list(range(0, 60, 3))
        lazy = table(ttl)
        eager = table(ttl)
        for r in range(n_rounds):
            now = r * step
            entries = [
                entry(addr=a, t=now, pos=Point(a, r)) for a in addrs
            ]
            # Random subsets; addresses from 30 up fall silent after
            # round 10, so the eager table keeps dead rows the lazy one
            # never stores.
            heard = len(addrs) if r < 10 else 10
            k = int(rng.integers(1, heard + 1))
            rows = np.sort(rng.choice(heard, size=k, replace=False))
            lazy.ingest_shared(entries, rows, 0, k, addrs, now)
            eager.bulk_update([entries[t] for t in rows.tolist()])
            seen = [s[0] for s in lazy._pending]
            assert min(seen) >= now - ttl
            if now >= ttl:
                # round times are exact multiples of 0.5
                assert seen[0] == now - ttl
            assert len(seen) == min(r + 1, int(ttl / step) + 1)
        now = (n_rounds - 1) * step + read_after
        cutoff = now - ttl
        assert lazy.live_entries(now) == eager.live_entries(now)
        for a in range(60):
            assert lazy.get(a, now) is eager.get(a, now)
        got_rows, got_x, got_y, got_seen = lazy.columns()
        want_rows, want_x, want_y, want_seen = eager.columns()
        got_live = got_seen >= cutoff
        want_live = want_seen >= cutoff
        assert [e for e, m in zip(got_rows, got_live) if m] == [
            e for e, m in zip(want_rows, want_live) if m
        ]
        assert np.array_equal(got_x[got_live], want_x[want_live])
        assert np.array_equal(got_y[got_live], want_y[want_live])
        # the dropped slices' rows are dead rows the lazy table never stored
        assert len(lazy) < len(eager)
