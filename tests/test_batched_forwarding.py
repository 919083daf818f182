"""Parity suite: vectorized forwarding paths vs their scalar references.

Two exactness contracts back the large-N fast lane:

* :func:`repro.routing.gpsr.next_hop_greedy_batched` must pick the
  same neighbor **object** as the scalar epsilon chain over
  ``live_entries`` — including equidistant candidates (first-by-address
  wins through the strict ``eps`` test), expired rows, and the
  empty-progress case that triggers perimeter mode.
* :meth:`repro.geometry.spatial_index.GridIndex.grouped_candidates`
  plus the exact distance predicate must reproduce per-query
  ``query_radius`` results for every query point.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import Point
from repro.geometry.spatial_index import GridIndex
from repro.net.neighbor_table import NeighborEntry, NeighborTable
from repro.routing.gpsr import next_hop_greedy, next_hop_greedy_batched

# A coarse coordinate lattice makes equidistant neighbors and exact
# boundary hits common instead of measure-zero.
coord = st.one_of(
    st.integers(min_value=0, max_value=8).map(float),
    st.floats(
        min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False
    ),
)
point = st.tuples(coord, coord).map(lambda t: Point(*t))


def _table(rows: list[tuple[Point, float]]) -> NeighborTable:
    table = NeighborTable()
    for addr, (pos, last_seen) in enumerate(rows):
        table.update(
            NeighborEntry(
                link_address=addr,
                pseudonym=b"p",
                position=pos,
                public_key=None,
                last_seen=last_seen,
            )
        )
    return table


rows_strategy = st.lists(
    st.tuples(point, st.floats(min_value=0.0, max_value=10.0)),
    min_size=0,
    max_size=24,
)


class TestBatchedGreedyParity:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=rows_strategy, self_pos=point, target=point,
        now=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_matches_scalar_chain(self, rows, self_pos, target, now):
        table = _table(rows)
        reference = next_hop_greedy(self_pos, target, table.live_entries(now))
        # Force the vector pass regardless of table size...
        forced = next_hop_greedy_batched(
            self_pos, target, table, now, batch_min=0
        )
        # ...and take whatever path the production cutover picks.
        default = next_hop_greedy_batched(self_pos, target, table, now)
        assert forced is reference  # same object, not merely equal
        assert default is reference

    @settings(max_examples=100, deadline=None)
    @given(
        rows=rows_strategy, self_pos=point, target=point,
        now=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_column_cache_survives_writes(self, rows, self_pos, target, now):
        """A write between batched calls must invalidate the cached
        columns, never serve stale geometry."""
        table = _table(rows)
        next_hop_greedy_batched(self_pos, target, table, now, batch_min=0)
        table.update(
            NeighborEntry(
                link_address=999,
                pseudonym=b"p",
                position=target,  # zero distance: wins whenever it's live
                public_key=None,
                last_seen=now,
            )
        )
        reference = next_hop_greedy(self_pos, target, table.live_entries(now))
        got = next_hop_greedy_batched(self_pos, target, table, now, batch_min=0)
        assert got is reference

    def test_equidistant_tie_breaks_to_first_address(self):
        # Two neighbors at mirrored positions, equal distance: the
        # strict ``d < best - eps`` chain keeps the first (lowest
        # address) — the batched replay must too.
        rows = [
            (Point(2.0, 1.0), 0.0),
            (Point(2.0, -1.0), 0.0),
        ]
        table = _table(rows)
        got = next_hop_greedy_batched(
            Point(0.0, 0.0), Point(4.0, 0.0), table, 0.0, batch_min=0
        )
        assert got is not None and got.link_address == 0

    def test_expired_rows_never_win(self):
        rows = [
            (Point(3.9, 0.0), 0.0),   # closest but stale at now=5
            (Point(3.0, 0.0), 5.0),   # live
        ]
        table = _table(rows)
        got = next_hop_greedy_batched(
            Point(0.0, 0.0), Point(4.0, 0.0), table, 5.0, batch_min=0
        )
        assert got is not None and got.link_address == 1

    def test_no_progress_returns_none(self):
        # Every neighbor farther from the target than self: local
        # maximum, the perimeter-mode trigger.
        rows = [(Point(0.0, 5.0), 0.0), (Point(5.0, 5.0), 0.0)]
        table = _table(rows)
        assert (
            next_hop_greedy_batched(
                Point(0.0, 0.0), Point(0.0, -1.0), table, 0.0, batch_min=0
            )
            is None
        )

    def test_empty_table_returns_none(self):
        assert (
            next_hop_greedy_batched(
                Point(0.0, 0.0), Point(1.0, 0.0), _table([]), 0.0, batch_min=0
            )
            is None
        )


class TestGroupedCandidatesParity:
    @settings(max_examples=150, deadline=None)
    @given(
        positions=st.lists(
            st.tuples(coord, coord), min_size=0, max_size=40
        ),
        queries=st.lists(
            st.tuples(coord, coord), min_size=1, max_size=20
        ),
        radius=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    )
    def test_filtered_groups_match_query_radius(
        self, positions, queries, radius
    ):
        pos = np.array(positions, dtype=np.float64).reshape(-1, 2)
        index = GridIndex(pos.copy(), cell_size=radius)
        pts = np.array(queries, dtype=np.float64)
        got: dict[int, np.ndarray] = {}
        for q_idx, cand in index.grouped_candidates(pts, radius):
            for qi in q_idx.tolist():
                if cand.size == 0:
                    got[qi] = cand
                    continue
                d = pos[cand] - pts[qi]
                mask = (d * d).sum(axis=1) <= radius * radius
                hits = cand[mask]
                hits.sort()
                got[qi] = hits
        assert sorted(got) == list(range(len(queries)))
        for qi, (x, y) in enumerate(queries):
            expected = index.query_radius(float(x), float(y), radius)
            np.testing.assert_array_equal(got[qi], expected)
