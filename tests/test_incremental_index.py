"""Differential tests: incremental GridIndex vs rebuild vs NaiveIndex.

The index's one write path, ``adopt_positions``, must leave it
*result-identical* to a from-scratch ``GridIndex`` at the same
positions and to the brute-force ``NaiveIndex`` oracle, for every query
method, after arbitrarily long interleaved adopt/query schedules —
including boundary-straddling updates, out-of-field coordinates and
duplicate positions.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.spatial_index import GridIndex

from tests.oracles import (
    NaiveIndex,
    assert_same_answers,
    fresh_gridindex,
    run_differential,
)

#: Example-budget multiplier for the randomized differential suites.
#: CI's weekly cron exports REPRO_ORACLE_BUDGET=20 for a deep run;
#: the default keeps the tier-1 suite fast.
_BUDGET = max(1, int(os.environ.get("REPRO_ORACLE_BUDGET", "1")))


def _agree_everywhere(grid: GridIndex, naive: NaiveIndex, rng, probes=20):
    """End-state sweep: all three implementations on random queries."""
    trio = [naive, grid, fresh_gridindex(naive)]
    for _ in range(probes):
        x, y = rng.uniform(-300, 1300, size=2)
        r = float(rng.uniform(0, 500))
        assert_same_answers(trio, "query_radius", x, y, r)
        assert_same_answers(trio, "query_rect", x - r, y - r, x + r, y + r)
        assert_same_answers(trio, "nearest", x, y, None)


class TestAdoptPositions:
    """Whole-array adoption (the ``Network.snapshot`` fast path)."""

    def test_adopt_matches_naive_and_rebuild(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 1000, size=(80, 2))
        grid = GridIndex(pos.copy(), 130.0)
        naive = NaiveIndex(pos, 130.0)
        for step in range(40):
            # Small perturbations: most nodes stay in their cell.
            new_pos = grid.positions + rng.normal(0, 15.0, size=(80, 2))
            assert grid.adopt_positions(new_pos.copy()) == (
                naive.adopt_positions(new_pos)
            ), f"step {step}"
            if step % 8 == 0:
                _agree_everywhere(grid, naive, rng, probes=4)
        _agree_everywhere(grid, naive, rng)

    def test_adopt_shape_mismatch_raises(self):
        grid = GridIndex(np.zeros((4, 2)), 10.0)
        with pytest.raises(ValueError):
            grid.adopt_positions(np.zeros((5, 2)))

    def test_adopt_takes_ownership(self):
        grid = GridIndex(np.array([[1.0, 1.0], [2.0, 2.0]]), 10.0)
        buf = np.array([[3.0, 3.0], [4.0, 4.0]])
        grid.adopt_positions(buf)
        assert grid.positions is buf


def _adopt_row(grid: GridIndex, i: int, x: float, y: float) -> int:
    """Adopt ``grid``'s positions with row ``i`` moved to ``(x, y)``."""
    new_pos = grid.positions.copy()
    new_pos[i] = (x, y)
    return grid.adopt_positions(new_pos)


class TestAdoptEdgeCases:
    """Single-row adoptions at the index's awkward geometry."""

    def test_adopt_within_cell_does_not_rebucket(self):
        idx = GridIndex(np.array([[10.0, 10.0], [300.0, 300.0]]), 250.0)
        assert _adopt_row(idx, 0, 40.0, 40.0) == 0
        assert idx.query_radius(40.0, 40.0, 1.0).tolist() == [0]
        # The old coordinate no longer matches.
        assert idx.query_radius(10.0, 10.0, 1.0).size == 0

    def test_adopt_across_cell_rebuckets(self):
        idx = GridIndex(np.array([[10.0, 10.0], [300.0, 300.0]]), 250.0)
        assert _adopt_row(idx, 0, 600.0, 600.0) == 1
        assert idx.nearest(610.0, 610.0) == 0
        assert idx.query_rect(0.0, 0.0, 250.0, 250.0).size == 0

    def test_adopt_onto_duplicate_position(self):
        pos = np.array([[10.0, 10.0], [300.0, 300.0], [500.0, 500.0]])
        idx = GridIndex(pos, 250.0)
        _adopt_row(idx, 0, 300.0, 300.0)  # exact duplicate of node 1
        assert idx.query_radius(300.0, 300.0, 0.0).tolist() == [0, 1]
        # Ties break to the smallest index, like a full argmin.
        assert idx.nearest(300.0, 300.0) == 0
        assert idx.nearest(300.0, 300.0, exclude=0) == 1

    def test_adopt_out_of_field_negative_cells(self):
        idx = GridIndex(np.array([[10.0, 10.0], [300.0, 300.0]]), 250.0)
        _adopt_row(idx, 0, -900.0, -1.0)  # far outside the original cells
        assert idx.nearest(-900.0, 0.0) == 0
        assert idx.query_radius(-900.0, -1.0, 5.0).tolist() == [0]
        assert idx.query_rect(-1000.0, -250.0, -800.0, 0.0).tolist() == [0]
        assert idx.nearest(300.0, 300.0, exclude=1) == 0

    def test_adopt_boundary_straddle_exact_edge(self):
        # x = cell_size sits exactly on the boundary: floor(250/250)=1,
        # so the node belongs to cell 1 and an update from 249.999 to
        # 250.0 must rebucket.
        idx = GridIndex(np.array([[249.999, 0.0]]), 250.0)
        assert _adopt_row(idx, 0, 250.0, 0.0) == 1
        assert idx.query_rect(250.0, 0.0, 500.0, 250.0).tolist() == [0]
        assert idx.query_rect(0.0, 0.0, 250.0, 250.0).size == 0
        assert _adopt_row(idx, 0, 249.999, 0.0) == 1
        assert idx.query_rect(0.0, 0.0, 250.0, 250.0).tolist() == [0]

    def test_adopt_empties_and_recreates_buckets(self):
        # Single node ping-ponging between two cells: its old bucket
        # must disappear (not linger empty) and reappear on return.
        idx = GridIndex(np.array([[10.0, 10.0]]), 100.0)
        for _ in range(5):
            assert _adopt_row(idx, 0, 910.0, 910.0) == 1
            assert list(idx._buckets) == [(9, 9)]
            assert idx.query_radius(10.0, 10.0, 50.0).size == 0
            assert idx.query_radius(910.0, 910.0, 50.0).tolist() == [0]
            assert _adopt_row(idx, 0, 10.0, 10.0) == 1
            assert list(idx._buckets) == [(0, 0)]
            assert idx.query_radius(910.0, 910.0, 50.0).size == 0
            assert idx.query_radius(10.0, 10.0, 50.0).tolist() == [0]

    def test_all_nodes_to_same_cell(self):
        # Adversarial pile-up: every node lands on one duplicate point.
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 1000, size=(40, 2))
        idx = GridIndex(pos.copy(), 250.0)
        idx.adopt_positions(np.full((40, 2), 123.456))
        assert idx.query_radius(123.456, 123.456, 0.0).tolist() == list(range(40))
        assert idx.nearest(0.0, 0.0) == 0
        _agree_everywhere(idx, NaiveIndex(idx.positions, 250.0), rng)


class TestRandomizedDifferential:
    def test_long_interleaved_schedule(self):
        """Acceptance: ≥1000 interleaved adopt/query steps, all three
        implementations result-identical throughout."""
        rng = np.random.default_rng(2024)
        pos = rng.uniform(0, 1000, size=(120, 2))
        grid, naive = run_differential(pos, 137.0, steps=1200, rng=rng)
        _agree_everywhere(grid, naive, rng)

    def test_boundary_straddling_trajectories(self):
        # Nodes jitter around exact cell boundaries (multiples of the
        # cell size), the worst case for floor()-based rebucketing.
        rng = np.random.default_rng(7)
        cs = 50.0

        def on_boundaries(size):
            return rng.integers(-3, 4, size=size).astype(
                np.float64
            ) * cs + rng.choice([-1e-9, 0.0, 1e-9], size=size)

        pos = on_boundaries((60, 2))
        grid = GridIndex(pos.copy(), cs)
        naive = NaiveIndex(pos, cs)
        for step in range(400):
            new_pos = naive.positions.copy()
            ids = rng.choice(60, size=int(rng.integers(1, 4)), replace=False)
            new_pos[ids] = on_boundaries((ids.size, 2))
            assert grid.adopt_positions(new_pos.copy()) == (
                naive.adopt_positions(new_pos)
            ), f"step {step}"
            if step % 20 == 0:
                _agree_everywhere(grid, naive, rng, probes=3)
        _agree_everywhere(grid, naive, rng)

    @settings(max_examples=25 * _BUDGET, deadline=None)
    @given(
        st.integers(1, 60),
        st.floats(5.0, 300.0),
        st.integers(0, 10_000),
    )
    def test_differential_property(self, n, cell_size, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-500, 1000, size=(n, 2))
        grid, naive = run_differential(
            pos, cell_size, steps=60, rng=rng,
            coord_range=(-700.0, 1200.0),
        )
        _agree_everywhere(grid, naive, rng, probes=5)

    @settings(max_examples=15 * _BUDGET, deadline=None)
    @given(st.integers(0, 10_000))
    def test_differential_large_population_bucket_paths(self, seed):
        # A 600-node population with many bucket moves per step: the
        # incremental index must stay identical at this size too.
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 2000, size=(600, 2))
        grid, naive = run_differential(
            pos, 100.0, steps=40, rng=rng, coord_range=(-200.0, 2200.0),
            batch_fraction=0.1,
        )
        _agree_everywhere(grid, naive, rng, probes=5)
