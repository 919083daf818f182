"""Tests for the uniform-grid spatial index (vs brute force)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.spatial_index import GridIndex


def brute_radius(positions, x, y, r):
    d = positions - np.array([x, y])
    return set(np.flatnonzero((d * d).sum(axis=1) <= r * r).tolist())


class TestGridIndex:
    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((5, 3)), 10.0)

    def test_invalid_cell_size_raises(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((5, 2)), 0.0)

    def test_empty_index(self):
        idx = GridIndex(np.empty((0, 2)), 10.0)
        assert len(idx) == 0
        assert idx.query_radius(0, 0, 100).size == 0
        with pytest.raises(ValueError):
            idx.nearest(0, 0)

    def test_radius_query_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 1000, size=(300, 2))
        idx = GridIndex(pos, 250.0)
        for _ in range(25):
            x, y = rng.uniform(0, 1000, size=2)
            got = set(idx.query_radius(x, y, 250.0).tolist())
            assert got == brute_radius(pos, x, y, 250.0)

    def test_radius_query_other_radius_still_correct(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 500, size=(120, 2))
        idx = GridIndex(pos, 250.0)  # cell size != query radius
        for r in (50.0, 100.0, 400.0):
            got = set(idx.query_radius(250, 250, r).tolist())
            assert got == brute_radius(pos, 250, 250, r)

    def test_radius_results_sorted(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 100, size=(60, 2))
        idx = GridIndex(pos, 25.0)
        out = idx.query_radius(50, 50, 40)
        assert list(out) == sorted(out)

    def test_rect_query_half_open(self):
        pos = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        idx = GridIndex(pos, 10.0)
        hits = set(idx.query_rect(0, 0, 10, 10).tolist())
        assert hits == {0, 1}  # (10,10) excluded by half-open semantics

    def test_nearest(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        idx = GridIndex(pos, 5.0)
        assert idx.nearest(9.0, 1.0) == 1

    def test_nearest_with_exclusion(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        idx = GridIndex(pos, 5.0)
        assert idx.nearest(0.0, 0.0, exclude=0) == 1

    def test_negative_coordinates(self):
        pos = np.array([[-100.0, -100.0], [-90.0, -100.0], [100.0, 100.0]])
        idx = GridIndex(pos, 50.0)
        got = set(idx.query_radius(-95.0, -100.0, 20.0).tolist())
        assert got == {0, 1}

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 80),
        st.floats(10.0, 400.0),
        st.integers(0, 10_000),
    )
    def test_radius_property(self, n, radius, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 1000, size=(n, 2))
        idx = GridIndex(pos, 137.0)
        x, y = rng.uniform(0, 1000, size=2)
        got = set(idx.query_radius(x, y, radius).tolist())
        assert got == brute_radius(pos, x, y, radius)


def brute_rect(positions, x0, y0, x1, y1):
    p = positions
    mask = (p[:, 0] >= x0) & (p[:, 0] < x1) & (p[:, 1] >= y0) & (p[:, 1] < y1)
    return set(np.flatnonzero(mask).tolist())


def brute_nearest(positions, x, y, exclude=None):
    d = positions - np.array([x, y])
    dist2 = (d * d).sum(axis=1)
    if exclude is not None:
        dist2[exclude] = np.inf
    return int(np.argmin(dist2))


#: Cell pairs that collided under the former multiplicative-hash
#: bucketing (``cx * 0x9E3779B1 + cy``): (a, b) and (a + 1, b - K)
#: hash identically, so their buckets silently merged.
_HASH_K = 0x9E3779B1


def _colliding_positions(cell_size):
    """Positions in distinct cells whose old hash keys collide."""
    pts = []
    for cx, cy in [(0, 0), (1, -_HASH_K), (2, -2 * _HASH_K), (-1, _HASH_K)]:
        # Two points per cell, strictly inside it.
        pts.append(((cx + 0.25) * cell_size, (cy + 0.25) * cell_size))
        pts.append(((cx + 0.75) * cell_size, (cy + 0.75) * cell_size))
    return np.array(pts)


class TestBucketCollisions:
    """Distinct cells must never share a bucket (old hash collided)."""

    def test_colliding_cells_stay_separate(self):
        cs = 10.0
        pos = _colliding_positions(cs)
        idx = GridIndex(pos, cs)
        # Every point must find exactly its cell-mates within the cell.
        for k, (x, y) in enumerate(pos):
            got = set(idx.query_radius(x, y, cs / 2).tolist())
            assert got == brute_radius(pos, x, y, cs / 2), f"point {k}"

    def test_colliding_cells_nearest(self):
        cs = 10.0
        pos = _colliding_positions(cs)
        idx = GridIndex(pos, cs)
        for k, (x, y) in enumerate(pos):
            assert idx.nearest(x, y, exclude=k) == brute_nearest(
                pos, x, y, exclude=k
            )

    def test_colliding_cells_rect(self):
        cs = 10.0
        pos = _colliding_positions(cs)
        idx = GridIndex(pos, cs)
        # A rect covering only the (1, -K) cell.
        x0, y0 = 1 * cs, -_HASH_K * cs
        got = set(idx.query_rect(x0, y0, x0 + cs, y0 + cs).tolist())
        assert got == brute_rect(pos, x0, y0, x0 + cs, y0 + cs)
        assert got == {2, 3}


class TestNearestExclude:
    def test_exclude_with_two_nodes_same_cell(self):
        pos = np.array([[5.0, 5.0], [6.0, 5.0]])
        idx = GridIndex(pos, 100.0)  # both nodes in one cell
        assert idx.nearest(5.0, 5.0, exclude=0) == 1
        assert idx.nearest(6.0, 5.0, exclude=1) == 0

    def test_exclude_with_two_nodes_distant_cells(self):
        pos = np.array([[5.0, 5.0], [995.0, 995.0]])
        idx = GridIndex(pos, 10.0)
        # The nearest node is excluded; the search must keep expanding
        # to the far cell rather than failing or returning node 0.
        assert idx.nearest(5.0, 5.0, exclude=0) == 1

    def test_exclude_only_node_raises(self):
        idx = GridIndex(np.array([[1.0, 1.0]]), 10.0)
        with pytest.raises(ValueError):
            idx.nearest(0.0, 0.0, exclude=0)

    def test_tie_breaks_to_smallest_index(self):
        pos = np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]])
        idx = GridIndex(pos, 7.0)
        assert idx.nearest(0.0, 0.0) == brute_nearest(pos, 0.0, 0.0) == 0


class TestPropertyVsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 60),
        st.floats(5.0, 300.0),
        st.integers(0, 10_000),
    )
    def test_rect_property(self, n, cell_size, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-500, 1000, size=(n, 2))
        idx = GridIndex(pos, cell_size)
        x0, y0 = rng.uniform(-600, 900, size=2)
        w, h = rng.uniform(0, 800, size=2)
        got = idx.query_rect(x0, y0, x0 + w, y0 + h)
        assert list(got) == sorted(got)
        assert set(got.tolist()) == brute_rect(pos, x0, y0, x0 + w, y0 + h)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 60),
        st.floats(5.0, 300.0),
        st.integers(0, 10_000),
        st.booleans(),
    )
    def test_nearest_property(self, n, cell_size, seed, use_exclude):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-500, 1000, size=(n, 2))
        idx = GridIndex(pos, cell_size)
        x, y = rng.uniform(-600, 1100, size=2)
        exclude = int(rng.integers(0, n)) if use_exclude else None
        assert idx.nearest(x, y, exclude=exclude) == brute_nearest(
            pos, x, y, exclude=exclude
        )

    def test_rect_large_population_bucket_path(self):
        # Above the small-N threshold the bucketed gather runs; it must
        # agree with brute force exactly.
        rng = np.random.default_rng(21)
        pos = rng.uniform(0, 2000, size=(900, 2))
        idx = GridIndex(pos, 100.0)
        for _ in range(20):
            x0, y0 = rng.uniform(-100, 1900, size=2)
            w, h = rng.uniform(0, 600, size=2)
            got = idx.query_rect(x0, y0, x0 + w, y0 + h)
            assert list(got) == sorted(got)
            assert set(got.tolist()) == brute_rect(pos, x0, y0, x0 + w, y0 + h)

    def test_nearest_large_population_ring_path(self):
        # Named for the deleted bucket search; still pins ``nearest``
        # above the rect-query cutover.
        rng = np.random.default_rng(22)
        pos = rng.uniform(0, 2000, size=(900, 2))
        idx = GridIndex(pos, 100.0)
        for _ in range(30):
            x, y = rng.uniform(-200, 2200, size=2)
            exclude = int(rng.integers(0, 900)) if rng.random() < 0.5 else None
            assert idx.nearest(x, y, exclude=exclude) == brute_nearest(
                pos, x, y, exclude=exclude
            )

    def test_nearest_large_sparse_clusters(self):
        # Two far-apart clusters with a wide empty gap between them:
        # the nearest node can be many cells away from the query.
        rng = np.random.default_rng(23)
        a = rng.uniform(0, 50, size=(300, 2))
        b = rng.uniform(5000, 5050, size=(300, 2))
        pos = np.vstack([a, b])
        idx = GridIndex(pos, 10.0)
        for x, y in [(25.0, 25.0), (5025.0, 5025.0), (2500.0, 2500.0)]:
            assert idx.nearest(x, y) == brute_nearest(pos, x, y)


class TestNearestCrossover:
    """``nearest`` exclude-handling and tie-breaking on a 512-node set
    and on the same set plus one far-away node (``nearest`` is one
    argmin scan at every N).  Both indices must give identical
    answers."""

    @staticmethod
    def _point_sets(seed):
        rng = np.random.default_rng(seed)
        small = rng.uniform(0, 2000, size=(512, 2))
        # The extra node sits far outside every query so it never wins:
        # both indices answer from the shared 512 points.
        large = np.vstack([small, [[50_000.0, 50_000.0]]])
        return rng, small, large

    def test_both_paths_agree_with_exclude(self):
        rng, small, large = self._point_sets(31)
        scan = GridIndex(small, 100.0)
        big = GridIndex(large, 100.0)
        for _ in range(50):
            x, y = rng.uniform(-100, 2100, size=2)
            exclude = int(rng.integers(0, 512))
            want = brute_nearest(small, x, y, exclude=exclude)
            assert scan.nearest(x, y, exclude=exclude) == want
            assert big.nearest(x, y, exclude=exclude) == want

    def test_excluding_the_unique_nearest_on_both_paths(self):
        rng, small, large = self._point_sets(32)
        scan = GridIndex(small, 100.0)
        big = GridIndex(large, 100.0)
        for _ in range(25):
            x, y = rng.uniform(0, 2000, size=2)
            first = brute_nearest(small, x, y)
            want = brute_nearest(small, x, y, exclude=first)
            assert scan.nearest(x, y, exclude=first) == want
            assert big.nearest(x, y, exclude=first) == want

    def test_duplicate_positions_tie_break_both_paths(self):
        rng, small, large = self._point_sets(33)
        # Make nodes 7 and 11 exact duplicates in both sets.
        for pos in (small, large):
            pos[11] = pos[7]
        scan = GridIndex(small.copy(), 100.0)
        big = GridIndex(large.copy(), 100.0)
        x, y = small[7]
        assert scan.nearest(x, y) == big.nearest(x, y) == 7
        assert scan.nearest(x, y, exclude=7) == 11
        assert big.nearest(x, y, exclude=7) == 11

    def test_out_of_range_exclude_ignored_on_both_paths(self):
        _, small, large = self._point_sets(34)
        scan = GridIndex(small, 100.0)
        big = GridIndex(large, 100.0)
        for exclude in (-1, 517, 10_000):
            want = brute_nearest(small, 500.0, 500.0)
            assert scan.nearest(500.0, 500.0, exclude=exclude) == want
            assert big.nearest(500.0, 500.0, exclude=exclude) == want


class TestAdversarialCollidingCells:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(1.0, 50.0))
    def test_adversarial_colliding_cells_radius(self, seed, cell_size):
        rng = np.random.default_rng(seed)
        base = _colliding_positions(cell_size)
        extra = rng.uniform(0, 4 * cell_size, size=(10, 2))
        pos = np.vstack([base, extra])
        idx = GridIndex(pos, cell_size)
        for x, y in base:
            r = cell_size * float(rng.uniform(0.4, 2.5))
            got = set(idx.query_radius(x, y, r).tolist())
            assert got == brute_radius(pos, x, y, r)
