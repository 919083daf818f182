"""Uniform-grid spatial index for radius (neighbor) queries.

Neighbor discovery is the hot path of every geographic-routing
simulation: each hop asks "which nodes are within radio range of me
right now?".  A uniform grid with cell size equal to the query radius
answers that with a 3×3-cell candidate gather plus one vectorised
distance filter — O(candidates) instead of O(N) per query.  Rect
queries and ``nearest`` are one vectorised scan over every position.

Buckets are built by lexicographically sorting the integer ``(cx, cy)``
cell coordinates.  An earlier revision keyed buckets on a single
multiplicative hash of the pair, which let two distinct cells collide
and silently merge — misplacing their nodes under the first cell's key
and dropping true neighbors.  Sorting on the exact pair cannot collide.

The index is maintained through one call,
:meth:`GridIndex.adopt_positions`, which rebuckets only nodes whose
cell changed, so a snapshot refresh where most nodes stayed in their
cell (the common case — at the paper's default 2 m/s almost nobody
crosses a 250 m cell boundary between hello rounds) costs a vectorised
diff instead of a full sort-and-bucket rebuild (see
:meth:`repro.net.network.Network.snapshot`).
"""

from __future__ import annotations

import numpy as np


class GridIndex:
    """Spatial hash over an ``(N, 2)`` array of positions.

    Parameters
    ----------
    positions:
        Array of shape ``(N, 2)`` of x/y coordinates in metres.  The
        index takes ownership of this array when it is already
        float64 and never writes to it; :meth:`adopt_positions` swaps
        in a new array rather than updating this one in place.
    cell_size:
        Grid pitch; choose the dominant query radius for best
        performance (queries with other radii remain correct).
    """

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (N, 2), got {positions.shape}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.positions = positions
        self.cell_size = float(cell_size)
        self._n = positions.shape[0]
        # Cell coordinates of every node.
        cells = np.floor(positions / self.cell_size).astype(np.int64)
        self._cells = cells
        # Bucket node indices by exact (cx, cy) pair.  The key is the
        # pair's rank in a dense row-major numbering of the occupied
        # bounding box — injective by construction, unlike the old
        # multiplicative hash, which could map two distinct cells to
        # one key and silently merge their buckets.
        if self._n:
            cx_min = int(cells[:, 0].min())
            cy_min = int(cells[:, 1].min())
            cy_max = int(cells[:, 1].max())
            # Injective while the occupied box has < 2^63 cells, i.e.
            # for any field reachable from float64 coordinates.
            stride = np.int64(cy_max - cy_min + 1)
            keys = (cells[:, 0] - cx_min) * stride + (cells[:, 1] - cy_min)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            # Start offsets of each run of equal keys.
            boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [self._n]))
            self._buckets: dict[tuple[int, int], np.ndarray] = {}
            for s, e in zip(starts, ends):
                idx = order[s:e]
                c = cells[idx[0]]
                self._buckets[(int(c[0]), int(c[1]))] = idx
        else:
            self._buckets = {}

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def adopt_positions(self, new_positions: np.ndarray) -> int:
        """Replace the whole coordinate array in one incremental step.

        The fast path behind ``Network.snapshot``: one vectorised cell
        computation + one comparison find the nodes that crossed a cell
        boundary, and only those are rebucketted; the index then owns
        ``new_positions`` (no per-row copying).  Returns the number of
        cell-crossing nodes.
        """
        new_positions = np.asarray(new_positions, dtype=np.float64)
        if new_positions.shape != (self._n, 2):
            raise ValueError(
                f"new_positions must be ({self._n}, 2), "
                f"got {new_positions.shape}"
            )
        if self._n == 0:
            return 0
        cells = np.floor(new_positions / self.cell_size).astype(np.int64)
        old_cells = self._cells
        crossed = np.flatnonzero(
            (cells[:, 0] != old_cells[:, 0]) | (cells[:, 1] != old_cells[:, 1])
        )
        for raw in crossed:
            i = int(raw)
            self._remove_from_bucket(
                (int(old_cells[i, 0]), int(old_cells[i, 1])), i
            )
            self._add_to_bucket((int(cells[i, 0]), int(cells[i, 1])), i)
        self.positions = new_positions
        self._cells = cells
        return int(crossed.size)

    def _remove_from_bucket(self, key: tuple[int, int], i: int) -> None:
        bucket = self._buckets[key]
        if bucket.size == 1:
            del self._buckets[key]
        else:
            self._buckets[key] = bucket[bucket != i]

    def _add_to_bucket(self, key: tuple[int, int], i: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = np.array([i], dtype=np.int64)
        else:
            self._buckets[key] = np.append(bucket, np.int64(i))

    # ------------------------------------------------------------------
    def _gather_cells(
        self, cx0: int, cy0: int, cx1: int, cy1: int
    ) -> np.ndarray:
        """Indices of nodes in cells of the inclusive range given.

        Probes individual buckets when the range is small; falls back
        to one pass over the occupied buckets when probing would touch
        more (mostly empty) cells than buckets exist.
        """
        buckets = self._buckets
        n_cells = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
        chunks = []
        if n_cells <= len(buckets):
            for i in range(cx0, cx1 + 1):
                for j in range(cy0, cy1 + 1):
                    bucket = buckets.get((i, j))
                    if bucket is not None:
                        chunks.append(bucket)
        else:
            for (i, j), bucket in buckets.items():
                if cx0 <= i <= cx1 and cy0 <= j <= cy1:
                    chunks.append(bucket)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)

    def _candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of nodes in cells overlapping the query disk's bbox."""
        reach = int(np.ceil(radius / self.cell_size))
        cx = int(np.floor(x / self.cell_size))
        cy = int(np.floor(y / self.cell_size))
        return self._gather_cells(cx - reach, cy - reach, cx + reach, cy + reach)

    def grouped_candidates(
        self, points: np.ndarray, radius: float
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched candidate gathering for many radius queries.

        Groups the query ``points`` (an ``(M, 2)`` array) by the grid
        cell they fall in and returns one ``(query_indices,
        candidate_indices)`` pair per occupied query cell.  Queries in
        one cell share their candidate gather — the cells overlapping
        the disk bounding box, exactly what :meth:`query_radius` would
        collect for each of them individually — so a caller that
        filters the pairwise distances per group reproduces ``M``
        independent ``query_radius`` calls with ~one gather per
        *occupied cell* instead of one per query, and the pairwise
        arithmetic shrinks from ``M × N`` to ``M × candidates``.

        Candidate indices are **unfiltered** (superset within the cell
        neighborhood); the caller applies the exact distance predicate.
        Query indices within a group ascend (stable grouping).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be (M, 2), got {pts.shape}")
        m = pts.shape[0]
        if m == 0:
            return []
        reach = int(np.ceil(radius / self.cell_size))
        cells = np.floor(pts / self.cell_size).astype(np.int64)
        cx = cells[:, 0]
        cy = cells[:, 1]
        # Injective cell key: dense row-major rank over the queries'
        # own bounding box (same construction as the bucket keys).
        cy_lo = cy.min()
        stride = np.int64(cy.max() - cy_lo + 1)
        keys = cx * stride + (cy - cy_lo)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [m]))
        groups: list[tuple[np.ndarray, np.ndarray]] = []
        for s, e in zip(starts, ends):
            q = order[s:e]
            qx = int(cx[q[0]])
            qy = int(cy[q[0]])
            cand = self._gather_cells(
                qx - reach, qy - reach, qx + reach, qy + reach
            )
            groups.append((q, cand))
        return groups

    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of all nodes within ``radius`` of ``(x, y)``.

        Returns indices sorted ascending (deterministic order matters
        for reproducible protocol tie-breaking).
        """
        cand = self._candidates(x, y, radius)
        if cand.size == 0:
            return cand
        p = self.positions[cand]
        dx = p[:, 0] - x
        dy = p[:, 1] - y
        out = cand[dx * dx + dy * dy <= radius * radius]
        out.sort()
        return out

    def query_rect(self, x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
        """Indices of nodes inside the half-open rect [x0,x1) × [y0,y1).

        One vectorised scan over every position; results are sorted
        ascending.
        """
        p = self.positions
        mask = (p[:, 0] >= x0) & (p[:, 0] < x1) & (p[:, 1] >= y0) & (p[:, 1] < y1)
        return np.flatnonzero(mask)

    def nearest(self, x: float, y: float, exclude: int | None = None) -> int:
        """Index of the node nearest to ``(x, y)``.

        One vectorised ``argmin`` over every position, so ties on
        distance resolve to the smallest node index.

        Parameters
        ----------
        exclude:
            Optional node index to skip (e.g., the querying node).

        Raises
        ------
        ValueError
            If the index is empty or holds only the excluded node.
        """
        if self._n == 0 or (self._n == 1 and exclude == 0):
            raise ValueError("nearest() on an empty index")
        d = self.positions - np.array([x, y])
        dist2 = (d * d).sum(axis=1)
        if exclude is not None and 0 <= exclude < self._n:
            dist2[exclude] = np.inf
        return int(np.argmin(dist2))
