"""Differential-testing oracles: scalar references for batched code.

Spatial index
-------------
The repo's hottest data structure — :class:`repro.geometry.spatial_index.
GridIndex` — is rebucketed incrementally between snapshots, which makes
a spot-check test style (a handful of hand-picked positions) too weak:
an index can answer those correctly while carrying a corrupted bucket
from three updates ago.  This module provides the stronger oracle:

* :class:`NaiveIndex` — a brute-force implementation of the exact
  ``GridIndex`` query contract (sorted results, half-open rects,
  smallest-index tie-breaking, the same ``ValueError`` conditions) that
  is obviously correct by inspection, and
* :func:`assert_same_answers` / :func:`run_differential` — harness
  helpers that drive any number of index implementations through the
  same randomized adopt/query schedule and assert every answer agrees.

Any future index variant (k-d tree, sorted-array sweep, GPU bucketing)
can be dropped into the same harness unchanged.

Key generation
--------------
:func:`scalar_keypair` is the one-candidate-at-a-time prime search
that :func:`repro.crypto.keys.generate_keypair` batches: one scalar
draw per candidate, a 12-base Miller–Rabin per candidate, and pairs
of consecutive primes.  It defines the draw-order contract the batched
path must reproduce key for key and draw for draw.

Hello rounds
------------
:func:`scalar_hello_round` is the one-beacon-at-a-time round that
:meth:`repro.net.network.Network._emit_hello_round` vectorises: live
nodes beacon in ascending id order, each drawing its pseudonym then its
position, and each receiver set comes from one
:meth:`~repro.net.network.Network.neighbors_of` grid query.  Every
counter and neighbor-table row the batched round produces must match it.

Mobility
--------
:func:`scalar_positions` is the one-model-at-a-time snapshot that
:class:`repro.mobility.base.SnapshotInterpolator` batches: one
``position(t)`` call per model in input order.  Every batch snapshot
must match it bit for bit, and querying it draws from shared RNG
streams (RPGM) in the order the batch path must reproduce.

Carrier-sense load
------------------
:func:`naive_local_load` is the contract of
:meth:`repro.net.network.Network._local_load`, which sets every MAC
collision draw: the number of transmissions still in flight (ending
strictly after ``now``) whose origin lies within ``cs_range`` of the
sender, boundary included.  Any cheaper count must match it bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.geometry.primitives import Point
from repro.geometry.spatial_index import GridIndex
from repro.net.neighbor_table import NeighborEntry

# Deterministic Miller-Rabin witness sets: these bases are proven
# sufficient for all n below 3.3e24.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
)


def is_probable_prime(n: int) -> bool:
    """Miller–Rabin primality test (deterministic for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES_64:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: np.random.Generator) -> int:
    """Draw a random prime with exactly ``bits`` bits."""
    if bits < 3:
        raise ValueError(f"bits must be >= 3, got {bits}")
    while True:
        # Force top bit (exact width) and bottom bit (odd).
        raw = int(rng.integers(0, 1 << (bits - 2), dtype=np.uint64))
        candidate = (1 << (bits - 1)) | (raw << 1) | 1
        if is_probable_prime(candidate):
            return candidate


def scalar_keypair(rng: np.random.Generator, bits: int = 64) -> KeyPair:
    """One textbook-RSA keypair, drawn one candidate at a time."""
    half = bits // 2
    e = 65537
    while True:
        p = random_prime(half, rng)
        q = random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return KeyPair(PublicKey(n, e), PrivateKey(n, d))


class NaiveIndex:
    """Brute-force reference with ``GridIndex``'s exact query contract.

    Every query is a full O(N) scan over a private copy of the
    positions, so there is no bucketing state to corrupt — which is
    the point: it serves as the ground truth that incremental
    ``GridIndex`` maintenance is differentially tested against.
    """

    def __init__(self, positions: np.ndarray, cell_size: float = 1.0) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (N, 2), got {positions.shape}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.positions = positions.copy()
        self.cell_size = float(cell_size)

    def __len__(self) -> int:
        return self.positions.shape[0]

    # -- mutation (same signature as GridIndex) ------------------------
    def adopt_positions(self, new_positions: np.ndarray) -> int:
        new_positions = np.asarray(new_positions, dtype=np.float64)
        if new_positions.shape != self.positions.shape:
            raise ValueError(
                f"new_positions must be {self.positions.shape}, "
                f"got {new_positions.shape}"
            )
        cs = self.cell_size
        crossed = int(
            np.count_nonzero(
                np.any(
                    np.floor(self.positions / cs) != np.floor(new_positions / cs),
                    axis=1,
                )
            )
        )
        self.positions = new_positions.copy()
        return crossed

    # -- queries -------------------------------------------------------
    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        d = self.positions - np.array([x, y])
        hits = np.flatnonzero((d * d).sum(axis=1) <= radius * radius)
        return hits.astype(np.int64)  # flatnonzero is already ascending

    def query_rect(self, x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
        if len(self) == 0 or x1 <= x0 or y1 <= y0:
            return np.empty(0, dtype=np.int64)
        p = self.positions
        mask = (p[:, 0] >= x0) & (p[:, 0] < x1) & (p[:, 1] >= y0) & (p[:, 1] < y1)
        return np.flatnonzero(mask).astype(np.int64)

    def nearest(self, x: float, y: float, exclude: int | None = None) -> int:
        if len(self) == 0:
            raise ValueError("nearest() on an empty index")
        d = self.positions - np.array([x, y])
        dist2 = (d * d).sum(axis=1)
        if exclude is not None and 0 <= exclude < len(self):
            dist2 = dist2.copy()
            dist2[exclude] = np.inf
        if not np.isfinite(dist2).any():
            raise ValueError("nearest() on an empty index")
        return int(np.argmin(dist2))  # argmin ties break to smallest index


def fresh_gridindex(index) -> GridIndex:
    """A from-scratch ``GridIndex`` over an index's current positions."""
    return GridIndex(index.positions.copy(), index.cell_size)


def assert_same_answers(
    indices: Sequence, query: str, *args, context: str = ""
) -> None:
    """Assert every index answers one query identically.

    ``nearest`` may legitimately raise ``ValueError`` (empty / only the
    excluded node); in that case every implementation must raise it.
    """
    results = []
    for idx in indices:
        try:
            out = getattr(idx, query)(*args)
        except ValueError:
            out = ValueError
        results.append(out)
    baseline = results[0]
    for idx, got in zip(indices[1:], results[1:]):
        if baseline is ValueError or got is ValueError:
            assert baseline is got, (
                f"{query}{args}: {type(indices[0]).__name__} vs "
                f"{type(idx).__name__} disagree on raising {context}"
            )
        elif query == "nearest":
            assert got == baseline, (
                f"{query}{args}: {got} != {baseline} {context}"
            )
        else:
            assert np.array_equal(got, baseline), (
                f"{query}{args}: {got} != {baseline} {context}"
            )


def run_differential(
    positions: np.ndarray,
    cell_size: float,
    steps: int,
    rng: np.random.Generator,
    coord_range: tuple[float, float] = (-200.0, 1200.0),
    batch_fraction: float = 0.3,
) -> tuple[GridIndex, NaiveIndex]:
    """Drive incremental ``GridIndex`` vs ``NaiveIndex`` through a
    randomized interleaving of position adoptions and queries.

    Every mutation is one ``adopt_positions`` call — the index's only
    write path — on a copy of the current positions with one row or a
    random batch of rows moved, applied to both implementations.  Every
    query — plus, on a sampled subset of steps, a query against a third
    from-scratch ``GridIndex`` rebuilt at the current positions — must
    agree across all of them.  Returns the two long-lived indices so
    callers can run extra end-state assertions.
    """
    grid = GridIndex(np.asarray(positions, dtype=np.float64).copy(), cell_size)
    naive = NaiveIndex(positions, cell_size)
    n = len(naive)
    lo, hi = coord_range
    for step in range(steps):
        ctx = f"(step {step})"
        op = rng.integers(0, 6)
        if op in (0, 1) and n:  # single-row or batch adoption
            if op == 0:
                ids = rng.integers(0, n, size=1)
            else:
                k = int(rng.integers(1, max(2, int(n * batch_fraction)) + 1))
                ids = rng.choice(n, size=min(k, n), replace=False)
            new_pos = naive.positions.copy()
            new_pos[ids] = rng.uniform(lo, hi, size=(ids.size, 2))
            assert grid.adopt_positions(new_pos.copy()) == (
                naive.adopt_positions(new_pos)
            ), ctx
        elif op == 2:
            x, y = rng.uniform(lo - 100, hi + 100, size=2)
            r = float(rng.uniform(0.0, (hi - lo) / 2))
            assert_same_answers(
                [naive, grid], "query_radius", x, y, r, context=ctx
            )
        elif op == 3:
            x0, y0 = rng.uniform(lo - 100, hi, size=2)
            w, h = rng.uniform(0, (hi - lo) / 2, size=2)
            assert_same_answers(
                [naive, grid], "query_rect", x0, y0, x0 + w, y0 + h,
                context=ctx,
            )
        elif op == 4:
            x, y = rng.uniform(lo - 100, hi + 100, size=2)
            exclude = int(rng.integers(0, n)) if n and rng.random() < 0.5 else None
            assert_same_answers(
                [naive, grid], "nearest", x, y, exclude, context=ctx
            )
        else:
            # Full cross-check: incremental vs from-scratch rebuild vs
            # brute force, all three on one radius + rect + nearest.
            trio = [naive, grid, fresh_gridindex(naive)]
            x, y = rng.uniform(lo, hi, size=2)
            r = float(rng.uniform(0.0, (hi - lo) / 3))
            assert_same_answers(trio, "query_radius", x, y, r, context=ctx)
            assert_same_answers(
                trio, "query_rect", x - r, y - r, x + r, y + r, context=ctx
            )
            assert_same_answers(trio, "nearest", x, y, None, context=ctx)
    return grid, naive


def scalar_hello_round(net) -> None:
    """One beacon round on ``net``, one scalar beacon per live node."""
    now = net.engine.now
    hello_air = net.radio.tx_time(net.hello_size_bytes)
    for node in net.nodes:
        if not node.active:
            continue
        net.hello_tx += 1
        node.tx_count += 1
        net.airtime_tx_s += hello_air
        entry = NeighborEntry(
            link_address=node.id,
            pseudonym=node.pseudonym_at(now),
            position=node.position(now),
            public_key=node.keypair.public,
            last_seen=now,
        )
        receivers = net.neighbors_of(node.id)
        net.airtime_rx_s += hello_air * len(receivers)
        for rid in receivers:
            net.nodes[rid].neighbors.update(entry)


def scalar_positions(models: Sequence, t: float) -> np.ndarray:
    """Positions of ``models`` at ``t`` as an ``(n, 2)`` float64 array."""
    out = np.empty((len(models), 2), dtype=np.float64)
    for k, m in enumerate(models):
        p = m.position(t)
        out[k, 0] = p.x
        out[k, 1] = p.y
    return out


def naive_local_load(
    entries: Iterable[tuple[float, float, float]],
    now: float,
    around: Point,
    cs_range: float,
) -> float:
    """In-flight ``(end, x, y)`` entries within ``cs_range`` of ``around``.

    One full scan with no heap or expiry state: an entry ending at or
    before ``now`` is over, and a squared distance equal to
    ``cs_range ** 2`` is in range.
    """
    cs2 = cs_range * cs_range
    count = 0
    for end, x, y in entries:
        if end <= now:
            continue
        dx = x - around.x
        dy = y - around.y
        if dx * dx + dy * dy <= cs2:
            count += 1
    return float(count)
