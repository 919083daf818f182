"""Core performance harness: times the simulator's hot paths.

Unlike the ``bench_fig*`` drivers (which regenerate the paper's
figures), this harness measures *wall-clock* performance of the
layers every figure regeneration bottlenecks on:

1. position snapshot build (vectorised mobility interpolation),
2. incremental snapshot refresh vs from-scratch index rebuild,
3. spatial-index radius queries (neighbor discovery),
4. a full hello round (snapshot, cell-grouped in-range pass, table
   ingest),
5. one end-to-end ALERT simulation (real crypto and cost-only mode,
   with per-category engine event counters),
6. the neighbor table's sorted-row cache at a dense topology,

plus, optionally, a serial-vs-parallel sweep of one small figure.
``benchmarks/bench_profile.py`` profiles one run under cProfile.

Results land in the ``timings`` section of ``BENCH_perf.json`` at the
repository root so subsequent changes have a perf trajectory to
defend.  The quick profile records the end-to-end run at 10 simulated
seconds as ``alert_run_quick``; the full profile records it at 60 s as
``alert_run`` and again at 10 s as ``alert_run_quick``, so the perf
gate can compare a quick candidate with the committed full baseline by
key.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_perf_core.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_core.py --quick  # CI smoke

or through pytest (``pytest benchmarks/bench_perf_core.py``), which
executes the quick profile and asserts the report is well-formed.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from _common import event_rate, merge_section, us_per_event
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    Cell,
    parallel_map_cells,
    worker_count,
)
from repro.crypto.keys import generate_keypair
from repro.experiments.runner import run_experiment
from repro.experiments.sweeps import metric_delivery_rate
from repro.geometry.field import Field
from repro.geometry.primitives import Point
from repro.geometry.spatial_index import GridIndex
from repro.mobility.random_waypoint import RandomWaypoint
from repro.net.neighbor_table import NeighborEntry, NeighborTable
from repro.net.network import Network
from repro.sim.engine import Engine

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_perf.json"


def _timeit(fn, reps: int) -> dict[str, float]:
    """Run ``fn`` ``reps`` times; report mean/min wall-clock seconds."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {
        "mean_s": float(np.mean(samples)),
        "min_s": float(np.min(samples)),
        "reps": reps,
    }


def _make_network(n_nodes: int) -> Network:
    engine = Engine(seed=7)
    fld = Field(1000.0, 1000.0)
    net = Network(
        engine,
        fld,
        lambda i, rng: RandomWaypoint(fld, rng, speed_min=2.0, speed_max=2.0),
        n_nodes,
    )
    return net


def bench_snapshot_build(n_nodes: int, reps: int) -> dict[str, float]:
    """Cold-cache position snapshot builds (positions + grid index)."""
    net = _make_network(n_nodes)
    net.engine._now = 50.0  # force trajectories to materialise legs
    net.snapshot()  # warm-up: trajectory extension is amortised cost

    def build() -> None:
        net._snapshot_time = -1.0  # invalidate the cache
        net.snapshot()

    out = _timeit(build, reps)
    out["n_nodes"] = n_nodes
    return out


def bench_snapshot_incremental(n_nodes: int, reps: int) -> dict[str, float]:
    """Incremental snapshot refresh vs a forced from-scratch rebuild.

    Two identically-seeded networks advance time in 0.25 s steps (at
    2 m/s nodes move 0.5 m — almost nobody crosses a 250 m cell), one
    refreshing via the incremental diff path, the other with its index
    invalidated before every refresh.  Both produce result-identical
    indices; the incremental path should win on wall-clock.
    """
    inc = _make_network(n_nodes)
    full = _make_network(n_nodes)
    for net in (inc, full):
        net.engine._now = 50.0
        net.snapshot()  # warm-up: trajectory extension is amortised
        # Pre-extend trajectories past the benchmark window so leg
        # materialisation cost doesn't land on either timed path.
        net.engine._now = 50.0 + 0.25 * (reps + 1)
        net.snapshot()
        net.engine._now = 50.0
        net._snapshot_index = None
        net.snapshot()

    def step_incremental() -> None:
        inc.engine._now += 0.25
        inc.snapshot()

    def step_full_rebuild() -> None:
        full.engine._now += 0.25
        full._snapshot_index = None  # force the from-scratch path
        full.snapshot()

    out: dict[str, float] = {"n_nodes": n_nodes}
    incremental = _timeit(step_incremental, reps)
    rebuild = _timeit(step_full_rebuild, reps)
    out["incremental_mean_s"] = incremental["mean_s"]
    out["incremental_min_s"] = incremental["min_s"]
    out["full_rebuild_mean_s"] = rebuild["mean_s"]
    out["full_rebuild_min_s"] = rebuild["min_s"]
    out["reps"] = reps
    out["speedup"] = (
        rebuild["mean_s"] / incremental["mean_s"]
        if incremental["mean_s"] > 0
        else float("nan")
    )
    out["incremental_refreshes"] = inc.snapshot_incremental

    # Index-maintenance only (excluding the mobility interpolation both
    # paths share): adopt_positions vs constructing a fresh GridIndex
    # over the same two consecutive snapshot arrays.
    pos_a = np.array(full.snapshot()[0])
    full.engine._now += 0.25
    full._snapshot_index = None
    pos_b = np.array(full.snapshot()[0])
    cell = full.radio.range_m
    grid = GridIndex(pos_a.copy(), cell)
    flip = [pos_b, pos_a]

    def adopt_only() -> None:
        grid.adopt_positions(flip[0].copy())
        flip.reverse()

    def build_only() -> None:
        GridIndex(flip[0], cell)

    out["index_adopt_mean_s"] = _timeit(adopt_only, reps)["mean_s"]
    out["index_build_mean_s"] = _timeit(build_only, reps)["mean_s"]
    out["index_only_speedup"] = (
        out["index_build_mean_s"] / out["index_adopt_mean_s"]
        if out["index_adopt_mean_s"] > 0
        else float("nan")
    )
    return out


def bench_radius_query(n_nodes: int, reps: int) -> dict[str, float]:
    """Radius queries against a built index (neighbor discovery)."""
    rng = np.random.default_rng(11)
    pos = rng.uniform(0.0, 1000.0, size=(n_nodes, 2))
    index = GridIndex(pos, 250.0)
    centers = rng.uniform(0.0, 1000.0, size=(256, 2))

    def queries() -> None:
        for cx, cy in centers:
            index.query_radius(cx, cy, 250.0)

    out = _timeit(queries, reps)
    out["n_nodes"] = n_nodes
    out["queries_per_rep"] = len(centers)
    return out


def bench_hello_round(n_nodes: int, reps: int) -> dict[str, float]:
    """One full beacon round: snapshot, in-range pass, table ingest."""
    net = _make_network(n_nodes)
    net.engine._now = 10.0
    net.snapshot()
    out = _timeit(net._emit_hello_round, reps)
    out["n_nodes"] = n_nodes
    return out


def bench_alert_run(duration: float, reps: int = 3) -> dict[str, float]:
    """End-to-end ALERT simulations at the paper's defaults.

    Times the run with real crypto and again in ``cost-only`` mode
    (shadow ciphertexts, identical event trace, crypto charged to the
    cost model only).  Multiple reps because a single 200-node run is
    ~1 s and shared machines jitter by ±20 %; the mean is the number
    the CI regression gate defends.  The per-category engine event
    counters of the real run are recorded alongside the timings so a
    perf change that silently alters the workload (rather than the
    per-event cost) is visible in the report diff.
    """
    cfg = ExperimentConfig(
        protocol="ALERT", n_nodes=200, duration=duration, n_pairs=10
    )
    cost_cfg = cfg.with_(
        alert_options={**cfg.alert_options, "crypto_mode": "cost-only"}
    )
    result = run_experiment(cfg)  # warm-up: imports, allocator, caches
    run_experiment(cost_cfg)
    # Interleave the two modes so drifting background load (shared CI
    # machines) biases both samples the same way instead of whichever
    # mode happened to run second.
    real: list[float] = []
    cost_only: list[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_experiment(cfg)
        real.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_experiment(cost_cfg)
        cost_only.append(time.perf_counter() - t0)

    mean_s = float(np.mean(real))
    events = result.engine.events_processed
    out: dict[str, float] = {
        "mean_s": mean_s,
        "min_s": float(np.min(real)),
        "reps": reps,
        "n_nodes": cfg.n_nodes,
        "sim_duration_s": duration,
        "events_processed": events,
        # Throughput via the shared helpers so every driver derives
        # events/s and µs/event the same way (see benchmarks/_common).
        "events_per_s": event_rate(events, mean_s),
        "us_per_event": us_per_event(events, mean_s),
        "event_counts": {
            k: int(v) for k, v in sorted(result.event_counts.items())
        },
        "cost_only_mean_s": float(np.mean(cost_only)),
        "cost_only_min_s": float(np.min(cost_only)),
    }
    return out


def bench_neighbor_live_entries(n_entries: int, reps: int) -> dict[str, float]:
    """``NeighborTable.live_entries`` with and without the sorted cache.

    Routing decisions read the table far more often than hello rounds
    rewrite it; the address-sorted row cache turns every read between
    writes into a filter over a prebuilt list instead of a fresh
    ``sorted()`` of the whole table.  This times a dense topology
    (``n_entries`` neighbors — every node in range at the paper's
    200-node default) at a read:write ratio of 100:1, with the
    uncached baseline simulated by clobbering the cache before each
    read.
    """
    rng = np.random.default_rng(3)
    key = generate_keypair(rng).public
    table = NeighborTable(ttl=3.0)
    table.bulk_update(
        NeighborEntry(
            link_address=i,
            pseudonym=bytes(rng.integers(0, 256, size=8, dtype=np.uint8)),
            position=Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000))),
            public_key=key,
            last_seen=10.0,
        )
        for i in range(n_entries)
    )
    reads = 100

    def cached() -> None:
        for _ in range(reads):
            table.live_entries(11.0)

    def uncached() -> None:
        for _ in range(reads):
            table._sorted = None  # defeat the cache: re-sort per read
            table.live_entries(11.0)

    out: dict[str, float] = {"n_entries": n_entries, "reads_per_rep": reads}
    out["cached_mean_s"] = _timeit(cached, reps)["mean_s"]
    out["uncached_mean_s"] = _timeit(uncached, reps)["mean_s"]
    out["speedup"] = (
        out["uncached_mean_s"] / out["cached_mean_s"]
        if out["cached_mean_s"] > 0
        else float("nan")
    )
    out["reps"] = reps
    return out


def bench_sweep(workers: int, duration: float, runs: int) -> dict[str, float]:
    """Serial vs parallel execution of one small figure sweep."""
    base = ExperimentConfig(duration=duration, n_pairs=5)
    cells = [
        Cell(base.with_(n_nodes=n, protocol=p), metric_delivery_rate, runs)
        for n in (100, 150)
        for p in ("ALERT", "GPSR")
    ]

    t0 = time.perf_counter()
    serial = parallel_map_cells(cells, workers=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = parallel_map_cells(cells, workers=workers)
    parallel_s = time.perf_counter() - t0

    return {
        "cells": len(cells),
        "runs_per_cell": runs,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("nan"),
        "identical_results": serial == parallel,
    }


def run_harness(quick: bool = False, sweep: bool = True) -> dict:
    """Execute every benchmark and assemble the ``timings`` section."""
    reps = 3 if quick else 10
    n_nodes = 200
    run_key = "alert_run_quick" if quick else "alert_run"
    timings: dict = {
        "quick": quick,
        # The end-to-end run goes first: it is the number the CI
        # regression gate defends, and timing it in a fresh process
        # (before the N=2000 benches blow up the allocator's
        # footprint) keeps run-to-run jitter down.
        # Six reps full / two quick: single runs are ~1 s and shared
        # machines jitter ±25 %, so the mean needs samples to settle.
        run_key: bench_alert_run(
            10.0 if quick else 60.0, reps=2 if quick else 6
        ),
        "snapshot_build": bench_snapshot_build(n_nodes, reps),
        # Acceptance target: incremental beats from-scratch at N=2000.
        "snapshot_incremental": bench_snapshot_incremental(
            2000, max(reps, 20)
        ),
        "radius_query": bench_radius_query(n_nodes, reps),
        "hello_round": bench_hello_round(n_nodes, reps),
        "neighbor_live_entries": bench_neighbor_live_entries(
            n_nodes, max(reps, 5)
        ),
    }
    if not quick:
        # The quick profile's point, so a quick candidate has a
        # baseline point at its own simulated duration (same setup
        # amortisation).
        timings["alert_run_quick"] = bench_alert_run(10.0, reps=2)
    if sweep:
        # The env-resolved (CPU-clamped) worker count: forcing a wide
        # pool onto a small host just measured contention (a 4-worker
        # pool on 1 CPU ran the sweep *slower* than serial).
        timings["sweep"] = bench_sweep(
            workers=worker_count(),
            duration=5.0 if quick else 20.0,
            runs=1 if quick else 2,
        )
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fast CI smoke profile"
    )
    parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the serial-vs-parallel sweep comparison",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPORT_PATH,
        help=f"report path to merge into (default {REPORT_PATH})",
    )
    args = parser.parse_args(argv)
    timings = run_harness(quick=args.quick, sweep=not args.no_sweep)
    merge_section(args.out, "timings", timings)
    print(json.dumps(timings, indent=2, sort_keys=True))
    print(f"\nwrote timings section to {args.out}")
    return 0


def test_perf_harness_smoke(tmp_path):
    """The harness runs end to end and produces a well-formed report."""
    timings = run_harness(quick=True, sweep=True)
    for key in (
        "snapshot_build", "radius_query", "hello_round", "alert_run_quick"
    ):
        assert timings[key]["mean_s"] > 0.0
    snap = timings["snapshot_incremental"]
    assert snap["incremental_mean_s"] > 0.0
    assert snap["incremental_refreshes"] > 0  # the diff path really ran
    run = timings["alert_run_quick"]
    # Per-category counters ship with the report, and cover every
    # processed event (nothing escapes categorisation).
    assert sum(run["event_counts"].values()) == run["events_processed"]
    assert run["cost_only_mean_s"] > 0.0
    assert timings["neighbor_live_entries"]["speedup"] >= 1.5
    assert timings["sweep"]["identical_results"]
    out = tmp_path / "BENCH_perf.json"
    merge_section(out, "timings", timings)
    assert json.loads(out.read_text())["schema"] == 1


if __name__ == "__main__":
    raise SystemExit(main())
