"""Large-field scaling harness: loop cost per event at N=1000–10000.

The paper's evaluation stops at 200 nodes; the repository's large-N
fast lane (delivery records, batched greedy forwarding,
round-batched hello ingest) targets fields an order of magnitude
bigger.  This harness runs one seeded ALERT simulation per population
at the paper's density (200 nodes per 1000 m × 1000 m, so the field
side grows as ``1000·sqrt(N/200)``) and records the *event-loop* cost
per processed event.

Setup cost (key generation, registration, network build) is fixed per
run and grows with N, so naive ``wall / events`` would drown the loop
numbers in setup at short durations.  ``run_experiment``'s ``on_setup``
hook marks the instant the stack is built and the first event is about
to run; everything before it is reported as ``setup_mean_s`` and
everything after as ``loop_mean_s``, and the µs/event figure divides
only the loop time.

Results land in the ``scale`` section of ``BENCH_perf.json`` (the
default ``--out`` merges into an existing report).  Run it directly::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full: N=1000–10000
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # CI: N=1000, 3 reps

or through pytest, which executes the quick profile and asserts the
report is well-formed.  The perf gate compares every recorded point
with the committed baseline's point of the same N — same config, same
duration, so loop times are directly comparable.  Each point records
both the mean and the *minimum* loop time over its reps; the gate
prefers the minimum, which is the standard least-interference
estimator and far less sensitive to scheduler noise than a mean of
one or two draws.  Each population additionally runs in its own
interpreter (see ``_bench_point_isolated``): allocator-arena history
from earlier, smaller points measurably inflates later points' loop
times when the whole sweep shares one process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from _common import event_rate, merge_section, us_per_event
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_perf.json"

#: Seed shared by every scale point; distinct from the golden-trace and
#: alert_run seeds so the three suites never mask each other's drift.
SCALE_SEED = 101

#: Simulated seconds per run.  Short enough that even N=10000 stays
#: minutes, long enough that the data phase dominates the first hello
#: rounds.
SCALE_DURATION = 10.0

#: Full-profile populations with their repetition counts; quick mode
#: runs only the first point, at ``QUICK_REPS`` repetitions.  Three
#: reps at the large points keep ``loop_min_s`` a usable estimator
#: there — host-level scheduler noise arrives in multi-second bursts
#: that can swallow two consecutive draws just when the runs are
#: longest.
SCALE_POINTS = ((1000, 2), (2000, 2), (5000, 3), (10000, 3))

#: Reps for the CI quick point.  Three N=1000 runs cost ~2 s of wall
#: clock and make ``loop_min_s`` a stable gate input; a single draw on
#: a busy runner can swing ±40%.
QUICK_REPS = 3


def scale_config(n_nodes: int, duration: float = SCALE_DURATION) -> ExperimentConfig:
    """The paper's density extrapolated to ``n_nodes``.

    Field side ``1000·sqrt(N/200)`` keeps 200 nodes per km²; pair count
    scales as N/50 so offered load per node matches the 200-node
    default (10 pairs).
    """
    return ExperimentConfig(
        protocol="ALERT",
        n_nodes=n_nodes,
        field_size=round(1000.0 * math.sqrt(n_nodes / 200.0), 1),
        duration=duration,
        n_pairs=n_nodes // 50,
        seed=SCALE_SEED,
    )


def bench_scale_point(n_nodes: int, reps: int) -> dict:
    """One population: mean wall/setup/loop seconds and per-event cost."""
    cfg = scale_config(n_nodes)
    walls: list[float] = []
    setups: list[float] = []
    result = None
    for _ in range(reps):
        # A finished run leaves large cyclic structures (network ↔
        # protocol ↔ engine) to the collector; without an explicit
        # collection here, later points in the sweep pay progressively
        # longer GC pauses for *earlier* points' garbage, inflating
        # their loop numbers by 30%+ at N=5000.
        gc.collect()
        marks: list[float] = []
        t0 = time.perf_counter()
        result = run_experiment(
            cfg, on_setup=lambda: marks.append(time.perf_counter() - t0)
        )
        walls.append(time.perf_counter() - t0)
        setups.append(marks[0])
    events = result.engine.events_processed
    loops = [w - s for w, s in zip(walls, setups)]
    wall = float(np.mean(walls))
    setup = float(np.mean(setups))
    loop = wall - setup
    return {
        "n_nodes": n_nodes,
        "field_size": cfg.field_size,
        "n_pairs": cfg.n_pairs,
        "sim_duration_s": cfg.duration,
        "reps": reps,
        "wall_mean_s": wall,
        "setup_mean_s": setup,
        "loop_mean_s": loop,
        "loop_min_s": float(min(loops)),
        "events_processed": events,
        "event_counts": {
            k: int(v) for k, v in sorted(result.event_counts.items())
        },
        "us_per_event": us_per_event(events, loop),
        "events_per_s": event_rate(events, loop),
    }


def _bench_point_isolated(n_nodes: int, reps: int) -> dict:
    """Run one scale point in a fresh interpreter.

    Loop times drift upward over a long-lived process — each finished
    run leaves the allocator's arenas more fragmented, and by the time
    the N=10000 point runs at the tail of an in-process sweep its loop
    is measurably (~10–20%) slower than the same run in a fresh
    process.  Per-point isolation removes that cross-point interference
    so every population is measured from the same cold-heap start.
    """
    out = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--point",
            str(n_nodes),
            "--reps",
            str(reps),
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def run_scale(quick: bool = False, isolate: bool = True) -> dict:
    """Execute the scaling sweep and assemble the ``scale`` section."""
    points = SCALE_POINTS[:1] if quick else SCALE_POINTS
    section: dict = {
        "quick": quick,
        "seed": SCALE_SEED,
        "sim_duration_s": SCALE_DURATION,
    }
    for n_nodes, reps in points:
        reps = QUICK_REPS if quick else reps
        if isolate:
            point = _bench_point_isolated(n_nodes, reps)
        else:
            point = bench_scale_point(n_nodes, reps)
        section[f"n{n_nodes}"] = point
        print(
            f"[scale] N={n_nodes}: {point['us_per_event']:.1f} µs/event "
            f"({point['events_per_s']:.0f} events/s, "
            f"loop {point['loop_mean_s']:.2f} s, "
            f"setup {point['setup_mean_s']:.2f} s, "
            f"{point['events_processed']} events)",
            flush=True,
        )
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke: N=1000 only, {QUICK_REPS} reps",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPORT_PATH,
        help=f"report path to merge into (default {REPORT_PATH})",
    )
    parser.add_argument(
        "--point",
        type=int,
        default=None,
        help="internal: run one population in-process and print its "
        "JSON point (used by the per-point isolation wrapper)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="repetitions for --point (defaults to the sweep's value)",
    )
    args = parser.parse_args(argv)
    if args.point is not None:
        reps = args.reps
        if reps is None:
            reps = dict(SCALE_POINTS).get(args.point, 2)
        print(json.dumps(bench_scale_point(args.point, reps)))
        return 0
    section = run_scale(quick=args.quick)
    merge_section(args.out, "scale", section)
    print(f"\nwrote scale section to {args.out}")
    return 0


def test_scale_harness_smoke(tmp_path):
    """Quick profile runs end to end and produces a well-formed report."""
    section = run_scale(quick=True)
    point = section["n1000"]
    assert point["events_processed"] > 0
    assert point["loop_mean_s"] > 0.0
    assert 0.0 < point["loop_min_s"] <= point["loop_mean_s"] + 1e-12
    assert point["us_per_event"] > 0.0
    # events/s and µs/event are reciprocal views of the same number.
    assert math.isclose(
        point["events_per_s"] * point["us_per_event"], 1e6, rel_tol=1e-12
    )
    assert sum(point["event_counts"].values()) == point["events_processed"]
    out = tmp_path / "BENCH_perf.json"
    report = merge_section(out, "scale", section)
    assert json.loads(out.read_text())["scale"] == report["scale"]


if __name__ == "__main__":
    raise SystemExit(main())
