"""Core performance harness: times end-to-end ALERT runs.

Unlike the ``bench_fig*`` drivers (which regenerate the paper's
figures), this harness measures the *wall-clock* cost of one
end-to-end ALERT simulation at the paper's defaults, in real-crypto
and cost-only mode, with per-category engine event counters.
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
from repro.experiments.runner import run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_perf.json"


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


def run_harness(quick: bool = False) -> dict:
    """Time the end-to-end runs and assemble the ``timings`` section."""
    run_key = "alert_run_quick" if quick else "alert_run"
    timings: dict = {
        "quick": quick,
        # Six reps full / two quick: single runs are ~1 s and shared
        # machines jitter ±25 %, so the mean needs samples to settle.
        run_key: bench_alert_run(
            10.0 if quick else 60.0, reps=2 if quick else 6
        ),
    }
    if not quick:
        # The quick profile's point, so a quick candidate has a
        # baseline point at its own simulated duration (same setup
        # amortisation).
        timings["alert_run_quick"] = bench_alert_run(10.0, reps=2)
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fast CI smoke profile"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPORT_PATH,
        help=f"report path to merge into (default {REPORT_PATH})",
    )
    args = parser.parse_args(argv)
    timings = run_harness(quick=args.quick)
    merge_section(args.out, "timings", timings)
    print(json.dumps(timings, indent=2, sort_keys=True))
    print(f"\nwrote timings section to {args.out}")
    return 0


def test_perf_harness_smoke(tmp_path):
    """The harness runs end to end and produces a well-formed report."""
    timings = run_harness(quick=True)
    run = timings["alert_run_quick"]
    assert run["mean_s"] > 0.0
    # Per-category counters ship with the report, and cover every
    # processed event (nothing escapes categorisation).
    assert sum(run["event_counts"].values()) == run["events_processed"]
    assert run["cost_only_mean_s"] > 0.0
    out = tmp_path / "BENCH_perf.json"
    merge_section(out, "timings", timings)
    assert json.loads(out.read_text())["schema"] == 1


if __name__ == "__main__":
    raise SystemExit(main())
