"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables/figures and
prints the same rows/series the paper reports (see DESIGN.md §4 for
the experiment index).  Output goes both to the terminal (so
``pytest benchmarks/ --benchmark-only | tee …`` captures it) and to
``benchmarks/results/<name>.txt``.

Environment knobs:

* ``REPRO_RUNS`` — seeded repetitions per data point (default 2 for
  benchmarks; the paper averages 30).
* ``REPRO_BENCH_DURATION`` — simulated seconds per run (default 60;
  the paper uses 100).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.config import ExperimentConfig

RESULTS_DIR = Path(__file__).parent / "results"


def bench_runs() -> int:
    """Seeded repetitions per data point."""
    return int(os.environ.get("REPRO_RUNS", "2"))


def bench_duration() -> float:
    """Simulated duration per run."""
    return float(os.environ.get("REPRO_BENCH_DURATION", "60"))


def paper_config(**overrides) -> ExperimentConfig:
    """The paper's §5.2 defaults, with the bench duration applied."""
    base = dict(duration=bench_duration())
    base.update(overrides)
    return ExperimentConfig(**base)


def event_rate(events: int, wall_s: float) -> float:
    """Processed engine events per wall-clock second.

    The one throughput definition every perf driver shares — reports
    mixing events/s with its reciprocal (s/event, µs/event) are easy to
    misread across sections, so drivers record both but always derive
    them through here (``event_rate`` and ``1e6 / event_rate``).
    """
    return events / wall_s if wall_s > 0 else float("nan")


def us_per_event(events: int, wall_s: float) -> float:
    """Mean wall-clock microseconds per processed engine event."""
    rate = event_rate(events, wall_s)
    return 1e6 / rate if rate > 0 else float("nan")


def merge_section(out_path: Path, key: str, section: dict) -> dict:
    """Write ``section`` as the ``key`` section of the report at ``out_path``.

    Each perf harness owns one section of ``BENCH_perf.json``
    (``timings``, ``scale``, ``traffic``) and merges it into an existing
    report, preserving the others; a missing file starts as a header
    naming the host (the CI candidate path).  Returns the written report.
    """
    if out_path.exists():
        report = json.loads(out_path.read_text())
    else:
        report = {
            "schema": 1,
            "generated_unix": time.time(),
            "host": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
            },
        }
    report[key] = section
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def sweep_progress(label: str, total: int):
    """Streaming ``on_result`` callback for a sweep of ``total`` seeds.

    The executor streams each completed ``(cell, seed)`` result as it
    arrives (see :mod:`repro.experiments.parallel`); this prints a coarse progress
    line at every ~10 % milestone so long figure regenerations are
    visibly alive instead of silent for minutes.
    """
    done = 0
    next_mark = max(1, total // 10)

    def on_result(cell_idx: int, seed_idx: int, value) -> None:
        nonlocal done, next_mark
        done += 1
        if done >= next_mark or done == total:
            print(
                f"[{label}] {done}/{total} seeds done "
                f"(last: cell {cell_idx} seed {seed_idx})",
                file=sys.stderr,
                flush=True,
            )
            while next_mark <= done:
                next_mark += max(1, total // 10)

    return on_result


def emit(capsys, name: str, text: str) -> None:
    """Print a result table to the real terminal and save it to disk."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    with capsys.disabled():
        print(f"\n{text}\n")


def once(benchmark, fn):
    """Run a regeneration function exactly once under pytest-benchmark.

    The interesting output is the figure data, not the wall-clock of a
    repeated micro-benchmark, so one round is enough — the benchmark
    fixture still records the elapsed time for the summary table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
