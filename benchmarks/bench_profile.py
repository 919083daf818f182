"""Profile one end-to-end simulation run under cProfile.

The per-run kernel's optimisation loop needs to know *where* the
remaining microseconds per event go; this driver answers that by
wrapping a single :func:`repro.experiments.runner.run_experiment` in
cProfile and printing the top-N cumulative table, e.g.::

    PYTHONPATH=src python benchmarks/bench_profile.py
    PYTHONPATH=src python benchmarks/bench_profile.py \
        --protocol GPSR --n-nodes 100 --duration 20 --top 40 --sort tottime
    PYTHONPATH=src python benchmarks/bench_profile.py \
        --dump /tmp/alert.pstats     # raw stats for snakeviz & friends

cProfile inflates call-heavy helpers ~2x (fixed per-call cost), so the
table is for *relative* attribution; absolute timings belong to the
un-profiled harness (``benchmarks/bench_perf_core.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import time
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def format_stats(
    prof: cProfile.Profile, top: int = 30, sort: str = "cumulative"
) -> str:
    """Render a profile as a top-``top`` table sorted by ``sort``."""
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return buf.getvalue()


def profile_run(
    cfg: ExperimentConfig,
    top: int = 30,
    sort: str = "cumulative",
    dump: Path | None = None,
) -> tuple[cProfile.Profile, str, float]:
    """Profile one run; returns (profile, formatted table, wall seconds)."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    result = prof.runcall(run_experiment, cfg)
    wall = time.perf_counter() - t0
    if dump is not None:
        pstats.Stats(prof).dump_stats(str(dump))
    counts = result.event_counts
    header = (
        f"profiled {cfg.protocol} run: n_nodes={cfg.n_nodes} "
        f"duration={cfg.duration}s seed={cfg.seed} | "
        f"wall={wall:.3f}s (cProfile overhead included) | "
        f"events={result.engine.events_processed} "
        f"by category={dict(sorted(counts.items()))}"
    )
    return prof, header + "\n" + format_stats(prof, top=top, sort=sort), wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", default="ALERT")
    parser.add_argument("--n-nodes", type=int, default=200)
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--n-pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--top", type=int, default=30, help="rows of the stats table"
    )
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key"
    )
    parser.add_argument(
        "--dump",
        type=Path,
        default=None,
        help="also write the raw pstats file here",
    )
    args = parser.parse_args(argv)
    cfg = ExperimentConfig(
        protocol=args.protocol,
        n_nodes=args.n_nodes,
        duration=args.duration,
        n_pairs=args.n_pairs,
        seed=args.seed,
    )
    _, report, _ = profile_run(
        cfg, top=args.top, sort=args.sort, dump=args.dump
    )
    print(report)
    if args.dump is not None:
        print(f"wrote raw stats to {args.dump}")
    return 0


def test_profile_run_smoke(tmp_path):
    """The profiler wraps a tiny run and produces a readable table."""
    cfg = ExperimentConfig(
        protocol="ALERT", n_nodes=20, duration=2.0, n_pairs=2,
        field_size=400.0,
    )
    dump = tmp_path / "run.pstats"
    prof, report, wall = profile_run(cfg, top=10, dump=dump)
    assert wall > 0.0
    assert "run_experiment" in report  # the run is attributed
    assert "cumulative" in report  # pstats printed its sorted table
    assert dump.exists() and dump.stat().st_size > 0
    # The raw dump round-trips through pstats for external viewers.
    stats = pstats.Stats(str(dump))
    assert stats.total_calls > 0


if __name__ == "__main__":
    raise SystemExit(main())
