"""The benchmark of record: seeded ALERT workloads, end-to-end and per-layer.

Every simulation runs in its own process, forked from a process that
has only imported the program, one at a time, with
``OPENBLAS_NUM_THREADS=1``.  End-to-end metrics come from untraced runs;
per-layer metrics come from a separate traced run whose spans are
recorded by wrapping each layer's entry points from outside the
program (``spans.py``).  Every run's outputs are fingerprinted and
checked (``workloads.py``); a run that raises, breaks an invariant, or
disagrees with another run of the same workload and seed has failed.

Full benchmark (warm-up, ``--reps`` rounds over all workloads in
rotating order, then one traced run per workload; writes a JSON
report, prints every metric, exits non-zero if any run failed)::

    python bench/run.py [--seed S] [--reps R] [--out FILE]

One workload for a fixed time, printing one JSON result line (untraced
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``)::

    python bench/run.py --workload paper_200 --seed 3 --seconds 20 --trace 0

Metric names, units, directions and bounds are declared in the
repository's ``BENCHMARK.json``; every declared metric is emitted and
nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, input_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = BENCH_DIR / "out" / "report.json"

#: A single simulation that takes longer than this has hung (the
#: slowest, a traced scale_10k run, takes ~6 s).
CHILD_TIMEOUT_S = 60.0

#: A timed invocation starts no new run after this many seconds, so
#: even a hung last run ends it inside 180 s.
DEADLINE_S = 100.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared metrics with units and bounds."""
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# one run per forked child
# ----------------------------------------------------------------------
def zygote_main() -> int:
    """Serve run requests, one forked child per request.

    Reads ``[workload, seed, trace]`` JSON lines from stdin and answers
    each with the run's JSON record on one stdout line.  This process
    only imports the program; every run happens in a child forked from
    it, so each run starts from the same pristine heap (long-lived
    processes drift 10–20 % from allocator history) without paying the
    ~1 s of imports a fresh interpreter would.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments.runner  # noqa: F401  (loaded before any fork)
    from spans import Tracer
    from workloads import build_config, measure

    for line in sys.stdin:
        workload, seed, trace = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            # stdout carries answers to the parent; keep the run off it
            os.dup2(2, 1)
            code = 0
            try:
                try:
                    record = measure(
                        build_config(workload, seed), Tracer() if trace else None
                    )
                    record["peak_rss_mb"] = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    )
                except Exception as exc:  # reported as a failed run
                    traceback.print_exc()
                    record = {"error": f"{type(exc).__name__}: {exc}"}
                with os.fdopen(write_fd, "w") as out:
                    out.write(json.dumps(record))
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as inp:
            answer = inp.read()
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not answer:
            answer = json.dumps({"error": f"run exited with {code}"})
        print(answer, flush=True)
    return 0


class Runner:
    """Runs simulations in children of one zygote process (see above).

    Use as a context manager: leaving it closes the zygote and waits for
    it.  A run that outlives ``CHILD_TIMEOUT_S`` is killed with its
    zygote, which the next run replaces.
    """

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, workload: str, seed: int, trace: bool) -> dict:
        """One run's record, or ``{"error": ...}`` if it raised or hung."""
        if self._proc is None:
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            self._proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--zygote"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=env, cwd=ROOT, start_new_session=True,
            )
        proc = self._proc
        try:
            proc.stdin.write(json.dumps([workload, seed, trace]) + "\n")
            proc.stdin.flush()
        except BrokenPipeError:
            self._kill()
            return {"error": "zygote exited"}
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line:
            self._kill()
            return {"error": f"no answer within {CHILD_TIMEOUT_S:.0f} s"}
        return json.loads(line)

    def _kill(self) -> None:
        proc, self._proc = self._proc, None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()

    def close(self) -> None:
        """Stop the zygote and wait for it (idempotent)."""
        if self._proc is None:
            return
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._kill()
        else:
            self._proc.stdout.close()
            self._proc = None


# ----------------------------------------------------------------------
# checking and aggregation
# ----------------------------------------------------------------------
def judge(untraced: list[dict], traced: list[dict]) -> list[str]:
    """Mark failed runs in place (``record["failure"]``); return reasons.

    The reference fingerprint is the most common one among the
    untraced runs that completed; any run that disagrees with it — an
    untraced rep (non-determinism) or a traced run (the wrappers
    perturbed behaviour) — has failed, as has any run that raised or
    broke an invariant.
    """
    keys = [json.dumps(r["fingerprint"], sort_keys=True) for r in untraced
            if "error" not in r]
    reference = max(set(keys), key=keys.count) if keys else None
    reasons = []
    for r in untraced + traced:
        if "error" in r:
            r["failure"] = r["error"]
        elif r["violations"]:
            r["failure"] = "invariant: " + "; ".join(r["violations"])
        elif json.dumps(r["fingerprint"], sort_keys=True) != reference:
            r["failure"] = (
                "traced fingerprint differs from untraced"
                if any(r is t for t in traced)
                else "fingerprint differs from another rep"
            )
        if "failure" in r:
            reasons.append(r["failure"])
    return reasons


def completed(runs: list[dict]) -> list[dict]:
    """The runs :func:`judge` did not mark failed."""
    return [r for r in runs if "failure" not in r]


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """End-to-end metrics over completed untraced runs: medians per run.

    A median over single runs tolerates the minority of runs a slow
    burst on a shared host hits.  Throughput is per run, so runs of
    different seeds (whose event counts differ by up to ~20 %) are
    comparable; loop and wall seconds are not, and are not reported.
    """
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "events_per_s": statistics.median(r["events"] / r["loop_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer_values(traced: dict, untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (plus its tracing overhead)."""
    values = dict(traced["layers"])
    values.update(traced["outputs"])
    values["trace.overhead"] = (
        traced["wall_s"] / statistics.median(untraced_walls) - 1.0
        if untraced_walls else 0.0
    )
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def declared(spec: dict, section: str, values: dict) -> dict:
    """``values`` restricted to the metrics ``spec[section]`` declares.

    Raises ``KeyError`` naming any declared metric the run did not
    produce, so the emitted set always equals the declared set.
    """
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise KeyError(f"{section} metrics not produced: {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec[section]}


# ----------------------------------------------------------------------
# timed single-workload invocation
# ----------------------------------------------------------------------
def timed_main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload for ``seconds``; print one JSON result line.

    Untraced (``trace=False``): runs the workload's input seeds in turn
    until each ran once and ``seconds`` have passed.  Traced: one traced
    run of the first input, then untraced runs of it (at least two) for
    the tracing overhead and the fingerprint check.
    """
    spec = load_spec()
    seeds = input_seeds(workload, seed)[: 1 if trace else None]
    start = time.perf_counter()
    runs: dict[int, list[dict]] = {s: [] for s in seeds}
    with Runner() as runner:
        traced = [runner.run(workload, seeds[0], True)] if trace else []
        i = 0
        need = 2 if trace else len(seeds)
        while (i < need or time.perf_counter() - start < seconds) and (
            time.perf_counter() - start < DEADLINE_S
        ):
            s = seeds[i % len(seeds)]
            runs[s].append(runner.run(workload, s, False))
            i += 1
    reasons = [reason for s in seeds
               for reason in judge(runs[s], traced if s == seeds[0] else [])]
    for reason in reasons:
        print(f"[bench] {workload} seed {seed}: run failed: {reason}", file=sys.stderr)
    ok = [r for s in seeds for r in completed(runs[s])]
    if trace:
        if "layers" not in traced[0]:
            return 1
        values = per_layer_values(traced[0], [r["wall_s"] for r in ok])
        chosen = declared(spec, "per_layer", values)
    else:
        if not ok:
            return 1
        chosen = declared(spec, "end_to_end", end_to_end(ok))
    print(json.dumps({
        "correct": not reasons,
        "attempted": len(traced) + sum(map(len, runs.values())),
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if not reasons else 1


# ----------------------------------------------------------------------
# full benchmark
# ----------------------------------------------------------------------
def full_main(seed: int, reps: int, out: Path) -> int:
    """Warm-up, ``reps`` rotating rounds, one traced run per workload."""
    spec = load_spec()
    names = list(WORKLOADS)
    started = time.perf_counter()
    runs: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, dict] = {}

    def log(what: str, rec: dict) -> None:
        print(f"[bench] {what}: "
              + (rec["error"] if "error" in rec else f"{rec['wall_s']:.2f} s"),
              flush=True)

    with Runner() as runner:
        warm = runner.run(names[0], seed, False)
        log(f"warm-up {names[0]}", warm)
        for r in range(reps):
            # Rotate the order so a noisy burst on the host is spread
            # across workloads instead of always hitting the same one.
            for w in names[r % len(names):] + names[: r % len(names)]:
                runs[w].append(runner.run(w, seed, False))
                log(f"round {r + 1}/{reps} {w}", runs[w][-1])
        for w in names:
            traced[w] = runner.run(w, seed, True)
            log(f"traced {w}", traced[w])
    report = {
        "schema": 1,
        "seed": seed,
        "reps": reps,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": {},
    }
    any_failed = False
    for w in names:
        # The warm-up is discarded but still checked and counted.
        checked = runs[w] + ([warm] if w == names[0] else [])
        reasons = judge(checked, [traced[w]])
        ok = completed(runs[w])
        attempted = len(checked) + 1
        entry = {
            "why": WORKLOADS[w].why,
            "attempted": attempted,
            "failed": len(reasons),
            "run_failure_rate": len(reasons) / attempted,
            "failures": reasons,
            "fingerprint": ok[0]["fingerprint"] if ok else None,
            "end_to_end": {},
            "per_layer": {},
        }
        per_rep = [end_to_end([r]) for r in ok]
        for m in spec["end_to_end"] if ok else []:
            vals = [v[m["name"]] for v in per_rep]
            q1, med, q3 = quartiles(vals)
            entry["end_to_end"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "values": vals, "unit": m["unit"],
            }
        if "layers" in traced[w]:
            entry["traced_wall_s"] = traced[w]["wall_s"]
            layer_vals = per_layer_values(traced[w], [r["wall_s"] for r in ok])
            for name, (v, unit) in declared(spec, "per_layer", layer_vals).items():
                entry["per_layer"][name] = {"value": v, "unit": unit}
        any_failed |= bool(reasons)
        report["workloads"][w] = entry
    report["elapsed_s"] = time.perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report)
    print(f"\n[bench] wrote {out} in {report['elapsed_s']:.0f} s")
    return 1 if any_failed else 0


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then where the time goes."""
    for w, entry in report["workloads"].items():
        print(f"\n== {w} (seed {report['seed']}): run_failure_rate "
              f"{entry['run_failure_rate']:.3f} "
              f"({entry['failed']}/{entry['attempted']} runs failed)")
        for reason in entry["failures"]:
            print(f"   failure: {reason}")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<34} {m['median']:>14.6g} {m['unit']:<6} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
        for name, m in entry["per_layer"].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print()
    print(where_time_goes(report))


def where_time_goes(report: dict) -> str:
    """Markdown table: each layer's share of the traced wall time."""
    names = [w for w in WORKLOADS if report["workloads"].get(w, {}).get("per_layer")]
    rows: dict[str, list[str]] = {}
    for w in names:
        layers = report["workloads"][w]["per_layer"]
        wall = report["workloads"][w]["traced_wall_s"]
        for n, m in layers.items():
            if m["unit"] == "s":
                rows.setdefault(n, [""] * len(names))[names.index(w)] = (
                    f"{m['value']:.2f} s ({100 * m['value'] / wall:.0f} %)"
                )
    lines = [
        "| layer time | " + " | ".join(names) + " |",
        "|---" * (len(names) + 1) + "|",
    ]
    for n, cells in sorted(rows.items(), key=lambda kv: kv[0]):
        lines.append(f"| `{n}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure only this workload for --seconds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of a --workload invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced rounds of the full benchmark")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="report path of the full benchmark")
    parser.add_argument("--zygote", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[bench] no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.zygote:
        return zygote_main()
    if args.workload is not None:
        return timed_main(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return full_main(args.seed, args.reps, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
