"""CI gate: fail when ``alert_run`` regresses against the committed baseline.

Usage (what CI runs after the quick harness)::

    PYTHONPATH=src python benchmarks/check_perf_regression.py \
        --baseline BENCH_perf.json --candidate /tmp/BENCH_perf_ci.json \
        --max-regression 0.25

The committed ``BENCH_perf.json`` is a *full* profile (60 simulated
seconds) while CI runs the *quick* one (10 s), so raw means are not
directly comparable — and neither is raw per-event cost, because the
fixed per-run setup (network build, key generation, the first hello
round) amortises over 6x fewer events in a quick run.  Full profiles
therefore also record an ``alert_run_quick`` section measured at the
quick duration; the gate picks the baseline section whose
``sim_duration_s`` matches the candidate and compares **mean wall
time** over that identical workload.  When no section matches, the
gate fails and names the duration it looked for.

A second gate covers the ``scale`` section written by
``benchmarks/bench_scale.py``: CI's ``--quick`` run records one N=1000
point at the same config and duration as the committed baseline's, so
loop times are directly comparable.  The gate compares ``loop_min_s``
(minimum loop time over the point's reps — the least-interference
estimator, stable where a mean of one or two draws swings with
scheduler noise).

A third gate covers the ``traffic`` section written by
``benchmarks/bench_traffic_adaptive.py``.  Unlike the other two it is
deterministic (seeded simulation outputs, not wall time): it asserts
the closed-loop traffic invariants — backoff events fired, adaptive
offered load below CBR's, goodput within 10 % of the CBR baseline —
and additionally bounds the goodput-ratio drop against a
duration-matched baseline point when one exists.

Every gate fails, naming the section, when a report lacks the section
it reads.

Caveats the threshold absorbs: CI runners are not the machine the
baseline was recorded on, and a 200-node quick run is ~0.2 s of
wall-clock, so the gate catches structural regressions (an optimisation
reverted, an accidental O(n) in the event loop), not single-digit
percentages.  Skip it on known-slower PRs with the ``skip-perf-gate``
label (wired in ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check(
    baseline: dict, candidate: dict, max_regression: float
) -> tuple[bool, str]:
    """Compare alert_run mean wall time against the baseline section
    recorded at the candidate's simulated duration (identical
    workload); returns (ok, human-readable summary)."""
    run = candidate["timings"]["alert_run"]
    duration = run.get("sim_duration_s")
    for key in ("alert_run_quick", "alert_run"):
        section = baseline["timings"].get(key)
        if section is not None and section.get("sim_duration_s") == duration:
            break
    else:
        return False, (
            "alert_run: baseline has no alert_run_quick/alert_run section "
            f"at sim_duration_s={duration}"
        )
    base, cand = section["mean_s"], run["mean_s"]
    change = cand / base - 1.0
    summary = (
        f"alert_run [mean_s vs {key}]: baseline {base * 1e3:.3f} ms, "
        f"candidate {cand * 1e3:.3f} ms ({change:+.1%}; "
        f"limit +{max_regression:.0%})"
    )
    return change <= max_regression, summary


def check_scale(
    baseline: dict, candidate: dict, max_regression: float
) -> tuple[bool, str]:
    """Gate the N=1000 scale point's event-loop cost.

    ``bench_scale.py --quick`` and the committed full profile both run
    the same config (seed, field, pairs) at the same simulated
    duration, so loop times are directly comparable — no amortisation
    caveat.  Compares ``loop_min_s`` (min over reps; wall-clock noise
    only ever adds time, so the minimum is the tightest estimate of
    true cost).
    """
    base = (baseline.get("scale") or {}).get("n1000")
    cand = (candidate.get("scale") or {}).get("n1000")
    for name, point in (("baseline", base), ("candidate", cand)):
        if point is None:
            return False, f"scale n1000: section missing from {name} report"
    if base.get("sim_duration_s") != cand.get("sim_duration_s"):
        return False, (
            f"scale n1000: sim_duration_s differs (baseline "
            f"{base.get('sim_duration_s')}, candidate "
            f"{cand.get('sim_duration_s')})"
        )
    b, c = base["loop_min_s"], cand["loop_min_s"]
    change = c / b - 1.0
    summary = (
        f"scale n1000 [loop_min_s]: baseline {b:.4g}, candidate {c:.4g} "
        f"({change:+.1%}; limit +{max_regression:.0%})"
    )
    return change <= max_regression, summary


def check_traffic(
    baseline: dict, candidate: dict, max_regression: float
) -> tuple[bool, str]:
    """Gate the closed-loop traffic point from ``bench_traffic_adaptive.py``.

    Every number in the ``traffic`` section is produced by seeded runs,
    so this gate checks the *closed-loop invariants* on exact values
    rather than wall time: backoff events fired, adaptive offered load
    sits below CBR's, and adaptive goodput stays within 10 % of the CBR
    baseline.  When the baseline report has a duration-matched point,
    the goodput ratio is additionally not allowed to drop by more than
    ``max_regression`` relative to it.
    """
    cand_section = candidate.get("traffic") or {}
    cand = cand_section.get("quick_point") or cand_section.get("full_point")
    if cand is None:
        return False, "traffic: section missing from candidate report"
    ratio = cand["goodput_ratio"]
    problems = []
    if cand["adaptive"]["backoff_events"] <= 0:
        problems.append("no backoff events (feedback loop inert)")
    if cand["adaptive"]["offered_load_pps"] >= cand["cbr"]["offered_load_pps"]:
        problems.append("adaptive offered load not below CBR")
    if ratio < 0.9:
        problems.append(f"goodput ratio {ratio:.3f} < 0.9")
    base_section = baseline.get("traffic") or {}
    rel = ""
    for key in ("quick_point", "full_point"):
        base = base_section.get(key)
        if base and base.get("sim_duration_s") == cand.get("sim_duration_s"):
            change = ratio / base["goodput_ratio"] - 1.0
            rel = f", vs {key} {change:+.1%}"
            if change < -max_regression:
                problems.append(
                    f"ratio fell {-change:.1%} vs baseline {key} "
                    f"(limit {max_regression:.0%})"
                )
            break
    summary = (
        f"traffic: goodput ratio {ratio:.3f}, "
        f"{cand['adaptive']['backoff_events']} backoffs, offered "
        f"{cand['cbr']['offered_load_pps']:.1f} -> "
        f"{cand['adaptive']['offered_load_pps']:.1f} pps{rel}"
    )
    if problems:
        return False, summary + " | " + "; ".join(problems)
    return True, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--candidate", type=Path, required=True)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="tolerated fractional slowdown (default 0.25)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    failed = False
    for gate in (check, check_scale, check_traffic):
        ok, summary = gate(baseline, candidate, args.max_regression)
        print(summary)
        if not ok:
            failed = True
    if failed:
        print("FAIL: regression beyond the limit", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _report(mean_s: float, duration: float = 10.0, **extra) -> dict:
    timings = {"alert_run": {"mean_s": mean_s, "sim_duration_s": duration}}
    timings.update(extra)
    return {"timings": timings}


def test_gate_passes_within_limit():
    ok, summary = check(_report(1.0), _report(1.17), 0.25)
    assert ok and "+17.0%" in summary


def test_gate_fails_beyond_limit():
    ok, _ = check(_report(1.0), _report(1.5), 0.25)
    assert not ok


def test_gate_prefers_duration_matched_quick_section():
    # Full baseline with a quick section: candidate at 10 s must be
    # compared against alert_run_quick, not the 60 s run (setup
    # amortisation differs across durations).
    base = _report(
        1.8, 60.0, alert_run_quick={"mean_s": 0.30, "sim_duration_s": 10.0}
    )
    ok, summary = check(base, _report(0.33), 0.25)
    assert ok and "alert_run_quick" in summary
    ok, _ = check(base, _report(0.50), 0.25)
    assert not ok


def test_gate_fails_without_duration_matched_section():
    ok, summary = check(_report(1.8, 60.0), _report(0.3), 0.25)
    assert not ok and "sim_duration_s=10.0" in summary


def _with_scale(report: dict, loop_min_s: float, duration: float = 10.0) -> dict:
    report["scale"] = {
        "n1000": {"loop_min_s": loop_min_s, "sim_duration_s": duration}
    }
    return report


def test_scale_gate_compares_loop_minima():
    base = _with_scale(_report(1.0), 4.0)
    ok, summary = check_scale(base, _with_scale(_report(1.0), 4.5), 0.25)
    assert ok and "loop_min_s" in summary
    ok, _ = check_scale(base, _with_scale(_report(1.0), 6.0), 0.25)
    assert not ok


def test_scale_gate_fails_on_duration_mismatch():
    base = _with_scale(_report(1.0), 30.0, duration=60.0)
    ok, summary = check_scale(base, _with_scale(_report(1.0), 5.2), 0.25)
    assert not ok and "sim_duration_s differs" in summary


def test_scale_gate_fails_when_section_missing():
    ok, summary = check_scale(
        _report(1.0), _with_scale(_report(1.0), 5.0), 0.25
    )
    assert not ok and "missing from baseline report" in summary


def _with_traffic(
    report: dict,
    ratio: float,
    backoffs: int = 1500,
    offered: tuple[float, float] = (455.0, 420.0),
    duration: float = 12.0,
    point: str = "quick_point",
) -> dict:
    cbr_off, ad_off = offered
    report["traffic"] = {
        point: {
            "sim_duration_s": duration,
            "goodput_ratio": ratio,
            "cbr": {"offered_load_pps": cbr_off, "goodput_pps": 380.0},
            "adaptive": {
                "offered_load_pps": ad_off,
                "goodput_pps": 380.0 * ratio,
                "backoff_events": backoffs,
            },
        }
    }
    return report


def _traffic_report(ratio: float, **kwargs) -> dict:
    return _with_traffic(_report(1.0), ratio, **kwargs)


def test_traffic_gate_passes_on_healthy_point():
    ok, summary = check_traffic(
        _traffic_report(0.95), _traffic_report(0.93), 0.25
    )
    assert ok and "goodput ratio 0.930" in summary and "quick_point" in summary


def test_traffic_gate_fails_below_absolute_floor():
    ok, summary = check_traffic(
        _traffic_report(0.95), _traffic_report(0.85), 0.25
    )
    assert not ok and "< 0.9" in summary


def test_traffic_gate_fails_without_backoffs():
    ok, summary = check_traffic(
        _traffic_report(0.95), _traffic_report(0.95, backoffs=0), 0.25
    )
    assert not ok and "inert" in summary


def test_traffic_gate_fails_when_load_not_cut():
    ok, summary = check_traffic(
        _traffic_report(0.95),
        _traffic_report(0.95, offered=(455.0, 455.0)),
        0.25,
    )
    assert not ok and "not below CBR" in summary


def test_traffic_gate_fails_without_candidate_section():
    ok, summary = check_traffic(_traffic_report(0.95), _report(1.0), 0.25)
    assert not ok and "traffic: section missing" in summary


def test_traffic_gate_ignores_duration_mismatched_baseline():
    # Baseline point at a different simulated duration: absolute checks
    # only, no relative comparison in the summary.
    base = _traffic_report(0.99, duration=30.0)
    ok, summary = check_traffic(base, _traffic_report(0.92), 0.25)
    assert ok and "vs quick_point" not in summary


def _full_report(
    mean_s: float = 1.0, loop_min_s: float = 5.0, backoffs: int = 1500
) -> dict:
    report = _with_scale(_report(mean_s), loop_min_s)
    return _with_traffic(report, 0.95, backoffs=backoffs)


def _main_rc(tmp_path, baseline: dict, candidate: dict) -> int:
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(baseline))
    cand.write_text(json.dumps(candidate))
    return main(["--baseline", str(base), "--candidate", str(cand)])


def test_main_fails_on_scale_regression(tmp_path):
    # alert_run and traffic unchanged
    assert _main_rc(tmp_path, _full_report(), _full_report(loop_min_s=9.0)) == 1


def test_main_fails_on_traffic_violation(tmp_path):
    assert _main_rc(tmp_path, _full_report(), _full_report(backoffs=0)) == 1


def test_main_fails_on_missing_section(tmp_path):
    assert _main_rc(tmp_path, _full_report(), _report(1.0)) == 1


def test_gate_main_roundtrip(tmp_path):
    assert _main_rc(tmp_path, _full_report(), _full_report(mean_s=2.0)) == 1
    assert _main_rc(tmp_path, _full_report(), _full_report()) == 0


if __name__ == "__main__":
    raise SystemExit(main())
