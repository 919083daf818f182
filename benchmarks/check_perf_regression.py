"""CI gate: fail when a perf report regresses against the committed baseline.

Usage (what CI runs after the quick harnesses)::

    PYTHONPATH=src python benchmarks/check_perf_regression.py \
        --baseline BENCH_perf.json --candidate /tmp/BENCH_perf_ci.json

Every gated number is a *point* of a report section, and ``GATES``
lists them: one row per section with its point keys, the metric
compared and which direction is better.  There is one matching rule:
each point the candidate has is compared with the baseline point under
the same key, and both must have been measured at the same
``sim_duration_s`` — fixed per-run setup amortises differently over
different durations, so only like-for-like points are comparable.  A
section missing from either report, a candidate section with none of
its row's points, a point missing from the baseline and a duration
mismatch each fail with a message naming what is missing.  Points the
candidate does not record are not gated: CI's quick run records
``alert_run_quick``, ``n1000`` and ``quick_point`` only, while the
committed full profile records all eight points.

* ``timings`` (``bench_perf_core.py``): mean wall time of the 200-node
  ALERT run, at 10 s (``alert_run_quick``) and 60 s (``alert_run``).
* ``scale`` (``bench_scale.py``): ``loop_min_s``, the minimum loop time
  over a population's reps — the least-interference estimator, stable
  where a mean of one or two draws swings with scheduler noise.
* ``traffic`` (``bench_traffic_adaptive.py``): the seeded goodput ratio
  of adaptive vs CBR sources.  Each traffic point must also satisfy the
  closed-loop invariants: backoff events fired, adaptive offered load
  below CBR's, goodput within 10 % of the CBR baseline.

A point fails when its metric is worse than the baseline's by more than
``MAX_REGRESSION``.  Caveats the threshold absorbs: CI runners are not
the machine the baseline was recorded on, and a 200-node quick run is
~0.2 s of wall-clock, so the gate catches structural regressions (an
optimisation reverted, an accidental O(n) in the event loop), not
single-digit percentages.  Skip it on known-slower PRs with the
``skip-perf-gate`` label (wired in ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Tolerated fractional change in the worse direction.
MAX_REGRESSION = 0.25

#: (section, point keys, metric, better) — one row per gated section.
GATES = (
    ("timings", ("alert_run_quick", "alert_run"), "mean_s", "lower"),
    ("scale", ("n1000", "n2000", "n5000", "n10000"), "loop_min_s", "lower"),
    ("traffic", ("quick_point", "full_point"), "goodput_ratio", "higher"),
)


def traffic_problems(point: dict) -> list[str]:
    """The closed-loop invariants a traffic point violates."""
    problems = []
    adaptive, ratio = point["adaptive"], point["goodput_ratio"]
    if adaptive["backoff_events"] <= 0:
        problems.append("no backoff events (feedback loop inert)")
    if adaptive["offered_load_pps"] >= point["cbr"]["offered_load_pps"]:
        problems.append("adaptive offered load not below CBR")
    if ratio < 0.9:
        problems.append(f"goodput ratio {ratio:.3f} < 0.9")
    return problems


def compare_point(
    section: str,
    key: str,
    metric: str,
    better: str,
    base: dict | None,
    cand: dict,
) -> tuple[bool, str]:
    """Compare one candidate point with the baseline point of its key."""
    label = f"{section} {key} [{metric}]"
    if base is None:
        return False, f"{label}: point missing from baseline report"
    if base.get("sim_duration_s") != cand.get("sim_duration_s"):
        return False, (
            f"{label}: sim_duration_s differs (baseline "
            f"{base.get('sim_duration_s')}, candidate "
            f"{cand.get('sim_duration_s')})"
        )
    b, c = base[metric], cand[metric]
    change = c / b - 1.0
    worse = change if better == "lower" else -change
    sign = "+" if better == "lower" else "-"
    summary = (
        f"{label}: baseline {b:.4g}, candidate {c:.4g} "
        f"({change:+.1%}; limit {sign}{MAX_REGRESSION:.0%})"
    )
    problems = traffic_problems(cand) if section == "traffic" else []
    if worse > MAX_REGRESSION:
        problems.append("regression beyond the limit")
    if problems:
        return False, summary + " | " + "; ".join(problems)
    return True, summary


def check(baseline: dict, candidate: dict) -> list[tuple[bool, str]]:
    """Gate ``candidate`` against ``baseline``: one (ok, line) per point,
    or one failing line per section that cannot be compared."""
    lines = []
    for section, keys, metric, better in GATES:
        base_sec, cand_sec = baseline.get(section), candidate.get(section)
        if cand_sec is None or base_sec is None:
            where = "candidate" if cand_sec is None else "baseline"
            lines.append(
                (False, f"{section}: section missing from {where} report")
            )
            continue
        present = [key for key in keys if key in cand_sec]
        if not present:
            lines.append(
                (False, f"{section}: candidate has none of {', '.join(keys)}")
            )
        for key in present:
            base, cand = base_sec.get(key), cand_sec[key]
            lines.append(
                compare_point(section, key, metric, better, base, cand)
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--candidate", type=Path, required=True)
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    failed = False
    for ok, line in check(baseline, candidate):
        print(line)
        failed |= not ok
    if failed:
        print("FAIL: a gated point regressed or is missing", file=sys.stderr)
        return 1
    print("OK")
    return 0


def _timings(
    mean_s: float,
    duration: float = 10.0,
    key: str = "alert_run_quick",
    **extra,
) -> dict:
    timings = {key: {"mean_s": mean_s, "sim_duration_s": duration}}
    timings.update(extra)
    return {"timings": timings}


def _gate(baseline: dict, candidate: dict, section: str) -> tuple[bool, str]:
    """The single line ``check`` prints for ``section``'s one point."""
    (line,) = [
        (ok, s)
        for ok, s in check(baseline, candidate)
        if s.startswith(section)
    ]
    return line


def test_gate_passes_within_limit():
    ok, summary = _gate(_timings(1.0), _timings(1.17), "timings")
    assert ok and "+17.0%" in summary


def test_gate_fails_beyond_limit():
    ok, _ = _gate(_timings(1.0), _timings(1.5), "timings")
    assert not ok


def test_gate_matches_quick_point_by_key():
    # Full baseline with a quick point: a candidate's 10 s point is
    # compared against alert_run_quick, not the 60 s run (setup
    # amortisation differs across durations).
    base = _timings(
        1.8, 60.0, key="alert_run",
        alert_run_quick={"mean_s": 0.30, "sim_duration_s": 10.0},
    )
    ok, summary = _gate(base, _timings(0.33), "timings")
    assert ok and "alert_run_quick" in summary
    ok, _ = _gate(base, _timings(0.50), "timings")
    assert not ok


def test_gate_fails_without_duration_matched_point():
    ok, summary = _gate(
        _timings(1.8, 60.0, key="alert_run"),
        _timings(0.3, 10.0, key="alert_run"),
        "timings",
    )
    assert not ok and "sim_duration_s differs" in summary and "10.0" in summary


def test_gate_fails_without_baseline_point():
    ok, summary = _gate(
        _timings(1.8, 60.0, key="alert_run"), _timings(0.3), "timings"
    )
    assert not ok and "point missing from baseline" in summary
    assert "alert_run_quick" in summary


def test_gate_fails_on_candidate_without_timings():
    ok, summary = _gate(_full_report(), _with_scale({}, 5.0), "timings")
    assert not ok
    assert summary == "timings: section missing from candidate report"


def test_gate_fails_on_section_without_gated_points():
    ok, summary = _gate(
        _timings(1.0), {"timings": {"hello_round": {"mean_s": 1.0}}}, "timings"
    )
    assert not ok and "none of alert_run_quick, alert_run" in summary


def _with_scale(
    report: dict, loop_min_s: float, duration: float = 10.0, key: str = "n1000"
) -> dict:
    report["scale"] = {
        key: {"loop_min_s": loop_min_s, "sim_duration_s": duration}
    }
    return report


def test_scale_gate_compares_loop_minima():
    base = _with_scale(_timings(1.0), 4.0)
    ok, summary = _gate(base, _with_scale(_timings(1.0), 4.5), "scale")
    assert ok and "loop_min_s" in summary
    ok, _ = _gate(base, _with_scale(_timings(1.0), 6.0), "scale")
    assert not ok


def test_scale_gate_fails_on_doubled_n10000():
    base = _with_scale(_timings(1.0), 2.0, key="n10000")
    cand = _with_scale(_timings(1.0), 4.0, key="n10000")
    ok, summary = _gate(base, cand, "scale")
    assert not ok and "scale n10000" in summary and "+100.0%" in summary


def test_scale_gate_fails_on_duration_mismatch():
    base = _with_scale(_timings(1.0), 30.0, duration=60.0)
    ok, summary = _gate(base, _with_scale(_timings(1.0), 5.2), "scale")
    assert not ok and "sim_duration_s differs" in summary


def test_scale_gate_fails_when_section_missing():
    cand = _with_scale(_timings(1.0), 5.0)
    ok, summary = _gate(_timings(1.0), cand, "scale")
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
    return _with_traffic(_timings(1.0), ratio, **kwargs)


def test_traffic_gate_passes_on_healthy_point():
    ok, summary = _gate(
        _traffic_report(0.95), _traffic_report(0.93), "traffic"
    )
    assert ok and "candidate 0.93" in summary and "quick_point" in summary


def test_traffic_gate_fails_below_absolute_floor():
    ok, summary = _gate(
        _traffic_report(0.95), _traffic_report(0.85), "traffic"
    )
    assert not ok and "< 0.9" in summary


def test_traffic_gate_fails_without_backoffs():
    ok, summary = _gate(
        _traffic_report(0.95), _traffic_report(0.95, backoffs=0), "traffic"
    )
    assert not ok and "inert" in summary


def test_traffic_gate_fails_when_load_not_cut():
    ok, summary = _gate(
        _traffic_report(0.95),
        _traffic_report(0.95, offered=(455.0, 455.0)),
        "traffic",
    )
    assert not ok and "not below CBR" in summary


def test_traffic_gate_fails_without_candidate_section():
    ok, summary = _gate(_traffic_report(0.95), _timings(1.0), "traffic")
    assert not ok and "traffic: section missing" in summary


def test_traffic_gate_fails_on_duration_mismatched_baseline():
    # One matching rule for every section: a baseline point at another
    # simulated duration is not comparable.
    base = _traffic_report(0.99, duration=30.0)
    ok, summary = _gate(base, _traffic_report(0.92), "traffic")
    assert not ok and "sim_duration_s differs" in summary


def _full_report(
    mean_s: float = 1.0, loop_min_s: float = 5.0, backoffs: int = 1500
) -> dict:
    report = _with_scale(_timings(mean_s), loop_min_s)
    return _with_traffic(report, 0.95, backoffs=backoffs)


def _main_rc(tmp_path, baseline: dict, candidate: dict) -> int:
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(baseline))
    cand.write_text(json.dumps(candidate))
    return main(["--baseline", str(base), "--candidate", str(cand)])


def test_main_fails_on_scale_regression(tmp_path):
    # timings and traffic unchanged
    assert _main_rc(tmp_path, _full_report(), _full_report(loop_min_s=9.0)) == 1


def test_main_fails_on_traffic_violation(tmp_path):
    assert _main_rc(tmp_path, _full_report(), _full_report(backoffs=0)) == 1


def test_main_fails_on_missing_section(tmp_path, capsys):
    assert _main_rc(tmp_path, _full_report(), _timings(1.0)) == 1
    out = capsys.readouterr().out
    assert "scale: section missing from candidate report" in out


def test_gate_main_roundtrip(tmp_path):
    assert _main_rc(tmp_path, _full_report(), _full_report(mean_s=2.0)) == 1
    assert _main_rc(tmp_path, _full_report(), _full_report()) == 0


if __name__ == "__main__":
    raise SystemExit(main())
