"""Compare benchmark reports of a parent and a change.

    python bench/compare.py PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]

Arguments are full-benchmark reports written by ``run.py --out``, given
as parent/change pairs in the order they were run.  One row per
workload and end-to-end metric shows each side's median and quartiles,
the change relative to the parent, and a verdict against the metric's
bound from ``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread is wider than the
  bound, and not every change run beats every parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``better`` — with at least ten pairs: the change wins at least nine
  tenths of the pairs and the medians differ by more than the parent's
  quartile spread; with fewer pairs: the change's median is better by
  more than the bound;
* ``unchanged`` — otherwise.

With one pair the samples are each report's untraced runs; with
several pairs they are the per-report medians.  Per-layer metrics
(traced, one run per report) are listed with their relative change and
no verdict.  Exits 1 if any metric is worse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import SPEC_PATH, quartiles

#: Pairs needed before a gain is judged by the pair-win rule.
MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, paired: bool) -> str:
    """The verdict for one metric (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    pq1, pm, pq3 = quartiles(parent)
    cq1, cm, cq3 = quartiles(change)
    spread = max((pq3 - pq1) / abs(pm), (cq3 - cq1) / abs(cm))
    every_run_better = all(sign * c < sign * p for c in change for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved"
    worse_by = sign * (cm - pm) / abs(pm)
    if worse_by > bound:
        return "worse"
    if paired:
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        if wins >= 0.9 * len(parent) and abs(cm - pm) > pq3 - pq1:
            return "better"
    elif -worse_by > bound:
        return "better"
    return "unchanged"


def samples(reports: list[dict], workload: str, metric: str) -> list[float]:
    """One side's samples of an end-to-end metric (see module docstring)."""
    entries = [r["workloads"][workload]["end_to_end"].get(metric) for r in reports]
    entries = [e for e in entries if e]
    if len(entries) == 1:
        return entries[0]["values"]
    return [e["median"] for e in entries]


def compare(parents: list[dict], changes: list[dict], spec: dict) -> list[dict]:
    """One row per workload and metric present on both sides."""
    paired = len(parents) >= MIN_PAIRS
    rows = []
    workloads = [w for w in parents[0]["workloads"] if w in changes[0]["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            p = samples(parents, w, m["name"])
            c = samples(changes, w, m["name"])
            if not p or not c:
                continue
            rows.append({
                "workload": w, "metric": m["name"], "unit": m["unit"],
                "parent": quartiles(p), "change": quartiles(c),
                "verdict": verdict(p, c, m["better"], m["bound"], paired),
            })
        for m in spec["per_layer"]:
            p = [r["workloads"][w]["per_layer"][m["name"]]["value"] for r in parents
                 if m["name"] in r["workloads"][w]["per_layer"]]
            c = [r["workloads"][w]["per_layer"][m["name"]]["value"] for r in changes
                 if m["name"] in r["workloads"][w]["per_layer"]]
            if p and c:
                rows.append({
                    "workload": w, "metric": m["name"], "unit": m["unit"],
                    "parent": quartiles(p), "change": quartiles(c), "verdict": "",
                })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = [json.loads(Path(a).read_text()) for a in argv]
    parents, changes = reports[0::2], reports[1::2]
    rows = compare(parents, changes, json.loads(SPEC_PATH.read_text()))
    print(f"{len(parents)} pair(s){' (pair-win rule)' if len(parents) >= MIN_PAIRS else ''}")
    print(f"{'workload':<13} {'metric':<34} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
    def cell(q1: float, med: float, q3: float, unit: str) -> str:
        spread = f" [{q1:.5g}, {q3:.5g}]" if q1 != q3 else ""
        return f"{med:.5g}{spread} {unit}"

    for r in rows:
        pm, cm = r["parent"][1], r["change"][1]
        delta = f"{100 * (cm - pm) / abs(pm):+.1f}%" if pm else "n/a"
        print(f"{r['workload']:<13} {r['metric']:<34} "
              f"{cell(*r['parent'], r['unit']):>34} {cell(*r['change'], r['unit']):>34} "
              f"{delta:>8}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
