"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``.

The workloads themselves take seconds to minutes, so these tests run
small stand-ins that exercise the same code paths (zone broadcast and
the intersection defense, MAC contention with closed-loop feedback,
GPSR perimeter mode).
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys

import pytest

import repro
from repro.experiments.config import ExperimentConfig

import compare
import run
import spans
from spans import SITES, Tracer, site_name
from workloads import WORKLOADS, measure

SPEC = json.loads(run.SPEC_PATH.read_text())

SMALL = {
    # notify-and-go covers, the defended zone multicast, holder releases
    "anon": ExperimentConfig(
        n_nodes=20, field_size=400.0, duration=2.0, n_pairs=2, send_interval=0.5,
        alert_options={"notify_and_go": True, "intersection_defense": True},
    ),
    # plain zone broadcast + rebroadcast, MAC retries, link failures,
    # AIMD feedback, neighbourhoods above the batched-greedy cutover
    "congested": ExperimentConfig(
        n_nodes=40, field_size=300.0, duration=3.0, n_pairs=10,
        send_interval=0.05, traffic=WORKLOADS["congested_60"].config["traffic"],
    ),
    # GPSR's greedy/perimeter forwarding and keyed neighbour lookups
    "gpsr": ExperimentConfig(
        protocol="GPSR", n_nodes=40, field_size=1500.0, duration=6.0,
        n_pairs=8, send_interval=0.5,
    ),
}

#: Entry points no workload calls: batch MAC paths (no production
#: caller; ``broadcast_fanout`` never reaches ``_BATCH_MIN`` at
#: ``multicast_m=3``), neighbour-table writes the hello round inlines
#: or never makes, the unused nearest-node oracle, and cost-only
#: crypto (every workload runs real ciphers).  Pinned at zero so a
#: change that starts or stops calling one is noticed here.
UNEXERCISED = {
    "repro.net.mac.Mac80211Dcf.unicast_batch",
    "repro.net.mac.Mac80211Dcf.broadcast_batch",
    "repro.net.network.Network.node_nearest_to",
    "repro.net.neighbor_table.NeighborTable.update",
    "repro.net.neighbor_table.NeighborTable.bulk_update",
    "repro.net.neighbor_table.NeighborTable.ingest_shared",
    "repro.net.neighbor_table.NeighborTable.purge",
    "repro.crypto.cipher.SymmetricCipher.encrypt_cost_only",
    "repro.crypto.cipher.PublicKeyCipher.encrypt_cost_only",
}


#: Modules whose alias of a wrapped module function is left unpatched:
#: package re-exports, offline analysis, and protocols no workload runs.
OFF_PATH_ALIASES = {
    "repro.core",
    "repro.crypto",
    "repro.analysis.zone_residency",
    "repro.routing.alarm",
    "repro.routing.ao2p",
    "repro.routing.zap",
}


def _patched_attrs() -> dict[str, object]:
    return {
        site_name(owner, attr): vars(spans._resolve(owner))[attr]
        for _, owner, attr in SITES
    }


@pytest.fixture(scope="module")
def traced_small():
    """One traced and one untraced record per small config, plus tracers."""
    out = {}
    for name, cfg in SMALL.items():
        tracer = Tracer()
        out[name] = (measure(cfg), measure(cfg, tracer), tracer)
    return out


def test_traced_run_matches_untraced(traced_small):
    for name, (plain, traced, _) in traced_small.items():
        assert plain["violations"] == [], name
        assert traced["violations"] == [], name
        assert traced["fingerprint"] == plain["fingerprint"], name
        assert plain["fingerprint"]["delivered"] > 0, name


def test_every_entry_point_is_exercised(traced_small):
    calls = {site_name(o, a): 0 for _, o, a in SITES}
    for _, _, tracer in traced_small.values():
        for site, n in tracer.calls.items():
            calls[site] += n
    assert UNEXERCISED <= set(calls)
    missed = sorted(s for s, n in calls.items() if n == 0 and s not in UNEXERCISED)
    assert missed == []
    assert {s: calls[s] for s in UNEXERCISED} == dict.fromkeys(UNEXERCISED, 0)


def test_no_unpatched_alias():
    """A module that imported a wrapped function by name (as
    ``repro.core.alert`` does ``next_hop_greedy_batched``) must be
    patched too, or its calls escape the span recorder."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    originals = {
        id(vars(spans._resolve(owner))[attr]): attr
        for _, owner, attr in SITES
        if ":" not in owner
    }
    tracer = Tracer()
    tracer.install()
    try:
        unpatched = sorted(
            f"{name}.{attr}"
            for name, module in list(sys.modules.items())
            if name.startswith("repro.") and name not in OFF_PATH_ALIASES
            for attr, value in vars(module).items()
            if id(value) in originals and value.__module__ != name
        )
    finally:
        tracer.uninstall()
    assert unpatched == []


def test_self_times_sum_to_traced_wall(traced_small):
    for name, (_, traced, tracer) in traced_small.items():
        assert all(s >= 0.0 for s in tracer.self_s.values()), name
        coverage = traced["layers"]["trace.coverage"]
        assert 0.95 <= coverage <= 1.0, (name, coverage)


def test_originals_restored():
    before = _patched_attrs()
    tracer = Tracer()
    measure(SMALL["anon"], tracer)
    assert _patched_attrs() == before
    with pytest.raises(RuntimeError):
        tracer.install()
        tracer.install()
    tracer.uninstall()
    assert _patched_attrs() == before


def test_uninstall_after_failed_run():
    before = _patched_attrs()
    with pytest.raises(ValueError):
        measure(SMALL["anon"].with_(k=0), Tracer())
    assert _patched_attrs() == before


def test_emitted_names_are_declared(traced_small):
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(name_re.fullmatch(n) for n in names)
    plain, traced, _ = traced_small["anon"]
    plain["peak_rss_mb"] = traced["peak_rss_mb"] = 100.0
    e2e = run.end_to_end([plain])
    layers = run.per_layer_values(traced, [plain["wall_s"]])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_spec_follows_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert "setup_s" in bounds and bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert len(SPEC["per_layer"]) <= 128 and len(SPEC["end_to_end"]) <= 16


def test_judge_flags_disagreeing_runs():
    fp = {"events_processed": 1}
    ok = lambda f: {"fingerprint": f, "violations": []}  # noqa: E731
    untraced = [ok(fp), ok(fp), ok({"events_processed": 2}), {"error": "boom"}]
    traced = [ok({"events_processed": 3})]
    reasons = run.judge(untraced, traced)
    assert reasons == [
        "fingerprint differs from another rep",
        "boom",
        "traced fingerprint differs from untraced",
    ]
    assert "failure" not in untraced[0]
    bad = [ok(fp)]
    bad[0]["violations"] = ["negative latency"]
    assert run.judge(bad, []) == ["invariant: negative latency"]


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1, False) == "worse"
    assert compare.verdict(base, [v * 1.02 for v in base], "lower", 0.1, False) == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1, False) == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1, False) == "worse"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.5]
    assert compare.verdict(base, noisy, "lower", 0.1, False) == "unresolved"
    parent = [1.0 + 0.001 * i for i in range(10)]
    change = [p - 0.02 for p in parent]
    assert compare.verdict(parent, change, "lower", 0.1, True) == "better"
    change[0] = parent[0] + 0.01
    change[1] = parent[1] + 0.01
    assert compare.verdict(parent, change, "lower", 0.1, True) == "unchanged"


def test_runner_forks_runs_and_reaps_zygote():
    with run.Runner() as runner:
        failed = runner.run("no_such_workload", 1, False)
        record = runner.run("paper_200", 1, False)
        zygote = runner._proc.pid
    assert failed == {"error": "KeyError: 'no_such_workload'"}
    assert record["violations"] == []
    assert record["fingerprint"]["sent"] == 496
    assert 0 < record["setup_s"] < record["wall_s"] and record["peak_rss_mb"] > 0
    with pytest.raises(ProcessLookupError):
        os.kill(zygote, 0)


def test_fails_without_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
