"""Golden-trace determinism suite for the per-run simulation kernel.

``tests/data/golden_traces.json`` records three seeded end-to-end runs
(ALERT/RWP, GPSR/RWP, ALERT/RPGM with every defense on) captured on the
pre-optimization kernel.  The optimized engine, vectorized hello
rounds, and crypto fast path must reproduce every metric — including
``events_processed`` and float airtimes via ``repr`` — bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig, TrafficConfig
from repro.experiments.runner import RunResult, run_experiment

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"

GOLDEN_CONFIGS = {
    "alert_rwp": ExperimentConfig(
        protocol="ALERT", n_nodes=100, duration=20.0, n_pairs=5, seed=1
    ),
    "gpsr_rwp": ExperimentConfig(
        protocol="GPSR", n_nodes=100, duration=20.0, n_pairs=5, seed=2
    ),
    "alert_group_defended": ExperimentConfig(
        protocol="ALERT",
        n_nodes=80,
        duration=15.0,
        n_pairs=4,
        seed=3,
        mobility="group",
        n_groups=8,
        group_range=150.0,
        alert_options={
            "intersection_defense": True,
            "notify_and_go": True,
            "enable_confirmation": True,
        },
    ),
    # Large-field config guarding the 1k-node fast lane (typed delivery
    # records, batched greedy forwarding, round-batched hello ingest) at
    # the paper's density scaled to 1000 nodes.
    "alert_rwp_1k": ExperimentConfig(
        protocol="ALERT",
        n_nodes=1000,
        field_size=2236.0,
        duration=5.0,
        n_pairs=20,
        seed=11,
    ),
    # Batch-record guard: big enough (≥2000 nodes) that hello rounds and
    # broadcast fan-outs exercise batched OP_DELIVER_BATCH records and
    # lazy neighbor-table ingest at scale; the trace pins their
    # by-construction ordering equivalence with individual records.
    "alert_rwp_2k": ExperimentConfig(
        protocol="ALERT",
        n_nodes=2000,
        field_size=3162.3,
        duration=5.0,
        n_pairs=40,
        seed=17,
    ),
    # Closed-loop traffic config: congested enough that AIMD backoff
    # actually fires, so the trace pins the whole feedback loop — MAC
    # drop hooks, delivery/timeout reporting, interval arithmetic —
    # not just the open-loop kernel.
    "alert_adaptive": ExperimentConfig(
        protocol="ALERT",
        n_nodes=50,
        field_size=350.0,
        duration=8.0,
        n_pairs=10,
        send_interval=0.1,
        seed=13,
        traffic=TrafficConfig(
            model="adaptive",
            min_interval=0.05,
            max_interval=1.0,
            backoff_factor=1.5,
            recovery_step=0.25,
        ),
    ),
}


def trace_summary(result: RunResult) -> dict:
    """The comparison record: every end-to-end observable, floats via
    ``repr`` so the comparison is bit-exact, not approximate."""
    m = result.metrics
    summary = {
        "events_processed": result.engine.events_processed,
        "packets_sent": m.packets_sent,
        "delivery_rate": repr(result.delivery_rate),
        "mean_latency": repr(result.mean_latency),
        "mean_hops": repr(result.mean_hops),
        "mean_rf_count": repr(result.mean_rf_count),
        "hello_tx": result.network.hello_tx,
        "unicast_tx": result.network.unicast_tx,
        "broadcast_tx": result.network.broadcast_tx,
        "airtime_tx_s": repr(result.network.airtime_tx_s),
        "airtime_rx_s": repr(result.network.airtime_rx_s),
        "counters": {k: repr(v) for k, v in sorted(m.counters.items())},
    }
    if result.feedback is not None:
        # closed-loop runs additionally pin the whole feedback loop;
        # open-loop summaries are unchanged, so pre-existing golden
        # entries compare byte for byte
        summary["feedback"] = result.feedback.counters()
        summary["backoff_events"] = result.backoff_events
        summary["recovery_events"] = result.recovery_events
        summary["final_intervals_s"] = [
            repr(s.interval) for s in result.sources
        ]
    return summary


def load_golden() -> dict:
    with GOLDEN_PATH.open() as f:
        return json.load(f)


class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_kernel_reproduces_golden_trace(self, name):
        golden = load_golden()[name]
        got = trace_summary(run_experiment(GOLDEN_CONFIGS[name]))
        assert got == golden

    def test_event_counts_cover_all_processed_events(self):
        result = run_experiment(GOLDEN_CONFIGS["alert_rwp"])
        counts = result.event_counts
        assert sum(counts.values()) == result.engine.events_processed
        assert counts.get("hello", 0) > 0
        assert counts.get("data", 0) > 0

