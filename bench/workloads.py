"""The benchmark's workloads and the measurement of one seeded run.

Each workload is a set of :class:`repro.experiments.config.ExperimentConfig`
overrides; the seed is the only input the benchmark varies between
runs.  :func:`measure` executes one simulation (optionally under the
span recorder of :mod:`spans`) and returns its timings, an output
fingerprint, invariant violations, the simulated outputs and, when
traced, the per-layer metrics.  ``run.py`` calls it in a process of its
own per run; the self-tests call it in-process.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from typing import NamedTuple


class Workload(NamedTuple):
    """One benchmark workload."""

    #: why the benchmark has it: the layers it stresses
    why: str
    #: ``ExperimentConfig`` overrides (every config is ALERT)
    config: dict
    #: seeded configs one timed invocation measures (see input_seeds)
    inputs: int


#: The traffic block is given as a dict, which ``ExperimentConfig``
#: coerces to ``TrafficConfig``, so this module imports nothing from the
#: program and the orchestrating process stays light.
WORKLOADS: dict[str, Workload] = {
    "paper_200": Workload(
        "the paper's default config (200 nodes, 10 CBR pairs, 100 s): "
        "unicast forwarding, RF partitions and crypto dominate; setup, "
        "hello and MAC stay below their batch cutovers",
        {},
        8,
    ),
    "scale_10k": Workload(
        "bench_scale.py's N=10000 point: setup and the cell-grouped "
        "hello, neighbour ingest, snapshots and location write rounds "
        "dominate; per-packet work is small",
        {
            "n_nodes": 10_000,
            "field_size": round(1000.0 * math.sqrt(10_000 / 200.0), 1),
            "n_pairs": 200,
            "duration": 10.0,
        },
        3,
    ),
    "congested_60": Workload(
        "60 nodes in carrier sense of each other, 25 closed-loop AIMD "
        "pairs at 20 pkt/s: MAC contention, retries, drops, feedback "
        "and timer churn dominate",
        {
            "n_nodes": 60,
            "field_size": 400.0,
            "n_pairs": 25,
            "send_interval": 0.05,
            "duration": 12.0,
            # bench_traffic_adaptive.py's tuned AIMD parameters
            "traffic": {
                "model": "adaptive",
                "min_interval": 0.05,
                "max_interval": 0.5,
                "backoff_factor": 1.25,
                "recovery_step": 0.5,
                "react_to_mac_drops": False,
            },
        },
        3,
    ),
    "anon_200": Workload(
        "paper_200 with notify-and-go and the intersection defense: "
        "cover broadcasts outnumber data ~10:1, so engine dispatch, "
        "broadcast fan-out and neighbour queries dominate",
        {"alert_options": {"notify_and_go": True, "intersection_defense": True}},
        3,
    ),
}


def input_seeds(workload: str, seed: int) -> list[int]:
    """The config seeds a timed invocation at ``seed`` measures.

    Per-event cost differs between seeds of one workload, so a timed
    invocation spreads its runs over several seeded configs; the seeds
    follow the repository's repetition convention
    (``runner.seed_for_run``: ``seed + 1000 i``).
    """
    return [seed + 1000 * i for i in range(WORKLOADS[workload].inputs)]


#: ``FlowRecord.dropped_reason`` values ALERT can produce, as metric
#: suffixes (``:`` is not allowed in a metric name).  Anything else
#: lands in ``drops.other``.
DROP_REASONS = (
    "rf-rounds-exhausted",
    "void-no-progress",
    "link-failure.dead-receiver",
    "link-failure.out-of-range",
    "link-failure.retry-exhausted",
)


def build_config(workload: str, seed: int):
    """The ``ExperimentConfig`` of ``workload`` at ``seed``."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(seed=seed, **WORKLOADS[workload].config)


def fingerprint(result) -> dict:
    """What two runs of one config and seed must agree on."""
    flows = result.metrics.flows()
    latencies = repr([f.latency for f in flows]).encode()
    return {
        "events_processed": result.engine.events_processed,
        "event_counts": dict(sorted(result.event_counts.items())),
        "sent": len(flows),
        "delivered": sum(1 for f in flows if f.delivered),
        "latency_sha256": hashlib.sha256(latencies).hexdigest(),
    }


def check_invariants(result) -> list[str]:
    """Run-wide invariants; returns one message per violation."""
    out = []
    counts = result.event_counts
    processed = result.engine.events_processed
    if sum(counts.values()) != processed:
        out.append(f"event_counts sum {sum(counts.values())} != {processed}")
    flows = result.metrics.flows()
    emitted = sum(src.sent for src in result.sources)
    if emitted != len(flows):
        out.append(f"sources emitted {emitted} packets but {len(flows)} flows exist")
    if any(f.latency < 0 for f in flows if f.delivered):
        out.append("negative latency")
    rate = result.delivery_rate
    if not 0.0 <= rate <= 1.0:
        out.append(f"delivery_rate {rate} outside [0, 1]")
    mac = result.network.mac
    if not mac.drops_total <= mac.collisions_total <= mac.attempts_total:
        out.append("MAC counters violate drops <= collisions <= attempts")
    return out


def outputs(result) -> dict[str, float]:
    """Simulated outputs and run-level counters of one run."""
    flows = result.metrics.flows()
    counters = result.metrics.counters
    lat_ms = sorted(f.latency * 1e3 for f in flows if f.delivered)
    sent = max(len(flows), 1)
    drops = dict.fromkeys(DROP_REASONS, 0)
    drops["other"] = 0
    for f in flows:
        if f.delivered or not f.dropped_reason:
            continue
        reason = f.dropped_reason.replace(":", ".")
        drops[reason if reason in drops else "other"] += 1
    out = {
        "delivery_rate": result.delivery_rate,
        "latency_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "latency_p90_ms": (
            statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else 0.0
        ),
        "mean_hops": result.mean_hops,
        "core.rf_per_packet": sum(f.rf_count for f in flows) / sent,
        # zone deliveries: plain broadcasts, or first-step multicasts
        # under the intersection defense
        "core.zone_broadcasts": counters.get("zone_broadcasts", 0)
        + counters.get("defense_multicasts", 0),
        "traffic.backoffs": result.backoff_events,
        "traffic.recoveries": result.recovery_events,
        # A flow is delivered, dropped, or still in flight at the end;
        # a branch may be dropped before another branch delivers.
        "flows.in_flight": sum(
            1 for f in flows if not f.delivered and not f.dropped_reason
        ),
        "flows.delivered_after_drop": sum(
            1 for f in flows if f.delivered and f.dropped_reason
        ),
    }
    out.update((f"drops.{k}", v) for k, v in drops.items())
    return out


def measure(cfg, tracer=None) -> dict:
    """Run ``cfg`` once, under ``tracer`` if one is given.

    Returns the run's record (see module docstring); the tracer is
    installed for the run only.
    """
    from repro.experiments.runner import run_experiment

    if tracer is not None:
        tracer.install()
    marks: list[float] = []
    try:
        t0 = time.perf_counter()
        result = run_experiment(cfg, on_setup=lambda: marks.append(time.perf_counter()))
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "setup_s": marks[0] - t0,
        "loop_s": t1 - marks[0],
        "wall_s": t1 - t0,
        "events": result.engine.events_processed,
        "fingerprint": fingerprint(result),
        "violations": check_invariants(result),
        "outputs": outputs(result),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(result, t1 - t0)
    return record
