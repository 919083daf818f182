"""Build-and-run machinery: config → network → protocol → metrics.

``run_experiment`` executes one seeded simulation; ``run_many``
repeats it over seeds (the paper averages 30 runs and draws confidence
intervals); ``aggregate`` computes mean ± 95 % CI with Student's t.
"""

from __future__ import annotations

import gc
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.alert import AlertProtocol
from repro.core.config import AlertConfig
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MetricsCollector
from repro.geometry.field import Field
from repro.location.service import LocationService
from repro.mobility.group_mobility import make_group_mobility
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.static import StaticPosition
from repro.net.feedback import FlowFeedback
from repro.net.network import Network
from repro.net.traffic import (
    DEFAULT_BACKOFF_KINDS,
    LOSS_DROP,
    LOSS_TIMEOUT,
    AdaptiveSource,
    CbrSource,
)
from repro.routing.alarm import AlarmProtocol
from repro.routing.ao2p import Ao2pProtocol
from repro.routing.base import RoutingProtocol
from repro.routing.gpsr import GpsrProtocol
from repro.routing.zap import ZapProtocol
from repro.sim.engine import Engine

#: Simulated seconds the run continues after the traffic sources stop,
#: so in-flight packets land before metrics are read.  The paper does
#: not say how its runs end (§5).  Read by :func:`run_experiment` at
#: use time.
DRAIN_TIME = 3.0


def default_runs() -> int:
    """Seeded repetitions per data point.

    The paper uses 30; benchmarks default to a faster count, raisable
    via the ``REPRO_RUNS`` environment variable.
    """
    return int(os.environ.get("REPRO_RUNS", "5"))


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    config: ExperimentConfig
    metrics: MetricsCollector
    cost: CryptoCostModel
    protocol: RoutingProtocol
    network: Network
    engine: Engine
    pairs: list[tuple[int, int]]
    #: the traffic sources that drove the run (CBR or adaptive)
    sources: list[CbrSource] = field(default_factory=list)
    #: the delivery-feedback channel (``None`` for open-loop traffic)
    feedback: FlowFeedback | None = None

    # -- §5.2 metric accessors ------------------------------------------
    @property
    def delivery_rate(self) -> float:
        """Fraction of data packets delivered (§5.2 metric 6)."""
        return self.metrics.delivery_rate()

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end delay over delivered packets (metric 5)."""
        return self.metrics.mean_latency()

    @property
    def mean_hops(self) -> float:
        """Accumulated hops / packets sent (metric 4)."""
        return self.metrics.mean_hops()

    @property
    def mean_rf_count(self) -> float:
        """Mean random forwarders per delivered packet (metric 2)."""
        return self.metrics.mean_rf_count()

    @property
    def participating_nodes(self) -> int:
        """Distinct nodes that forwarded any packet (metric 1)."""
        return len(self.metrics.participating_nodes())

    @property
    def event_counts(self) -> dict[str, int]:
        """Processed engine events by category (hello/data/control/...)."""
        return dict(self.engine.event_counts)

    def mean_hops_with_dissemination(self) -> float:
        """Fig. 15a's "ALARM (include id dissemination hops)" metric."""
        base = self.mean_hops
        extra = self.metrics.counters.get("dissemination_rx", 0.0)
        sent = max(self.metrics.packets_sent, 1)
        return base + extra / sent

    # -- traffic / closed-loop accessors --------------------------------
    @property
    def offered_load_pps(self) -> float:
        """Data packets handed to the protocol per simulated second."""
        return self.metrics.packets_sent / max(self.config.duration, 1e-12)

    @property
    def goodput_pps(self) -> float:
        """Data packets delivered end-to-end per simulated second."""
        return self.metrics.packets_delivered / max(self.config.duration, 1e-12)

    @property
    def backoff_events(self) -> int:
        """Total adaptive-source backoff events (0 under CBR)."""
        return sum(getattr(s, "backoff_events", 0) for s in self.sources)

    @property
    def recovery_events(self) -> int:
        """Total adaptive-source recovery events (0 under CBR)."""
        return sum(getattr(s, "recovery_events", 0) for s in self.sources)

    def per_flow_traffic(self) -> list[dict]:
        """Per-pair offered load / goodput / backoff, in source order."""
        counts = self.metrics.per_pair_counts()
        rows = []
        for s in self.sources:
            sent, delivered = counts.get((s.src, s.dst), (0, 0))
            rows.append(
                {
                    "src": s.src,
                    "dst": s.dst,
                    "offered": sent,
                    "delivered": delivered,
                    "backoff_events": getattr(s, "backoff_events", 0),
                    "recovery_events": getattr(s, "recovery_events", 0),
                    "final_interval_s": getattr(
                        s, "interval", self.config.send_interval
                    ),
                }
            )
        return rows


def make_mobility_factory(cfg: ExperimentConfig, engine: Engine, fld: Field):
    """Build the per-node mobility factory for a config."""
    if cfg.mobility == "static" or cfg.speed == 0:
        def static_factory(node_id: int, rng):
            return StaticPosition(fld.random_point(rng))

        return static_factory

    if cfg.mobility == "rwp":
        def rwp_factory(node_id: int, rng):
            return RandomWaypoint(
                fld, rng, speed_min=cfg.speed, speed_max=cfg.speed
            )

        return rwp_factory

    # RPGM: shared group references, built once up front.
    group_rng = engine.rng.stream("group-mobility")
    motions = make_group_mobility(
        fld,
        cfg.n_nodes,
        cfg.n_groups,
        cfg.group_range,
        group_rng,
        speed_min=cfg.speed,
        speed_max=cfg.speed,
    )

    def group_factory(node_id: int, rng):
        return motions[node_id]

    return group_factory


def make_protocol(
    cfg: ExperimentConfig,
    network: Network,
    location: LocationService,
    metrics: MetricsCollector,
    cost: CryptoCostModel,
) -> RoutingProtocol:
    """Instantiate the configured protocol."""
    if cfg.protocol == "ALERT":
        alert_cfg = AlertConfig(
            k=cfg.k, h_override=cfg.h_override, **cfg.alert_options
        )
        return AlertProtocol(network, location, metrics, cost, alert_cfg)
    if cfg.protocol == "GPSR":
        return GpsrProtocol(network, location, metrics, cost)
    if cfg.protocol == "ALARM":
        return AlarmProtocol(network, location, metrics, cost)
    if cfg.protocol == "AO2P":
        return Ao2pProtocol(network, location, metrics, cost)
    if cfg.protocol == "ZAP":
        return ZapProtocol(network, location, metrics, cost)
    raise ValueError(f"unknown protocol {cfg.protocol!r}")


def build_traffic(
    cfg: ExperimentConfig,
    engine: Engine,
    protocol: RoutingProtocol,
    network: Network,
    pairs: list[tuple[int, int]],
    max_packets_per_pair: int | None = None,
) -> tuple[list[CbrSource], FlowFeedback | None]:
    """Instantiate the configured traffic sources for ``pairs``.

    ``traffic.model == "cbr"`` builds the paper's open-loop sources and
    wires nothing else — the run is byte-identical to the pre-feedback
    kernel.  ``"adaptive"`` additionally builds one
    :class:`~repro.net.feedback.FlowFeedback` channel, hands it to the
    protocol (delivery/drop/timeout reports) and the MAC (retry-
    exhausted drop reports), and subscribes every source to its own
    flows.
    """
    tc = cfg.traffic
    common = dict(
        interval=cfg.send_interval,
        size_bytes=cfg.packet_size,
        max_packets=max_packets_per_pair,
    )
    if tc.model == "cbr":
        return [
            CbrSource(
                engine, protocol.send_data, src, dst,
                start_offset=1.0 + 0.1 * i, **common,
            )
            for i, (src, dst) in enumerate(pairs)
        ], None

    feedback = FlowFeedback()
    protocol.feedback = feedback
    network.mac.drop_listener = lambda flow: feedback.mac_drop(
        flow, engine.now
    )
    kinds = (
        DEFAULT_BACKOFF_KINDS
        if tc.react_to_mac_drops
        else frozenset({LOSS_DROP, LOSS_TIMEOUT})
    )
    sources = [
        AdaptiveSource(
            engine, protocol.send_data, src, dst,
            start_offset=1.0 + 0.1 * i,
            feedback=feedback,
            min_interval=tc.min_interval,
            max_interval=tc.max_interval,
            backoff_factor=tc.backoff_factor,
            recovery_step=tc.recovery_step,
            backoff_kinds=kinds,
            **common,
        )
        for i, (src, dst) in enumerate(pairs)
    ]
    return sources, feedback


def choose_pairs(
    cfg: ExperimentConfig, engine: Engine
) -> list[tuple[int, int]]:
    """Draw ``n_pairs`` disjoint random S-D pairs."""
    if 2 * cfg.n_pairs > cfg.n_nodes:
        raise ValueError(
            f"config asks for n_pairs={cfg.n_pairs} disjoint S-D pairs, "
            f"which needs {2 * cfg.n_pairs} distinct nodes, but "
            f"n_nodes={cfg.n_nodes}; lower n_pairs or raise n_nodes"
        )
    rng = engine.rng.stream("pairs")
    ids = rng.permutation(cfg.n_nodes)
    return [
        (int(ids[2 * i]), int(ids[2 * i + 1])) for i in range(cfg.n_pairs)
    ]


def run_experiment(
    cfg: ExperimentConfig,
    max_packets_per_pair: int | None = None,
    on_setup: Callable[[], None] | None = None,
) -> RunResult:
    """Execute one seeded simulation end to end.

    The cyclic garbage collector is suspended for the duration of the
    run: the event loop allocates tens of thousands of short-lived
    packets, headers, and callbacks per simulated minute, and letting
    generational collection scan them mid-run costs ~15 % wall clock.
    Everything the run allocates either dies by refcount or is reachable
    from the returned :class:`RunResult`, so deferring collection to
    after the run changes nothing observable.

    ``on_setup`` is called once the network/protocol stack is built,
    immediately before the first event runs — benchmarks use it to
    separate fixed setup cost (key generation, registration) from
    event-loop cost.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run_experiment(cfg, max_packets_per_pair, on_setup=on_setup)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_experiment(
    cfg: ExperimentConfig,
    max_packets_per_pair: int | None = None,
    on_setup: Callable[[], None] | None = None,
) -> RunResult:
    engine = Engine(seed=cfg.seed)
    fld = Field(cfg.field_size, cfg.field_size)
    network = Network(
        engine,
        fld,
        make_mobility_factory(cfg, engine, fld),
        cfg.n_nodes,
    )
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    # The location service tallies its own crypto: the paper's cost
    # metrics (latency, energy) cover the routing protocols only and
    # treat the service as shared infrastructure (§2.2, §4.3).
    location = LocationService(
        network,
        updates_enabled=cfg.destination_update,
        cost_model=CryptoCostModel(),
    )
    protocol = make_protocol(cfg, network, location, metrics, cost)

    if on_setup is not None:
        on_setup()
    network.start_hello()
    engine.run(until=0.5)  # let the first beacons populate tables

    pairs = choose_pairs(cfg, engine)
    sources, feedback = build_traffic(
        cfg, engine, protocol, network, pairs,
        max_packets_per_pair=max_packets_per_pair,
    )

    engine.run(until=cfg.duration)
    for s in sources:
        s.stop()
    engine.run(until=cfg.duration + DRAIN_TIME)

    network.stop_hello()
    location.stop()
    if isinstance(protocol, AlarmProtocol):
        protocol.stop()

    return RunResult(
        config=cfg,
        metrics=metrics,
        cost=cost,
        protocol=protocol,
        network=network,
        engine=engine,
        pairs=pairs,
        sources=sources,
        feedback=feedback,
    )


def seed_for_run(cfg: ExperimentConfig, i: int) -> int:
    """Seed of repetition ``i`` of an experiment.

    Shared by the serial (:func:`run_many`) and process-parallel
    (:mod:`repro.experiments.parallel`) paths so the two can never
    drift apart.
    """
    return cfg.seed + 1000 * i


def run_many(
    cfg: ExperimentConfig,
    runs: int | None = None,
    max_packets_per_pair: int | None = None,
) -> list[RunResult]:
    """Repeat an experiment over distinct seeds."""
    n = runs if runs is not None else default_runs()
    return [
        run_experiment(
            cfg.with_(seed=seed_for_run(cfg, i)),
            max_packets_per_pair=max_packets_per_pair,
        )
        for i in range(n)
    ]


def aggregate(values: list[float], confidence: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of the Student-t confidence interval.

    NaNs are dropped; a single sample gets a zero-width interval.
    ``scipy.stats`` is imported here, not at module level: it would be
    the largest share of every simulation process's memory, and no run
    calls this.
    """
    from scipy import stats

    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return float("nan"), float("nan")
    mean = float(np.mean(clean))
    if len(clean) < 2:
        return mean, 0.0
    sem = float(stats.sem(clean))
    if sem == 0.0:
        return mean, 0.0
    half = sem * float(stats.t.ppf((1 + confidence) / 2.0, len(clean) - 1))
    return mean, half
