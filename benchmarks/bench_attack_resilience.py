"""§3 — attack-resilience experiments (no figure in the paper; these
back the claims of §3.1-§3.3 quantitatively).

* Intersection attack (§3.3): an observer intersects destination-zone
  recipient sets over a session, with and without ALERT's two-step
  partial multicast.
* Timing attack (§3.2): delay-regularity correlation on ALERT vs GPSR.
* Route interception (§3.1): an attacker compromises the historically
  busiest relays and tries to catch future packets — GPSR's fixed
  shortest path versus ALERT's random routes.
"""

from __future__ import annotations

from repro.attacks.adversary import (
    DeliveryObservation,
    union_observations_by_window,
)
from repro.attacks.intersection_attack import IntersectionAttacker
from repro.attacks.timing_attack import TimingAttacker
from repro.attacks.traffic_analysis import InterceptionAttacker
from repro.core.alert import AlertProtocol
from repro.core.config import AlertConfig
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import make_mobility_factory, run_experiment
from repro.experiments.tables import format_kv_block
from repro.geometry.field import Field
from repro.location.service import LocationService
from repro.net.network import Network
from repro.sim.engine import Engine

from _common import emit, once


def _alert_session(defense: bool, seed=17, n_packets=30):
    """One long S-D session with a zone observer attached."""
    engine = Engine(seed=seed)
    fld = Field(1000, 1000)
    cfg = ExperimentConfig(n_nodes=200)
    net = Network(engine, fld, make_mobility_factory(cfg, engine, fld), 200)
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    location = LocationService(net, updates_enabled=True, cost_model=cost)
    acfg = AlertConfig(h_override=5, intersection_defense=defense, multicast_m=3)
    proto = AlertProtocol(net, location, metrics, cost, acfg)
    observations: list[DeliveryObservation] = []
    proto.zone_delivery_observer = lambda t, r: observations.append(
        DeliveryObservation(time=t, recipients=frozenset(r))
    )
    net.start_hello()
    engine.run(until=0.5)
    src, dst = 0, 100
    for _ in range(n_packets):
        proto.send_data(src, dst)
        engine.run(until=engine.now + 2.0)
    engine.run(until=engine.now + 3.0)
    return dst, observations, metrics


def regen_intersection():
    rows = {}
    for defense in (False, True):
        dst, observations, metrics = _alert_session(defense)
        attacker = IntersectionAttacker()
        # One packet's delivery can span several frames; the attacker
        # unions receptions within a 1 s window (packets are 2 s apart)
        # into per-packet observations before intersecting.
        attacker.observe_all(union_observations_by_window(observations, 1.0))
        label = "with defense" if defense else "no defense"
        rows[f"{label}: observations"] = attacker.observations
        rows[f"{label}: final candidate set"] = len(attacker.candidates())
        rows[f"{label}: D identified"] = attacker.identified(dst)
        rows[f"{label}: D escaped intersection"] = attacker.defeated(dst)
        rows[f"{label}: delivery rate"] = metrics.delivery_rate()
    return rows, format_kv_block(
        "§3.3 — intersection attack on a 30-packet session (200 nodes, H=5)",
        rows,
    )


def _far_pair_session(
    protocol: str, seed: int = 23, n_packets: int = 30, mobility: str = "rwp"
):
    """A session between a cross-field pair (multi-hop for sure)."""
    import numpy as np

    from repro.experiments.runner import make_protocol

    engine = Engine(seed=seed)
    fld = Field(1000, 1000)
    cfg = ExperimentConfig(n_nodes=200, protocol=protocol, mobility=mobility)
    net = Network(engine, fld, make_mobility_factory(cfg, engine, fld), 200)
    metrics = MetricsCollector()
    cost = CryptoCostModel()
    location = LocationService(net, cost_model=CryptoCostModel())
    proto = make_protocol(cfg, net, location, metrics, cost)
    net.start_hello()
    engine.run(until=0.5)
    pos, _ = net.snapshot()
    d2 = ((pos[None] - pos[:, None]) ** 2).sum(-1)
    src, dst = map(int, np.unravel_index(np.argmax(d2), d2.shape))
    for _ in range(n_packets):
        proto.send_data(src, dst)
        engine.run(until=engine.now + 2.0)
    engine.run(until=engine.now + 3.0)
    location.stop()
    from repro.routing.alarm import AlarmProtocol
    if isinstance(proto, AlarmProtocol):  # pragma: no cover
        proto.stop()
    return metrics, (src, dst)


def regen_timing():
    rows = {}
    attacker = TimingAttacker(cv_threshold=0.15, min_pairs=5)
    for proto in ("GPSR", "ALERT"):
        metrics, _ = _far_pair_session(proto)
        deps = [f.created_at for f in metrics.flows()]
        arrs = [f.delivered_at for f in metrics.flows() if f.delivered]
        v = attacker.correlate(deps, arrs)
        rows[f"{proto}: matched pairs"] = v.matched_pairs
        rows[f"{proto}: delay CV"] = round(v.cv, 4)
        rows[f"{proto}: S-D link identified"] = v.identified
    return rows, format_kv_block(
        "§3.2 — timing attack (delay-regularity correlation, "
        "cross-field S-D pair)",
        rows,
    )


def regen_interception():
    """§3.1's low-mobility setting, where GPSR's path is truly fixed:
    "the route between a given S-D pair is unlikely to change for
    different packet transmissions"."""
    rows = {}
    for proto in ("GPSR", "ALERT"):
        metrics, (src, dst) = _far_pair_session(
            proto, seed=29, mobility="static"
        )
        routes = [f.path for f in metrics.flows() if f.delivered]
        half = len(routes) // 2
        attacker = InterceptionAttacker(budget=3)
        rate = attacker.interception_rate(
            routes[:half], routes[half:], exclude=[src, dst]
        )
        rows[f"{proto}: observed routes"] = half
        rows[f"{proto}: interception rate"] = round(rate, 3)
    return rows, format_kv_block(
        "§3.1 — interception after compromising the 3 busiest relays "
        "(static nodes: GPSR's worst case)",
        rows,
    )


def regen_zap_comparison():
    """§3.3's cost argument: ZAP can also blunt the intersection attack
    by enlarging its anonymity zone, but the broadcast bill grows with
    the zone; ALERT's two-step multicast keeps a constant (m-sized)
    footprint."""
    from repro.routing.zap import ZapProtocol

    rows = {}
    for label, enlargement in (
        ("ZAP static zone", 0.0),
        ("ZAP enlarging zone", 0.15),
    ):
        engine = Engine(seed=41)
        fld = Field(1000, 1000)
        cfg = ExperimentConfig(n_nodes=200)
        net = Network(engine, fld, make_mobility_factory(cfg, engine, fld), 200)
        metrics = MetricsCollector()
        location = LocationService(net, cost_model=CryptoCostModel())
        proto = ZapProtocol(
            net, location, metrics, CryptoCostModel(),
            enlargement_per_packet=enlargement,
        )
        observations: list[DeliveryObservation] = []
        proto.zone_delivery_observer = lambda t, r, obs=observations: obs.append(
            DeliveryObservation(time=t, recipients=frozenset(r))
        )
        net.start_hello()
        engine.run(until=0.5)
        for _ in range(30):
            proto.send_data(0, 100)
            engine.run(until=engine.now + 2.0)
        engine.run(until=engine.now + 3.0)
        attacker = IntersectionAttacker()
        attacker.observe_all(union_observations_by_window(observations, 1.0))
        floods = metrics.counters.get("zap_zone_floods", 0)
        pop = metrics.counters.get("zap_zone_population", 0)
        rows[f"{label}: candidates left"] = len(attacker.candidates())
        rows[f"{label}: D identified"] = attacker.identified(100)
        rows[f"{label}: floods/packet"] = round(floods / 30.0, 2)
        rows[f"{label}: mean zone population"] = round(pop / max(floods, 1), 1)
        location.stop()

    # ALERT's defense for reference (constant per-packet footprint).
    dst, observations, metrics = _alert_session(True, seed=41)
    attacker = IntersectionAttacker()
    attacker.observe_all(union_observations_by_window(observations, 1.0))
    rows["ALERT defense: candidates left"] = len(attacker.candidates())
    rows["ALERT defense: D identified"] = attacker.identified(dst)
    rows["ALERT defense: observable recipients/packet"] = round(
        metrics.counters.get("defense_recipients", 0)
        / max(metrics.counters.get("defense_multicasts", 1), 1),
        2,
    )
    return rows, format_kv_block(
        "§3.3 — countering the intersection attack: ZAP's zone "
        "enlargement vs ALERT's two-step multicast",
        rows,
    )


def test_zap_vs_alert_defense(benchmark, capsys):
    rows, table = once(benchmark, regen_zap_comparison)
    emit(capsys, "attack_zap_vs_alert", table)
    # Enlarging ZAP zones raises the broadcast bill.
    assert (
        rows["ZAP enlarging zone: mean zone population"]
        > rows["ZAP static zone: mean zone population"]
    )
    # ALERT's observable footprint stays m-sized (m = 3 here).
    assert rows["ALERT defense: observable recipients/packet"] <= 3.5


def test_intersection_attack(benchmark, capsys):
    rows, table = once(benchmark, regen_intersection)
    emit(capsys, "attack_intersection", table)
    # Without the defense, the intersection converges on (or very near)
    # the destination; with it, D escapes the attacker's candidate set.
    assert rows["no defense: final candidate set"] <= 3
    assert rows["with defense: D escaped intersection"] or not rows[
        "with defense: D identified"
    ]


def test_timing_attack(benchmark, capsys):
    rows, table = once(benchmark, regen_timing)
    emit(capsys, "attack_timing", table)
    # ALERT's per-packet random routes spread the delay distribution.
    assert rows["ALERT: delay CV"] > rows["GPSR: delay CV"]


def test_interception_attack(benchmark, capsys):
    rows, table = once(benchmark, regen_interception)
    emit(capsys, "attack_interception", table)
    # Compromising GPSR's stable path catches (nearly) everything;
    # ALERT's dispersion caps what three compromised relays can see.
    assert rows["GPSR: interception rate"] >= rows["ALERT: interception rate"]
