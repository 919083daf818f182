"""Energy consumption and DoS resilience — the paper's summary claims.

* **Energy** (§5.6 summary: ALERT "has significantly lower energy
  consumption compared to AO2P and ALARM"): total joules per delivered
  packet, broken into radio airtime and crypto CPU time, for all four
  protocols.
* **DoS / node compromise** (§3.1: "the communication of two nodes in
  ALERT cannot be completely stopped by compromising certain nodes"):
  after observing half a session, the attacker disables the busiest
  relays; we measure delivery before and after for GPSR vs ALERT.
"""

from __future__ import annotations

from repro.attacks.traffic_analysis import InterceptionAttacker
from repro.experiments.runner import run_experiment
from repro.experiments.tables import format_kv_block, format_series_table
from repro.net.energy import EnergyModel

from _common import emit, once, paper_config

PROTOCOLS = ["ALERT", "GPSR", "ALARM", "AO2P"]


def regen_energy():
    model = EnergyModel()
    rows: dict[str, list[float]] = {
        "radio (J)": [], "crypto (J)": [], "total (J)": [],
        "J per delivered packet": [],
    }
    for proto in PROTOCOLS:
        r = run_experiment(paper_config(protocol=proto, duration=50.0))
        b = model.breakdown(r.network, r.cost)
        delivered = max(
            sum(1 for f in r.metrics.flows() if f.delivered), 1
        )
        rows["radio (J)"].append(b["radio_tx_j"] + b["radio_rx_j"])
        rows["crypto (J)"].append(b["crypto_j"])
        rows["total (J)"].append(b["total_j"])
        rows["J per delivered packet"].append(b["total_j"] / delivered)
    table = format_series_table(
        "Energy — radio + crypto joules over a 50 s run (200 nodes)",
        "protocol",
        PROTOCOLS,
        rows,
        digits=2,
    )
    return rows, table


def regen_dos():
    rows = {}
    for proto in ("GPSR", "ALERT"):
        cfg = paper_config(protocol=proto, n_pairs=1, duration=80.0, seed=31)
        # Phase 1: observe. Run the full session but compute targets
        # from the first half of the delivered routes.
        r = run_experiment(cfg)
        flows = r.metrics.flows()
        routes = [f.path for f in flows if f.delivered]
        src, dst = r.pairs[0]
        targets = InterceptionAttacker(budget=3).choose_targets(
            routes[: len(routes) // 2], exclude=[src, dst]
        )
        baseline = r.delivery_rate

        # Phase 2: rerun the same seed with those relays dead from the
        # start — the strongest version of the compromise.
        def _with_failures(cfg=cfg, targets=tuple(targets)):
            # Build the run manually so we can kill nodes post-warmup.
            from repro.experiments.runner import (
                DRAIN_TIME, make_mobility_factory, make_protocol, choose_pairs,
            )
            from repro.crypto.cost_model import CryptoCostModel
            from repro.experiments.metrics import MetricsCollector
            from repro.geometry.field import Field
            from repro.location.service import LocationService
            from repro.net.network import Network
            from repro.net.traffic import CbrSource
            from repro.sim.engine import Engine

            engine = Engine(seed=cfg.seed)
            fld = Field(cfg.field_size, cfg.field_size)
            net = Network(
                engine, fld, make_mobility_factory(cfg, engine, fld), cfg.n_nodes
            )
            metrics = MetricsCollector()
            cost = CryptoCostModel()
            # The service keeps its own tally, as in run_experiment.
            location = LocationService(net, cost_model=CryptoCostModel())
            proto_obj = make_protocol(cfg, net, location, metrics, cost)
            net.start_hello()
            engine.run(until=0.5)
            for t in targets:
                net.nodes[t].fail()
            pairs = choose_pairs(cfg, engine)
            sources = [
                CbrSource(engine, proto_obj.send_data, s, d,
                          interval=cfg.send_interval,
                          size_bytes=cfg.packet_size, start_offset=1.0)
                for s, d in pairs
            ]
            engine.run(until=cfg.duration)
            for s in sources:
                s.stop()
            engine.run(until=cfg.duration + DRAIN_TIME)
            return metrics.delivery_rate()

        after = _with_failures()
        rows[f"{proto}: delivery, no compromise"] = round(baseline, 3)
        rows[f"{proto}: delivery, 3 busiest relays dead"] = round(after, 3)
    return rows, format_kv_block(
        "§3.1 — DoS by compromising the 3 historically busiest relays",
        rows,
    )


def test_energy_comparison(benchmark, capsys):
    rows, table = once(benchmark, regen_energy)
    emit(capsys, "energy", table)
    by = dict(zip(PROTOCOLS, rows["total (J)"]))
    crypto = dict(zip(PROTOCOLS, rows["crypto (J)"]))
    # The headline: hop-by-hop/periodic public-key crypto costs ALARM
    # and AO2P far more total energy than ALERT.
    assert by["ALARM"] > by["ALERT"] * 2
    assert by["AO2P"] > by["ALERT"] * 1.1
    assert crypto["AO2P"] > crypto["ALERT"] * 5
    # ALERT pays more radio than bare GPSR (more hops) but only
    # symmetric crypto.
    assert by["ALERT"] >= by["GPSR"] * 0.8


def test_dos_resilience(benchmark, capsys):
    rows, table = once(benchmark, regen_dos)
    emit(capsys, "dos", table)
    # Neither protocol is fully stopped; ALERT retains most delivery.
    assert rows["ALERT: delivery, 3 busiest relays dead"] >= 0.5
