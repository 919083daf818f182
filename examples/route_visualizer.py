#!/usr/bin/env python
"""Watch ALERT's routes wander: ASCII rendering of consecutive packets.

Sends three packets between one fixed S-D pair under ALERT and under
GPSR, and draws each delivered route on the field (S = source,
D = destination, digits = relays of route 1/2/3, # = destination-zone
outline for ALERT).  GPSR's three routes overlap almost perfectly;
ALERT's take visibly different detours — the route anonymity of §3.1,
on screen.

Run:  python examples/route_visualizer.py
"""

from __future__ import annotations

from repro.core.alert import FIRST_DIRECTION, AlertProtocol
from repro.core.zones import destination_zone
from repro.crypto.cost_model import CryptoCostModel
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import make_mobility_factory, make_protocol
from repro.experiments.trace import render_field
from repro.geometry.field import Field
from repro.location.service import LocationService
from repro.net.network import Network
from repro.sim.engine import Engine

def run_session(protocol: str):
    import numpy as np

    engine = Engine(seed=12)
    fld = Field(1000, 1000)
    cfg = ExperimentConfig(n_nodes=200, protocol=protocol, speed=1.0)
    net = Network(engine, fld, make_mobility_factory(cfg, engine, fld), 200)
    metrics = MetricsCollector()
    location = LocationService(net, cost_model=CryptoCostModel())
    proto = make_protocol(cfg, net, location, metrics, CryptoCostModel())
    net.start_hello()
    engine.run(until=0.5)
    # The farthest-apart pair makes the multi-hop detours visible.
    pos, _ = net.snapshot()
    d2 = ((pos[None] - pos[:, None]) ** 2).sum(-1)
    src, dst = map(int, np.unravel_index(np.argmax(d2), d2.shape))
    global SRC, DST
    SRC, DST = src, dst
    for _ in range(3):
        proto.send_data(SRC, DST)
        engine.run(until=engine.now + 1.5)
    engine.run(until=engine.now + 2.0)
    location.stop()
    routes = [f.path for f in metrics.flows() if f.delivered]
    zone = None
    if isinstance(proto, AlertProtocol):
        d_pos = net.nodes[DST].position(engine.now)
        zone = destination_zone(fld.bounds, d_pos, proto.h, FIRST_DIRECTION)
    return net, routes, zone


def main() -> None:
    for protocol in ("GPSR", "ALERT"):
        net, routes, zone = run_session(protocol)
        print(f"\n{protocol}: three consecutive packets, same S-D pair")
        print(render_field(net, routes, zone=zone))
        from repro.analysis.anonymity import mean_pairwise_overlap
        if len(routes) >= 2:
            print(f"route overlap (Jaccard, consecutive): "
                  f"{mean_pairwise_overlap(routes):.2f}")


if __name__ == "__main__":
    main()
