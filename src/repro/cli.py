"""Command-line front end: run one experiment and print §5.2 metrics.

Installed as the ``repro-sim`` console script::

    repro-sim --protocol ALERT --nodes 200 --speed 2 --duration 100
    repro-sim --protocol GPSR --no-destination-update --speed 8
    repro-sim --protocol ALERT --mobility group --groups 5 --group-range 200
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import PROTOCOLS, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.tables import format_kv_block


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-sim`` argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-sim",
        description="Run one ALERT-paper simulation and print its metrics.",
    )
    p.add_argument("--protocol", default="ALERT", choices=PROTOCOLS)
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--field", type=float, default=1000.0,
                   help="field side length in metres")
    p.add_argument("--speed", type=float, default=2.0, help="m/s")
    p.add_argument("--duration", type=float, default=100.0, help="seconds")
    p.add_argument("--pairs", type=int, default=10, help="S-D pairs")
    p.add_argument("--interval", type=float, default=2.0,
                   help="CBR send interval, seconds")
    p.add_argument("--packet-size", type=int, default=512, help="bytes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mobility", default="rwp", choices=["rwp", "group", "static"])
    p.add_argument("--groups", type=int, default=10, help="RPGM group count")
    p.add_argument("--group-range", type=float, default=150.0, help="metres")
    p.add_argument("--no-destination-update", action="store_true",
                   help="freeze location-service records (Figs. 14b-16b)")
    p.add_argument("--k", type=int, default=6,
                   help="ALERT destination anonymity parameter")
    p.add_argument("--partitions", type=int, default=5,
                   help="ALERT partition count H (0 = derive from k)")
    p.add_argument("--notify-and-go", action="store_true",
                   help="enable ALERT source-anonymity cover traffic")
    p.add_argument("--intersection-defense", action="store_true",
                   help="enable ALERT two-step zone multicast")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Translate parsed arguments into an :class:`ExperimentConfig`."""
    alert_options = {}
    if args.notify_and_go:
        alert_options["notify_and_go"] = True
    if args.intersection_defense:
        alert_options["intersection_defense"] = True
    return ExperimentConfig(
        protocol=args.protocol,
        n_nodes=args.nodes,
        field_size=args.field,
        speed=args.speed,
        duration=args.duration,
        n_pairs=args.pairs,
        send_interval=args.interval,
        packet_size=args.packet_size,
        seed=args.seed,
        mobility=args.mobility,
        n_groups=args.groups,
        group_range=args.group_range,
        destination_update=not args.no_destination_update,
        k=args.k,
        h_override=args.partitions if args.partitions > 0 else None,
        alert_options=alert_options,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    result = run_experiment(cfg)
    m = result.metrics
    rows = {
        "packets sent": m.packets_sent,
        "delivery rate": result.delivery_rate,
        "latency per packet (ms)": result.mean_latency * 1000.0,
        "hops per packet": result.mean_hops,
        "participating nodes": result.participating_nodes,
    }
    if cfg.protocol == "ALERT":
        rows["random forwarders / packet"] = result.mean_rf_count
    print(
        format_kv_block(
            f"{cfg.protocol} — {cfg.n_nodes} nodes, {cfg.duration:.0f} s, "
            f"v={cfg.speed} m/s, seed {cfg.seed}",
            rows,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
