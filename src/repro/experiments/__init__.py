"""Experiment harness: configs, metrics, runners, sweeps, table output.

The runner imports the protocol stack, which itself uses the metrics
module, so runner symbols are exposed lazily to keep imports acyclic.
"""

from typing import Any

from repro.experiments.config import ExperimentConfig, TrafficConfig
from repro.experiments.metrics import FlowRecord, MetricsCollector
from repro.experiments.tables import format_kv_block, format_series_table

__all__ = [
    "ExperimentConfig",
    "TrafficConfig",
    "MetricsCollector",
    "FlowRecord",
    "run_experiment",
    "run_many",
    "aggregate",
    "default_runs",
    "RunResult",
    "format_series_table",
    "format_kv_block",
    "sweep_metric",
    "run_many_parallel",
    "parallel_map_cells",
    "worker_count",
    "Cell",
]

_LAZY = {
    "run_experiment": "repro.experiments.runner",
    "run_many": "repro.experiments.runner",
    "aggregate": "repro.experiments.runner",
    "default_runs": "repro.experiments.runner",
    "RunResult": "repro.experiments.runner",
    "sweep_metric": "repro.experiments.sweeps",
    "run_many_parallel": "repro.experiments.parallel",
    "parallel_map_cells": "repro.experiments.parallel",
    "worker_count": "repro.experiments.parallel",
    "Cell": "repro.experiments.parallel",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
