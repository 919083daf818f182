"""Parameter sweeps: the engine behind every simulation figure.

``sweep_metric`` runs a grid of (protocol × x-value) cells, each
averaged over seeds, and returns mean/CI series ready for
:func:`repro.experiments.tables.format_series_table`.

Cells execute through the persistent executor of
:mod:`repro.experiments.parallel`: with ``REPRO_WORKERS`` > 1 (the
default is ``os.cpu_count()``) every (protocol × x-value × seed)
simulation runs in a warm process pool with results streaming back as
each seed finishes, and the results are bit-identical to the serial
path because each cell is independently seeded.  Metrics
passed as lambdas cannot cross process boundaries and run serially
(with a logged warning) — prefer the named ``metric_*`` extractors
below.  Pass ``on_result`` to observe partial results while the sweep
is still running.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import Cell, OnResult, parallel_map_cells
from repro.experiments.runner import RunResult, aggregate, default_runs


MetricFn = Callable[[RunResult], float]


# ----------------------------------------------------------------------
# Named metric extractors (picklable, unlike lambdas, so sweeps using
# them parallelise across processes).
# ----------------------------------------------------------------------
def metric_delivery_rate(r: RunResult) -> float:
    """Fraction of data packets delivered (§5.2 metric 6)."""
    return r.delivery_rate


def metric_mean_latency(r: RunResult) -> float:
    """Mean end-to-end delay over delivered packets (metric 5)."""
    return r.mean_latency


def metric_mean_hops(r: RunResult) -> float:
    """Accumulated hops / packets sent (metric 4)."""
    return r.mean_hops


def sweep_metric(
    base: ExperimentConfig,
    x_field: str,
    x_values: Sequence[Any],
    protocols: Sequence[str],
    metric: MetricFn,
    runs: int | None = None,
    max_packets_per_pair: int | None = None,
    extra_overrides: Mapping[str, Mapping[str, Any]] | None = None,
    workers: int | None = None,
    on_result: OnResult | None = None,
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Sweep ``x_field`` over ``x_values`` for each protocol.

    Parameters
    ----------
    base:
        Baseline config; each cell applies ``{x_field: value,
        protocol: p}`` on top.
    metric:
        Extractor from a finished :class:`RunResult`.  Use a module-
        level function (e.g. :func:`metric_delivery_rate`) to allow
        parallel execution; lambdas still work but force serial runs.
    extra_overrides:
        Optional per-protocol config overrides (e.g. ALERT options).
    workers:
        Process-pool width; ``None`` defers to ``REPRO_WORKERS`` /
        ``os.cpu_count()``, ``1`` forces serial execution.
    on_result:
        Optional streaming callback ``(cell_idx, seed_idx, value)``,
        fired once per completed seed as results arrive.  Cells are
        ordered x-value-major then protocol (the submission order).

    Returns
    -------
    (means, cis):
        Series name → list over ``x_values``.
    """
    n_runs = runs if runs is not None else default_runs()
    cells: list[Cell] = []
    for value in x_values:
        for proto in protocols:
            overrides: dict[str, Any] = {x_field: value, "protocol": proto}
            if extra_overrides and proto in extra_overrides:
                overrides.update(extra_overrides[proto])
            cells.append(
                Cell(
                    base.with_(**overrides),
                    metric,
                    n_runs,
                    max_packets_per_pair,
                )
            )

    per_cell = parallel_map_cells(cells, workers=workers, on_result=on_result)

    means: dict[str, list[float]] = {p: [] for p in protocols}
    cis: dict[str, list[float]] = {p: [] for p in protocols}
    k = 0
    for _value in x_values:
        for proto in protocols:
            mean, ci = aggregate(per_cell[k])
            means[proto].append(mean)
            cis[proto].append(ci)
            k += 1
    return means, cis

