"""Process-parallel experiment execution.

Every sweep cell — one ``(config, seed)`` simulation — is independently
seeded (see :func:`repro.experiments.runner.run_many`), so a figure's
grid of cells is embarrassingly parallel.  :class:`SweepExecutor` farms
cells out at *seed* granularity (the finest available, for load
balancing) and regroups results in submission order, which makes the
parallel path bit-identical to the serial one.

The executor is persistent: its :class:`~concurrent.futures.\
ProcessPoolExecutor` stays warm across ``map_cells`` calls, so a figure
driver running several sweeps pays the worker-spawn cost once.  Every
metric value returns by pickle, which round-trips floats (NaN and
``-0.0`` included), ints and series exactly.  Completions stream through
``concurrent.futures.as_completed``, so an ``on_result(cell_idx,
seed_idx, value)`` callback observes partial results while the sweep is
still running.

Robustness semantics:

* a sweep whose worker process dies is retried **once** on a fresh pool
  (only the still-pending seeds are resubmitted) before
  :class:`~concurrent.futures.process.BrokenProcessPool` surfaces;
* exceptions raised *by the metric or simulation* propagate immediately
  with their original type — they are bugs, not infrastructure
  failures, and are never retried;
* every degradation to the serial path is logged (never silent).

Workers are selected via the ``REPRO_WORKERS`` environment variable
(default ``os.cpu_count()``, and clamped to it: more workers than
cores is pure contention); ``REPRO_WORKERS=1`` forces the serial
fallback.  Even a 4-seed sweep on a cold pool finishes sooner than
serially on two cores, so sweep size never forces the serial path.
Work items whose config or metric cannot be pickled (e.g. a lambda
metric) run serially — parallelism is an optimisation, never a
behavioural requirement.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
from concurrent.futures import as_completed
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    RunResult,
    default_runs,
    run_experiment,
    seed_for_run,
)

log = logging.getLogger(__name__)

#: Metric extractors usually return a float, but any picklable value
#: (e.g. a per-packet series) crosses the process boundary fine.
MetricFn = Callable[[RunResult], Any]

#: Streaming progress callback: ``(cell_idx, seed_idx, value)``.
OnResult = Callable[[int, int, Any], None]


#: One-shot flag for the over-subscription clamp notice.
_warned_worker_clamp = False


def worker_count() -> int:
    """Worker processes to use: ``REPRO_WORKERS`` or ``os.cpu_count()``.

    The env value is clamped to the machine's core count — a pool
    wider than the CPU only adds contention and spawn cost (observed
    as sweeps running *slower* than serial on small hosts).  Explicit
    ``workers=`` arguments bypass this resolver and stay honored.
    """
    global _warned_worker_clamp
    cpus = os.cpu_count() or 1
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            requested = max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if requested > cpus:
            if not _warned_worker_clamp:
                _warned_worker_clamp = True
                log.warning(
                    "REPRO_WORKERS=%d exceeds the %d available core(s); "
                    "clamping to %d",
                    requested, cpus, cpus,
                )
            return cpus
        return requested
    return cpus


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a config repeated over ``runs`` seeds.

    ``metric`` maps each finished :class:`RunResult` to the scalar the
    figure plots; extraction happens inside the worker because a full
    ``RunResult`` (engine heap, protocol closures) is not picklable.
    """

    cfg: ExperimentConfig
    metric: MetricFn
    runs: int
    max_packets_per_pair: int | None = None

    def seed_configs(self) -> list[ExperimentConfig]:
        """The per-seed configs, in the same order ``run_many`` uses."""
        return [
            self.cfg.with_(seed=seed_for_run(self.cfg, i))
            for i in range(self.runs)
        ]


# ----------------------------------------------------------------------
# one seed (serial path and pool workers alike)
# ----------------------------------------------------------------------
def _run_seed(payload: tuple) -> Any:
    """One seeded simulation → one metric value.

    ``payload`` is ``(cfg, metric, max_packets_per_pair)``.  The serial
    path calls this in-process; the parallel path submits it to the
    pool, whose pickle round trip hands back the identical value.
    """
    cfg, metric, max_packets_per_pair = payload
    result = run_experiment(cfg, max_packets_per_pair=max_packets_per_pair)
    return metric(result)


# ----------------------------------------------------------------------
# picklability probing
# ----------------------------------------------------------------------
def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _representative_payloads(payloads: Sequence[tuple]) -> list[tuple]:
    """One payload per distinct metric callable.

    Configs are plain dataclasses of scalars; the metric function is
    the only piece whose picklability varies (lambdas and closures
    can't cross process boundaries).  Probing one representative per
    metric avoids re-serializing the whole ``configs × seeds`` payload
    list just to find out.
    """
    seen: set[int] = set()
    reps: list[tuple] = []
    for p in payloads:
        metric_id = id(p[1])
        if metric_id not in seen:
            seen.add(metric_id)
            reps.append(p)
    return reps


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
_PENDING = object()


class SweepExecutor:
    """Persistent sweep executor: a warm process pool.

    Parameters
    ----------
    workers:
        Pool width; ``None`` defers to ``REPRO_WORKERS`` /
        ``os.cpu_count()`` at each ``map_cells`` call, ``1`` forces
        serial execution.

    The executor is a context manager; ``close()`` shuts the warm pool
    down.  The module-level :func:`parallel_map_cells` uses a shared
    executor per worker count, so independent sweeps reuse one pool.
    """

    #: one retry on a fresh pool before BrokenProcessPool surfaces
    MAX_POOL_RETRIES = 1

    def __init__(self, workers: int | None = None) -> None:
        self._workers_arg = workers
        self._pool: ProcessPoolExecutor | None = None
        self._pool_width = 0
        #: diagnostics: fresh pools created after a worker death
        self.pool_restarts = 0
        self._warned_serial = False

    # -- pool lifecycle -------------------------------------------------
    @property
    def workers(self) -> int:
        """Resolved pool width for the next ``map_cells`` call."""
        if self._workers_arg is not None:
            return max(1, self._workers_arg)
        return worker_count()

    def _ensure_pool(self, width: int) -> ProcessPoolExecutor:
        if self._pool is None or self._pool_width != width:
            self._shutdown_pool()
            self._pool = ProcessPoolExecutor(max_workers=width)
            self._pool_width = width
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_width = 0

    def close(self) -> None:
        """Shut the warm worker pool down (idempotent)."""
        self._shutdown_pool()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- logging --------------------------------------------------------
    def _warn_serial(self, reason: str) -> None:
        """One-shot (per executor) warning when a sweep degrades."""
        if not self._warned_serial:
            self._warned_serial = True
            log.warning(
                "sweep degraded to serial execution: %s "
                "(parallelism is an optimisation; results are identical)",
                reason,
            )

    # -- execution ------------------------------------------------------
    def map_cells(
        self,
        cells: Sequence[Cell],
        on_result: OnResult | None = None,
    ) -> list[list[Any]]:
        """Run every cell's seeds, parallel across processes when possible.

        Returns one list of per-seed metric values per cell, in cell
        order — bit-identical to running each cell serially, because
        each seed's simulation is fully determined by its config.
        ``on_result`` (if given) fires once per completed ``(cell,
        seed)`` as results stream in; completion order is submission
        order on the serial path and nondeterministic in parallel.
        """
        payloads: list[tuple] = []
        coords: list[tuple[int, int]] = []
        spans: list[tuple[int, int]] = []
        for cell_idx, cell in enumerate(cells):
            start = len(payloads)
            for seed_idx, cfg in enumerate(cell.seed_configs()):
                payloads.append((cfg, cell.metric, cell.max_packets_per_pair))
                coords.append((cell_idx, seed_idx))
            spans.append((start, len(payloads)))

        values: list[Any] = [_PENDING] * len(payloads)
        width = min(self.workers, len(payloads)) if payloads else 1
        if width <= 1:
            self._run_serial(payloads, coords, values, on_result)
        elif not all(_picklable(p) for p in _representative_payloads(payloads)):
            self._warn_serial(
                "config or metric is not picklable "
                "(use the named repro.experiments.sweeps.metric_* "
                "extractors instead of lambdas)"
            )
            self._run_serial(payloads, coords, values, on_result)
        else:
            try:
                self._run_parallel(payloads, coords, values, width, on_result)
            except OSError as exc:
                # Restricted environments (no fork/semaphores) degrade
                # to the serial path rather than failing the sweep.
                self._warn_serial(f"process pool unavailable ({exc})")
                self._shutdown_pool()
                self._run_serial(payloads, coords, values, on_result)

        return [values[s:e] for s, e in spans]

    def _run_serial(
        self,
        payloads: Sequence[tuple],
        coords: Sequence[tuple[int, int]],
        values: list[Any],
        on_result: OnResult | None,
    ) -> None:
        for slot, payload in enumerate(payloads):
            if values[slot] is not _PENDING:
                continue
            values[slot] = _run_seed(payload)
            if on_result is not None:
                cell_idx, seed_idx = coords[slot]
                on_result(cell_idx, seed_idx, values[slot])

    def _run_parallel(
        self,
        payloads: Sequence[tuple],
        coords: Sequence[tuple[int, int]],
        values: list[Any],
        width: int,
        on_result: OnResult | None,
    ) -> None:
        retries = 0
        while True:
            try:
                self._drain_pool(payloads, coords, values, width, on_result)
                return
            except BrokenProcessPool:
                self._shutdown_pool()
                if retries >= self.MAX_POOL_RETRIES:
                    raise
                retries += 1
                self.pool_restarts += 1
                pending = sum(1 for v in values if v is _PENDING)
                log.warning(
                    "worker process died; retrying %d pending seed(s) "
                    "on a fresh pool (attempt %d/%d)",
                    pending,
                    retries + 1,
                    self.MAX_POOL_RETRIES + 1,
                )

    def _drain_pool(
        self,
        payloads: Sequence[tuple],
        coords: Sequence[tuple[int, int]],
        values: list[Any],
        width: int,
        on_result: OnResult | None,
    ) -> None:
        """Submit every still-pending payload and stream completions."""
        pool = self._ensure_pool(width)
        futures = {
            pool.submit(_run_seed, payload): slot
            for slot, payload in enumerate(payloads)
            if values[slot] is _PENDING
        }
        try:
            for fut in as_completed(futures):
                slot = futures[fut]
                # re-raises worker-side exceptions
                values[slot] = fut.result()
                if on_result is not None:
                    cell_idx, seed_idx = coords[slot]
                    on_result(cell_idx, seed_idx, values[slot])
        except BrokenProcessPool:
            raise
        except BaseException:
            # A metric/simulation bug: surface it with its original
            # type; cancel whatever has not started yet.
            for fut in futures:
                fut.cancel()
            raise


# ----------------------------------------------------------------------
# module-level convenience API (shared warm executors)
# ----------------------------------------------------------------------
#: Shared executors keyed by the ``workers`` argument (``None`` =
#: env-resolved).  Reusing them keeps pools warm across sweeps.
_shared_executors: dict[int | None, SweepExecutor] = {}


def get_executor(workers: int | None = None) -> SweepExecutor:
    """The shared persistent executor for a given worker setting."""
    ex = _shared_executors.get(workers)
    if ex is None:
        ex = SweepExecutor(workers)
        _shared_executors[workers] = ex
    return ex


@atexit.register
def _close_shared_executors() -> None:  # pragma: no cover - atexit
    for ex in _shared_executors.values():
        ex.close()


def parallel_map_cells(
    cells: Sequence[Cell],
    workers: int | None = None,
    on_result: OnResult | None = None,
) -> list[list[Any]]:
    """Run every cell's seeds on the shared persistent executor.

    Returns one list of per-seed metric values per cell, in cell order
    — bit-identical to running each cell serially.  See
    :meth:`SweepExecutor.map_cells`.
    """
    return get_executor(workers).map_cells(cells, on_result=on_result)


def run_many_parallel(
    cfg: ExperimentConfig,
    metric: MetricFn,
    runs: int | None = None,
    max_packets_per_pair: int | None = None,
    workers: int | None = None,
    on_result: OnResult | None = None,
) -> list[Any]:
    """Parallel counterpart of ``[metric(r) for r in run_many(cfg)]``.

    Results are returned in seed order and are bit-identical to the
    serial expression above for any worker count.
    """
    n = runs if runs is not None else default_runs()
    cell = Cell(cfg, metric, n, max_packets_per_pair)
    return parallel_map_cells([cell], workers=workers, on_result=on_result)[0]
