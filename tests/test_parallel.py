"""Tests for the process-parallel experiment executor."""

from __future__ import annotations

import logging
import os
import struct

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    Cell,
    SweepExecutor,
    get_executor,
    parallel_map_cells,
    run_many_parallel,
    worker_count,
)
from repro.experiments.runner import run_many, seed_for_run
from repro.experiments.sweeps import (
    metric_delivery_rate,
    metric_mean_hops,
    sweep_metric,
)

SMALL = ExperimentConfig(
    n_nodes=30, duration=5.0, n_pairs=2, field_size=600.0, seed=5
)


def _exploding_metric(result):
    """Module-level (hence picklable) metric that dies in the worker."""
    raise RuntimeError("metric exploded in worker")


def _conditionally_exploding_metric(result):
    """Fails only for one seed, so some siblings succeed first."""
    if result.config.seed == seed_for_run(SMALL, 1):
        raise RuntimeError("metric exploded for seed 1")
    return result.delivery_rate


def _series_metric(result):
    """Non-float metric: a list must come back as a list."""
    return [result.delivery_rate, float(result.config.seed)]


def _int_metric(result):
    """Exact-int metric: must NOT come back coerced to float."""
    return int(result.config.seed)


def _special_float_metric(result):
    """NaN and negative zero: floats whose bits equality can't see."""
    return [float("nan"), -0.0, result.delivery_rate]


def _dying_metric(result):
    """Kills the worker process outright (not a Python exception)."""
    os._exit(3)


def _crash_once_metric(result):
    """Kills the worker the first time, succeeds after (via flag file)."""
    flag = os.environ["REPRO_TEST_CRASH_FLAG"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(3)
    return result.delivery_rate


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert worker_count() == 3

    def test_env_clamped_to_cpu_count(self, monkeypatch):
        # More workers than cores is pure contention (a 4-worker pool
        # on a 1-CPU host ran *slower* than serial); the env resolver
        # clamps, explicit workers= arguments stay honored.
        monkeypatch.setenv("REPRO_WORKERS", "64")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert worker_count() == 2

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert worker_count() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() == (os.cpu_count() or 1)

    def test_non_numeric_env_raises_clearly(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            worker_count()


class TestSeedDerivation:
    def test_matches_run_many_convention(self):
        cell = Cell(SMALL, metric_delivery_rate, runs=3)
        seeds = [c.seed for c in cell.seed_configs()]
        assert seeds == [seed_for_run(SMALL, i) for i in range(3)]
        assert seeds == [5, 1005, 2005]


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = [
            metric_delivery_rate(r) for r in run_many(SMALL, runs=3)
        ]
        parallel = run_many_parallel(
            SMALL, metric_delivery_rate, runs=3, workers=4
        )
        assert parallel == serial  # exact float equality, not approx

    def test_workers_one_is_serial_fallback(self):
        one = run_many_parallel(SMALL, metric_mean_hops, runs=2, workers=1)
        four = run_many_parallel(SMALL, metric_mean_hops, runs=2, workers=4)
        assert one == four

    def test_lambda_metric_falls_back_to_serial(self):
        # Lambdas cannot cross process boundaries; the executor must
        # degrade to in-process execution, not crash.
        values = run_many_parallel(
            SMALL, lambda r: r.delivery_rate, runs=2, workers=4
        )
        serial = [r.delivery_rate for r in run_many(SMALL, runs=2)]
        assert values == serial

    def test_map_cells_preserves_cell_order(self):
        cells = [
            Cell(SMALL.with_(protocol=p), metric_delivery_rate, runs=2)
            for p in ("ALERT", "GPSR", "ALARM")
        ]
        grouped = parallel_map_cells(cells, workers=4)
        assert len(grouped) == 3
        for cell, values in zip(cells, grouped):
            expected = [
                metric_delivery_rate(r)
                for r in run_many(cell.cfg, runs=cell.runs)
            ]
            assert values == expected

    def test_co_seeded_parallel_matches_serial(self):
        # End to end through the pool: cells that share a seed across
        # protocols must stay bit-identical to serial execution.
        cells = [
            Cell(SMALL, metric_delivery_rate, runs=2),
            Cell(SMALL.with_(protocol="GPSR"), metric_delivery_rate, runs=2),
        ]
        with SweepExecutor(workers=2) as ex:
            parallel = ex.map_cells(cells)
        serial = [
            [metric_delivery_rate(r) for r in run_many(c.cfg, runs=2)]
            for c in cells
        ]
        assert parallel == serial


class TestSweepIntegration:
    def test_sweep_metric_parallel_matches_serial(self):
        kwargs = dict(
            x_field="n_nodes",
            x_values=[30, 40],
            protocols=["ALERT", "GPSR"],
            metric=metric_delivery_rate,
            runs=2,
        )
        m1, c1 = sweep_metric(SMALL, workers=1, **kwargs)
        m2, c2 = sweep_metric(SMALL, workers=4, **kwargs)
        assert m1 == m2
        assert c1 == c2

    def test_sweep_metric_env_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        means, _ = sweep_metric(
            SMALL,
            "speed",
            [2.0],
            ["ALERT"],
            metric_delivery_rate,
            runs=1,
        )
        assert 0.0 <= means["ALERT"][0] <= 1.0


class TestWorkerCrash:
    """A metric raising inside a child process must surface the
    original exception to the caller instead of hanging the pool."""

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="metric exploded in worker"):
            run_many_parallel(SMALL, _exploding_metric, runs=2, workers=2)

    def test_partial_failure_still_propagates(self):
        # One bad seed among good ones: siblings finish, the failure
        # still surfaces with its original type and message.
        with pytest.raises(RuntimeError, match="exploded for seed 1"):
            run_many_parallel(
                SMALL, _conditionally_exploding_metric, runs=3, workers=2
            )

    def test_serial_path_raises_identically(self):
        # workers=1 (the fallback path) must not swallow it either.
        with pytest.raises(RuntimeError, match="metric exploded in worker"):
            run_many_parallel(SMALL, _exploding_metric, runs=1, workers=1)


class TestStreamingCallback:
    def test_callback_fires_once_per_seed_with_final_values(self):
        cells = [
            Cell(SMALL, metric_delivery_rate, runs=2),
            Cell(SMALL.with_(protocol="GPSR"), metric_delivery_rate, runs=3),
        ]
        events: list[tuple[int, int, float]] = []
        grouped = parallel_map_cells(
            cells,
            workers=2,
            on_result=lambda c, s, v: events.append((c, s, v)),
        )
        # Exactly one event per (cell, seed), in any completion order.
        assert sorted((c, s) for c, s, _ in events) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
        ]
        # Each streamed value is the one the grouped result reports.
        for c, s, v in events:
            assert grouped[c][s] == v

    def test_serial_path_streams_in_submission_order(self):
        cells = [
            Cell(SMALL, metric_delivery_rate, runs=2),
            Cell(SMALL.with_(protocol="GPSR"), metric_delivery_rate, runs=1),
        ]
        events: list[tuple[int, int]] = []
        parallel_map_cells(
            cells, workers=1, on_result=lambda c, s, v: events.append((c, s))
        )
        assert events == [(0, 0), (0, 1), (1, 0)]


class TestResultTransport:
    """Every metric value crosses the pool exactly as serial returns it."""

    def test_non_float_metric_uses_pickle_fallback(self):
        # Series return by pickle like every value: intact and
        # identical to serial.
        cell = Cell(SMALL, _series_metric, runs=2)
        with SweepExecutor(workers=2) as ex:
            parallel = ex.map_cells([cell])[0]
        serial = [_series_metric(r) for r in run_many(SMALL, runs=2)]
        assert parallel == serial
        assert all(type(v) is list for v in parallel)

    def test_int_metric_keeps_its_type(self):
        # Exact ints must not come back coerced to float64.
        cell = Cell(SMALL, _int_metric, runs=2)
        with SweepExecutor(workers=2) as ex:
            parallel = ex.map_cells([cell])[0]
        assert parallel == [seed_for_run(SMALL, 0), seed_for_run(SMALL, 1)]
        assert all(type(v) is int for v in parallel)

    def test_nan_and_negative_zero_cross_bit_exact(self):
        # ``aggregate`` drops NaNs, so a NaN must arrive as a NaN (and
        # -0.0 keep its sign): compare bit patterns, not values.
        cell = Cell(SMALL, _special_float_metric, runs=2)
        with SweepExecutor(workers=2) as ex:
            parallel = ex.map_cells([cell])[0]
        serial = [_special_float_metric(r) for r in run_many(SMALL, runs=2)]

        def bits(rows):
            return [[struct.pack("<d", v) for v in row] for row in rows]

        assert bits(parallel) == bits(serial)

    def test_warm_pool_is_reused_across_calls(self):
        with SweepExecutor(workers=2) as ex:
            ex.map_cells([Cell(SMALL, metric_delivery_rate, runs=2)])
            pool = ex._pool
            assert pool is not None
            ex.map_cells([Cell(SMALL, metric_delivery_rate, runs=2)])
            assert ex._pool is pool  # same warm pool, no respawn


class TestPoolRetryOnWorkerDeath:
    """A dying worker (not a Python exception) gets one fresh-pool retry."""

    def test_persistent_crash_raises_after_one_retry(self):
        with SweepExecutor(workers=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map_cells([Cell(SMALL, _dying_metric, runs=2)])
            assert ex.pool_restarts == 1

    def test_transient_crash_recovers_on_fresh_pool(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(flag))
        with SweepExecutor(workers=2) as ex:
            values = ex.map_cells([Cell(SMALL, _crash_once_metric, runs=2)])[0]
            assert ex.pool_restarts == 1
        assert flag.exists()
        serial = [r.delivery_rate for r in run_many(SMALL, runs=2)]
        assert values == serial  # retried seeds still bit-identical


class TestSerialDegradeLogging:
    def test_unpicklable_metric_warns_once_per_executor(self, caplog):
        # runs=2 so the pool path is considered (a single payload runs
        # serially by design, without any degrade warning).
        cells = [Cell(SMALL, lambda r: r.delivery_rate, runs=2)]
        with SweepExecutor(workers=2) as ex:
            with caplog.at_level(
                logging.WARNING, logger="repro.experiments.parallel"
            ):
                ex.map_cells(cells)
                ex.map_cells(cells)  # second degrade: no second warning
        degraded = [
            r for r in caplog.records if "serial" in r.getMessage()
        ]
        assert len(degraded) == 1
        assert "not picklable" in degraded[0].getMessage()


class TestColdPoolBreakEven:
    """Sweep size never forces the serial path: a cold pool spawns for
    any sweep wider than one seed, env-resolved or explicit."""

    def test_small_env_sweep_spawns_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with SweepExecutor() as ex:
            values = ex.map_cells([Cell(SMALL, metric_delivery_rate, runs=2)])
            assert ex._pool is not None
        serial = [metric_delivery_rate(r) for r in run_many(SMALL, runs=2)]
        assert values == [serial]

    def test_explicit_workers_spawn_pool_below_breakeven(self):
        with SweepExecutor(workers=2) as ex:
            ex.map_cells([Cell(SMALL, metric_delivery_rate, runs=2)])
            assert ex._pool is not None


class TestCellValidation:
    def test_empty_cell_list(self):
        assert parallel_map_cells([], workers=4) == []

    def test_zero_runs_cell(self):
        assert parallel_map_cells(
            [Cell(SMALL, metric_delivery_rate, runs=0)], workers=4
        ) == [[]]

    def test_invalid_sweep_field_raises(self):
        with pytest.raises(Exception):
            sweep_metric(
                SMALL,
                "not_a_field",
                [1],
                ["ALERT"],
                metric_delivery_rate,
                runs=1,
                workers=2,
            )
