"""Tests for the experiment harness: config, runner, sweeps, tables."""

from __future__ import annotations

import math

import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    aggregate,
    choose_pairs,
    default_runs,
    make_mobility_factory,
    run_experiment,
    run_many,
)
from repro.experiments.tables import format_kv_block, format_series_table
from repro.geometry.field import Field
from repro.net.radio import RadioModel
from repro.sim.engine import Engine


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ExperimentConfig()
        assert cfg.n_nodes == 200
        assert cfg.field_size == 1000.0
        assert cfg.speed == 2.0
        assert RadioModel.range_m == 250.0
        assert cfg.packet_size == 512
        assert cfg.send_interval == 2.0
        assert cfg.n_pairs == 10
        assert cfg.duration == 100.0
        assert cfg.h_override == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="BOGUS")
        with pytest.raises(ValueError):
            ExperimentConfig(mobility="teleport")
        with pytest.raises(ValueError):
            ExperimentConfig(n_nodes=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n_nodes=10, n_pairs=6)
        with pytest.raises(ValueError):
            ExperimentConfig(speed=-1)
        with pytest.raises(ValueError, match=r"^speed must be >= 0"):
            ExperimentConfig(speed=float("nan"))
        for n_groups in (0, -1, 300):
            with pytest.raises(ValueError, match=r"^n_groups must be in"):
                ExperimentConfig(mobility="group", n_groups=n_groups, n_nodes=200)
        # n_groups is ignored by the other mobility models
        ExperimentConfig(mobility="rwp", n_groups=0)

    @pytest.mark.parametrize(
        "name",
        [
            "duration", "field_size", "group_range", "send_interval",
            "packet_size",
        ],
    )
    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_non_positive_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be positive, got "):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize(
        "name",
        [
            "duration", "field_size", "group_range", "send_interval",
            "packet_size", "speed",
        ],
    )
    def test_infinite_field_rejected_by_name(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got inf$"):
            ExperimentConfig(**{name: float("inf")})

    def test_with_revalidates(self):
        with pytest.raises(ValueError, match="send_interval"):
            ExperimentConfig().with_(send_interval=0)

    def test_with_override(self):
        cfg = ExperimentConfig().with_(n_nodes=100, speed=4.0)
        assert cfg.n_nodes == 100 and cfg.speed == 4.0
        assert cfg.protocol == "ALERT"


class TestMobilityFactory:
    def test_static_for_zero_speed(self):
        from repro.mobility.static import StaticPosition
        cfg = ExperimentConfig(speed=0.0)
        f = make_mobility_factory(cfg, Engine(), Field(100, 100))
        import numpy as np
        assert isinstance(f(0, np.random.default_rng(0)), StaticPosition)

    def test_group_factory_builds_groups(self):
        from repro.mobility.group_mobility import GroupMobility
        cfg = ExperimentConfig(n_nodes=20, n_pairs=2, mobility="group", n_groups=4)
        eng = Engine(1)
        f = make_mobility_factory(cfg, eng, Field(1000, 1000))
        import numpy as np
        motions = [f(i, np.random.default_rng(i)) for i in range(20)]
        assert all(isinstance(m, GroupMobility) for m in motions)
        assert len({id(m.reference) for m in motions}) == 4


class TestRunner:
    def test_pairs_disjoint(self):
        cfg = ExperimentConfig(n_nodes=40, n_pairs=10)
        pairs = choose_pairs(cfg, Engine(3))
        flat = [x for p in pairs for x in p]
        assert len(flat) == len(set(flat)) == 20

    def test_too_many_pairs_raises_clear_error(self):
        # choose_pairs guards independently of config validation (a
        # hand-built config can bypass __post_init__); it must name
        # both offending fields instead of a bare IndexError.
        cfg = ExperimentConfig(n_nodes=40, n_pairs=10)
        object.__setattr__(cfg, "n_pairs", 30)  # bypass frozen+validation
        with pytest.raises(ValueError, match=r"n_pairs=30.*n_nodes=40"):
            choose_pairs(cfg, Engine(3))

    def test_run_reproducible(self):
        cfg = ExperimentConfig(
            protocol="GPSR", n_nodes=40, duration=10, n_pairs=2,
            field_size=600.0, seed=9,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.mean_latency == b.mean_latency
        assert a.mean_hops == b.mean_hops
        assert a.delivery_rate == b.delivery_rate

    def test_alert_end_to_end_determinism_same_seed(self):
        # Guards the RNG plumbing the incremental snapshot path reuses:
        # two full ALERT runs with one ExperimentConfig seed must agree
        # on every §5.2 metric, and the incremental index-maintenance
        # path must actually have run (not just full rebuilds).
        cfg = ExperimentConfig(
            protocol="ALERT", n_nodes=50, duration=20, n_pairs=3,
            field_size=800.0, seed=4242,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.delivery_rate == b.delivery_rate
        assert a.mean_latency == b.mean_latency or (
            math.isnan(a.mean_latency) and math.isnan(b.mean_latency)
        )
        assert a.mean_hops == b.mean_hops
        assert a.mean_rf_count == b.mean_rf_count or (
            math.isnan(a.mean_rf_count) and math.isnan(b.mean_rf_count)
        )
        assert a.participating_nodes == b.participating_nodes
        assert a.network.snapshot_incremental > 0
        assert (
            a.network.snapshot_incremental == b.network.snapshot_incremental
        )
        assert a.network.snapshot_rebuilds == b.network.snapshot_rebuilds

    def test_seed_changes_results(self):
        cfg = ExperimentConfig(
            protocol="GPSR", n_nodes=40, duration=10, n_pairs=2,
            field_size=600.0,
        )
        a = run_experiment(cfg.with_(seed=1))
        b = run_experiment(cfg.with_(seed=2))
        assert a.pairs != b.pairs or a.mean_latency != b.mean_latency

    def test_max_packets_per_pair(self):
        cfg = ExperimentConfig(
            protocol="GPSR", n_nodes=40, duration=30, n_pairs=2,
            field_size=600.0,
        )
        r = run_experiment(cfg, max_packets_per_pair=3)
        assert r.metrics.packets_sent == 6

    def test_run_many_distinct_seeds(self):
        cfg = ExperimentConfig(
            protocol="GPSR", n_nodes=30, duration=8, n_pairs=2,
            field_size=600.0,
        )
        results = run_many(cfg, runs=3)
        assert len(results) == 3
        assert len({r.config.seed for r in results}) == 3

    def test_default_runs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS", "11")
        assert default_runs() == 11

    def test_all_protocols_runnable(self):
        for proto in ("ALERT", "GPSR", "ALARM", "AO2P"):
            cfg = ExperimentConfig(
                protocol=proto, n_nodes=30, duration=8, n_pairs=2,
                field_size=600.0, seed=4,
            )
            r = run_experiment(cfg)
            assert r.metrics.packets_sent > 0

    def test_alarm_dissemination_metric(self):
        cfg = ExperimentConfig(
            protocol="ALARM", n_nodes=30, duration=8, n_pairs=2,
            field_size=600.0,
        )
        r = run_experiment(cfg)
        assert r.mean_hops_with_dissemination() > r.mean_hops


class TestDrainTime:
    """The run continues ``runner.DRAIN_TIME`` seconds past ``duration``."""

    CFG = ExperimentConfig(
        protocol="GPSR", n_nodes=20, duration=4.0, n_pairs=2,
        field_size=500.0, seed=4,
    )

    def test_default_drain_is_three_seconds(self):
        assert run_experiment(self.CFG).engine.now == self.CFG.duration + 3.0

    def test_zero_drain_ends_at_duration(self, monkeypatch):
        monkeypatch.setattr(runner, "DRAIN_TIME", 0.0)
        assert run_experiment(self.CFG).engine.now == self.CFG.duration


class TestAggregate:
    def test_mean_and_ci(self):
        mean, ci = aggregate([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert ci > 0

    def test_single_sample(self):
        assert aggregate([5.0]) == (5.0, 0.0)

    def test_nan_dropped(self):
        mean, _ = aggregate([1.0, float("nan"), 3.0])
        assert mean == 2.0

    def test_all_nan(self):
        mean, ci = aggregate([float("nan")])
        assert math.isnan(mean)

    def test_zero_variance(self):
        assert aggregate([2.0, 2.0, 2.0]) == (2.0, 0.0)


class TestTables:
    def test_series_table_rendering(self):
        text = format_series_table(
            "Fig X", "n", [50, 100],
            {"ALERT": [1.5, 2.5], "GPSR": [1.0, 2.0]},
            cis={"ALERT": [0.1, 0.2]},
        )
        assert "Fig X" in text
        assert "1.500 ±0.100" in text
        assert text.count("\n") == 4

    def test_series_table_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series_table("t", "x", [1, 2], {"s": [1.0]})

    def test_nan_rendering(self):
        text = format_series_table("t", "x", [1], {"s": [float("nan")]})
        assert "nan" in text

    def test_kv_block(self):
        text = format_kv_block("Result", {"rate": 0.5, "note": "ok"})
        assert "0.5000" in text and "ok" in text
