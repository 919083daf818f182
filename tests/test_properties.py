"""Cross-module property-based tests: whole-system invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def _fingerprint(result) -> tuple:
    """A deterministic digest of a run's observable behaviour."""
    flows = tuple(
        (
            f.flow_id,
            f.src,
            f.dst,
            f.delivered,
            round(f.latency, 9) if f.latency is not None else None,
            f.tx_count,
            f.rf_count,
            tuple(f.path),
        )
        for f in result.metrics.flows()
    )
    return flows


def _mini_config(protocol: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=protocol,
        n_nodes=30,
        duration=8.0,
        n_pairs=2,
        field_size=600.0,
        seed=seed,
    )


class TestSystemProperties:
    @settings(max_examples=4, deadline=None)
    @given(
        st.sampled_from(["ALERT", "GPSR"]),
        st.integers(0, 10_000),
        st.fixed_dictionaries(
            {
                "intersection_defense": st.booleans(),
                "notify_and_go": st.booleans(),
                "enable_confirmation": st.booleans(),
            }
        ),
    )
    def test_bitwise_determinism(self, protocol, seed, alert_options):
        """Two runs of the same (config, seed) are indistinguishable.

        ALERT runs also draw the defense, notify-and-go and
        confirmation flags, so every combination of the real-crypto
        paths is covered.
        """
        cfg = _mini_config(protocol, seed)
        if protocol == "ALERT":
            cfg = cfg.with_(alert_options=alert_options)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert _fingerprint(a) == _fingerprint(b)
        assert a.event_counts == b.event_counts
        assert a.cost.charges == b.cost.charges

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_flow_records_well_formed(self, seed):
        """Every flow record obeys the structural invariants."""
        r = run_experiment(_mini_config("ALERT", seed))
        for f in r.metrics.flows():
            assert f.attempts >= f.tx_count >= 0
            assert f.rf_count >= 0
            if f.delivered:
                assert f.latency is not None and f.latency > 0
                assert f.path[0] == f.src
                assert f.path[-1] == f.dst
            assert not (f.delivered and f.dropped_reason)
            # Participants are real node ids.
            assert all(0 <= p < 30 for p in f.participants)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000))
    def test_metrics_bounds(self, seed):
        """Aggregate metrics stay within their mathematical ranges."""
        r = run_experiment(_mini_config("GPSR", seed))
        assert 0.0 <= r.delivery_rate <= 1.0
        if r.metrics.packets_sent:
            assert r.mean_hops >= 0
        series = r.metrics.cumulative_participants()
        assert series == sorted(series)  # monotone non-decreasing
        assert all(v <= 30 for v in series)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_alert_h_invariants(self, seed, h):
        """ALERT respects its configured partition bound at any H."""
        cfg = _mini_config("ALERT", seed).with_(h_override=h)
        r = run_experiment(cfg)
        from repro.core.alert import AlertProtocol
        assert isinstance(r.protocol, AlertProtocol)
        assert r.protocol.h == h
        for f in r.metrics.flows():
            max_rounds = r.protocol.config.max_rf_rounds
            assert f.partitions <= (max_rounds + 1) * h
