"""Closed-loop traffic: FlowFeedback plumbing and AdaptiveSource AIMD.

Three layers of guarantees:

* unit — the feedback channel's terminal-once/registration semantics
  and the source's backoff/recovery arithmetic;
* property (Hypothesis) — the send interval never leaves
  ``[min_interval, max_interval]`` under arbitrary feedback event
  sequences, and with feedback disabled an ``AdaptiveSource`` emits the
  exact ``CbrSource`` schedule for arbitrary parameters;
* end-to-end — a loss-free seeded run with adaptive sources is
  bit-identical to its CBR twin (same engine event count, same
  metrics), and a lossy seeded run reproduces its backoff/recovery
  trajectory exactly when re-run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig, TrafficConfig
from repro.experiments.runner import run_experiment
from repro.net.feedback import (
    LOSS_DROP,
    LOSS_LINK_FAILURE,
    LOSS_MAC_DROP,
    LOSS_TIMEOUT,
    FlowFeedback,
)
from repro.net.network import Network
from repro.net.traffic import DEFAULT_BACKOFF_KINDS, AdaptiveSource, CbrSource
from repro.sim.engine import Engine


class _RecordingListener:
    """Collects feedback callbacks in arrival order."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_flow_delivery(self, flow_id: int, now: float) -> None:
        self.events.append(("delivery", flow_id, now))

    def on_flow_loss(self, flow_id: int, kind: str, now: float) -> None:
        self.events.append(("loss", flow_id, kind, now))


class TestFlowFeedback:
    def test_delivery_is_terminal(self):
        fb = FlowFeedback()
        lis = _RecordingListener()
        fb.register(7, lis)
        fb.delivery(7, 1.0)
        assert lis.events == [("delivery", 7, 1.0)]
        assert not fb.registered(7)
        fb.delivery(7, 2.0)  # duplicate reception: counted, not dispatched
        assert lis.events == [("delivery", 7, 1.0)]
        assert fb.deliveries == 2

    def test_drop_is_terminal(self):
        fb = FlowFeedback()
        lis = _RecordingListener()
        fb.register(3, lis)
        fb.drop(3, "ttl", 0.5)
        assert lis.events == [("loss", 3, LOSS_DROP, 0.5)]
        assert not fb.registered(3)

    def test_mac_drop_and_link_failure_keep_registration(self):
        fb = FlowFeedback()
        lis = _RecordingListener()
        fb.register(5, lis)
        fb.mac_drop(5, 0.1)
        fb.link_failure(5, "blacklist", 0.2)
        fb.timeout(5, 0.3)
        assert fb.registered(5)
        assert [e[2] for e in lis.events] == [
            LOSS_MAC_DROP,
            LOSS_LINK_FAILURE,
            LOSS_TIMEOUT,
        ]

    def test_none_flow_ids_ignored(self):
        fb = FlowFeedback()
        fb.delivery(None, 0.0)
        fb.drop(None, "x", 0.0)
        fb.mac_drop(None, 0.0)
        fb.link_failure(None, "x", 0.0)
        fb.timeout(None, 0.0)
        assert fb.counters() == {
            "deliveries": 0,
            "drops": 0,
            "mac_drops": 0,
            "link_failures": 0,
            "timeouts": 0,
        }

    def test_unregistered_flows_only_bump_counters(self):
        fb = FlowFeedback()
        fb.delivery(9, 1.0)
        fb.mac_drop(9, 1.0)
        assert fb.counters()["deliveries"] == 1
        assert fb.counters()["mac_drops"] == 1

    def test_release_is_idempotent(self):
        fb = FlowFeedback()
        fb.register(1, _RecordingListener())
        fb.release(1)
        fb.release(1)
        assert not fb.registered(1)


def _adaptive(engine=None, **kw) -> AdaptiveSource:
    return AdaptiveSource(
        engine or Engine(), lambda s, d, n: None, 0, 1, **kw
    )


class TestAdaptiveArithmetic:
    def test_backoff_multiplies_and_clamps(self):
        src = _adaptive(
            interval=1.0, max_interval=3.0, backoff_factor=2.0
        )
        src.on_flow_loss(1, LOSS_DROP, 0.0)
        assert src.interval == 2.0
        src.on_flow_loss(2, LOSS_DROP, 0.0)
        assert src.interval == 3.0  # clamped, not 4.0
        src.on_flow_loss(3, LOSS_DROP, 0.0)
        assert src.interval == 3.0
        # only the two losses that moved the interval count as backoff
        # *events* — the saturated third shows up in ``losses`` alone
        assert src.backoff_events == 2
        assert src.losses == 3

    def test_saturated_backoff_counts_losses_not_events(self):
        """A loss at ``max_interval`` changes nothing and says so.

        ``backoff_events`` mirrors ``recovery_events``: both count
        actual interval changes.  Before the fix, losses arriving with
        the interval already pinned at the clamp kept inflating
        ``backoff_events``, so the counter could exceed the number of
        changes the trajectory ever made.
        """
        src = _adaptive(
            interval=1.0, max_interval=2.0, backoff_factor=4.0
        )
        src.on_flow_loss(1, LOSS_DROP, 0.0)  # 1.0 -> 2.0 (clamped)
        assert src.interval == src.max_interval
        assert src.backoff_events == 1
        for i in range(5):  # pinned: five more losses, zero changes
            src.on_flow_loss(2 + i, LOSS_TIMEOUT, 0.0)
        assert src.interval == src.max_interval
        assert src.backoff_events == 1
        assert src.losses == 6
        # symmetric with the delivery side: recovery at base is not an
        # event either
        src2 = _adaptive(interval=1.0)
        src2.on_flow_delivery(1, 0.0)
        assert src2.recovery_events == 0

    def test_recovery_floors_at_base_interval(self):
        src = _adaptive(
            interval=1.0, max_interval=8.0, backoff_factor=2.0,
            recovery_step=0.75,
        )
        src.on_flow_loss(1, LOSS_DROP, 0.0)  # -> 2.0
        src.on_flow_delivery(2, 0.0)  # -> 1.25
        src.on_flow_delivery(3, 0.0)  # -> 1.0 (not 0.5)
        assert src.interval == 1.0
        src.on_flow_delivery(4, 0.0)  # at base: no-op
        assert src.interval == 1.0
        assert src.recovery_events == 2
        assert src.deliveries == 3

    def test_link_failures_excluded_by_default(self):
        assert LOSS_LINK_FAILURE not in DEFAULT_BACKOFF_KINDS
        assert {LOSS_MAC_DROP, LOSS_DROP, LOSS_TIMEOUT} <= DEFAULT_BACKOFF_KINDS
        src = _adaptive(interval=1.0)
        src.on_flow_loss(1, LOSS_LINK_FAILURE, 0.0)
        assert src.interval == 1.0
        assert src.backoff_events == 0
        assert src.losses == 1

    def test_custom_backoff_kinds(self):
        src = _adaptive(
            interval=1.0, backoff_kinds=frozenset({LOSS_TIMEOUT})
        )
        src.on_flow_loss(1, LOSS_MAC_DROP, 0.0)
        assert src.interval == 1.0
        src.on_flow_loss(2, LOSS_TIMEOUT, 0.0)
        assert src.interval == 2.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            _adaptive(interval=1.0, min_interval=2.0)  # base below min
        with pytest.raises(ValueError):
            _adaptive(interval=9.0, max_interval=8.0)  # base above max
        with pytest.raises(ValueError):
            _adaptive(interval=1.0, backoff_factor=1.0)
        with pytest.raises(ValueError):
            _adaptive(interval=1.0, recovery_step=-0.1)
        with pytest.raises(ValueError):
            _adaptive(interval=1.0, backoff_kinds=frozenset({"bogus"}))
        for bad in (float("nan"), float("inf"), float("-inf")):
            for name in (
                "min_interval", "max_interval", "backoff_factor",
                "recovery_step",
            ):
                with pytest.raises(ValueError):
                    _adaptive(interval=1.0, **{name: bad})


class TestRegisterBeforeDispatch:
    """Feedback registration must precede packet dispatch.

    Feedback reporting is synchronous: a first-hop MAC drop or an
    immediate no-route terminal drop fires *inside* the protocol's
    send call.  The source therefore registers through ``send_data``'s
    ``on_flow`` hook.  Before the fix it registered on the return
    value — after any synchronous signal had already been swallowed —
    so the loss never reached the source, and a synchronously-dropped
    flow was re-registered dead, leaking its registration forever.
    """

    def test_synchronous_mac_drop_reaches_source(self):
        eng = Engine()
        fb = FlowFeedback()

        def send(src, dst, size, on_flow=None):
            if on_flow is not None:
                on_flow(42)
            fb.mac_drop(42, eng.now)  # first hop drops before returning
            return 42

        src = AdaptiveSource(
            eng, send, 0, 1, interval=1.0, max_packets=1,
            start_offset=0.5, feedback=fb,
        )
        eng.run(until=1.0)
        assert src.sent == 1
        assert src.losses == 1
        assert src.backoff_events == 1
        assert src.interval == 2.0
        assert fb.registered(42)  # MAC drop is not terminal

    def test_synchronous_terminal_drop_leaves_no_registration(self):
        eng = Engine()
        fb = FlowFeedback()

        def send(src, dst, size, on_flow=None):
            if on_flow is not None:
                on_flow(7)
            fb.drop(7, "no_route", eng.now)  # terminal, synchronous
            return 7

        src = AdaptiveSource(
            eng, send, 0, 1, interval=1.0, max_packets=1,
            start_offset=0.5, feedback=fb,
        )
        eng.run(until=1.0)
        assert src.losses == 1
        # the terminal signal consumed the registration; registering
        # afterwards (the old ordering) would have left flow 7 pinned
        # in the channel for the rest of the run
        assert not fb.registered(7)

    def test_open_loop_source_passes_no_hook(self):
        eng = Engine()
        calls: list[tuple] = []

        def send(src, dst, size, on_flow=None):
            calls.append((src, dst, size, on_flow))
            return 1

        AdaptiveSource(
            eng, send, 0, 1, interval=1.0, max_packets=1,
            start_offset=0.5, feedback=None,
        )
        eng.run(until=1.0)
        assert calls == [(0, 1, 512, None)]


EVENT = st.one_of(
    st.just(("delivery",)),
    st.tuples(
        st.just("loss"),
        st.sampled_from(
            [LOSS_MAC_DROP, LOSS_LINK_FAILURE, LOSS_DROP, LOSS_TIMEOUT]
        ),
    ),
)


class TestIntervalClampProperty:
    @settings(max_examples=200)
    @given(
        base=st.floats(min_value=0.1, max_value=4.0),
        span=st.floats(min_value=0.0, max_value=8.0),
        factor=st.floats(min_value=1.01, max_value=4.0),
        step=st.floats(min_value=0.0, max_value=2.0),
        events=st.lists(EVENT, max_size=60),
    )
    def test_interval_never_leaves_clamp(
        self, base, span, factor, step, events
    ):
        src = _adaptive(
            interval=base,
            min_interval=base / 2,
            max_interval=base + span,
            backoff_factor=factor,
            recovery_step=step,
        )
        for i, ev in enumerate(events):
            if ev[0] == "delivery":
                src.on_flow_delivery(i, 0.0)
            else:
                src.on_flow_loss(i, ev[1], 0.0)
            # recovery additionally never undershoots base (the CBR
            # cadence), which is the bit-identity invariant below
            assert src.base_interval <= src.interval <= src.max_interval


def _send_times(source_cls, interval, offset, max_packets, until, **kw):
    eng = Engine()
    times: list[float] = []
    source_cls(
        eng,
        lambda s, d, n: times.append(eng.now),
        0,
        1,
        interval=interval,
        start_offset=offset,
        max_packets=max_packets,
        **kw,
    )
    eng.run(until=until)
    return times, eng.events_processed, eng.pending()


class TestCbrEquivalenceProperty:
    @settings(max_examples=100)
    @given(
        interval=st.floats(min_value=0.05, max_value=3.0),
        offset=st.floats(min_value=0.0, max_value=2.0),
        max_packets=st.one_of(st.none(), st.integers(0, 12)),
    )
    def test_open_loop_adaptive_matches_cbr_schedule(
        self, interval, offset, max_packets
    ):
        until = offset + 8 * interval
        cbr = _send_times(CbrSource, interval, offset, max_packets, until)
        adaptive = _send_times(
            AdaptiveSource,
            interval,
            offset,
            max_packets,
            until,
            feedback=None,
            min_interval=interval,
            max_interval=interval * 4,
        )
        # same send instants, same engine event count, same leftovers
        assert adaptive == cbr


#: Low-load seeded scenario with a 100 % delivery rate: the adaptive
#: twin sees only deliveries, and recovery at the base interval is a
#: no-op, so the two runs must be bit-identical.
QUIET = ExperimentConfig(
    protocol="ALERT",
    n_nodes=30,
    field_size=300.0,
    duration=10.0,
    n_pairs=3,
    send_interval=1.0,
    seed=5,
)

#: Congested seeded scenario that actually exercises backoff/recovery.
LOSSY = ExperimentConfig(
    protocol="ALERT",
    n_nodes=40,
    field_size=300.0,
    duration=6.0,
    n_pairs=15,
    send_interval=0.05,
    seed=6,
    traffic=TrafficConfig(
        model="adaptive",
        min_interval=0.05,
        max_interval=0.5,
        backoff_factor=1.25,
        recovery_step=0.5,
    ),
)


def _fingerprint(result):
    return (
        result.engine.events_processed,
        result.metrics.packets_sent,
        repr(result.delivery_rate),
        repr(result.mean_latency),
        repr(result.mean_hops),
        result.network.mac.drops_total,
    )


class TestEndToEnd:
    def test_zero_loss_adaptive_run_bit_identical_to_cbr(self):
        cbr = run_experiment(QUIET)
        adaptive = run_experiment(
            QUIET.with_(
                traffic=TrafficConfig(
                    model="adaptive", min_interval=0.5, max_interval=4.0
                )
            )
        )
        assert cbr.delivery_rate == 1.0  # scenario really is loss-free
        assert adaptive.feedback is not None
        assert adaptive.feedback.deliveries == adaptive.metrics.packets_sent
        assert adaptive.backoff_events == 0
        assert _fingerprint(adaptive) == _fingerprint(cbr)
        for src in adaptive.sources:
            assert src.interval == QUIET.send_interval

    def test_lossy_run_backs_off_and_is_seed_deterministic(self):
        first = run_experiment(LOSSY)
        second = run_experiment(LOSSY)
        assert first.backoff_events > 0
        assert first.recovery_events > 0
        assert (first.backoff_events, first.recovery_events) == (
            second.backoff_events,
            second.recovery_events,
        )
        assert first.feedback.counters() == second.feedback.counters()
        assert _fingerprint(first) == _fingerprint(second)
        assert [s.interval for s in first.sources] == [
            s.interval for s in second.sources
        ]
        # offered load genuinely fell below the open-loop cadence
        open_loop = len(first.pairs) / LOSSY.send_interval
        assert first.offered_load_pps < open_loop

    @pytest.mark.parametrize("protocol", ["GPSR", "ALARM", "AO2P", "ZAP"])
    def test_every_hop_failure_reaches_feedback(self, protocol, monkeypatch):
        """Each per-hop link failure the network reports to a GPSR-based
        protocol is passed on to ``FlowFeedback.link_failure``."""
        failures = []
        unicast = Network.unicast

        def counting_unicast(self, *args, on_failed, **kwargs):
            def failed(reason):
                failures.append(reason)
                on_failed(reason)

            unicast(self, *args, on_failed=failed, **kwargs)

        monkeypatch.setattr(Network, "unicast", counting_unicast)
        result = run_experiment(LOSSY.with_(protocol=protocol))
        assert failures
        assert result.feedback.link_failures == len(failures)

    def test_per_flow_traffic_rows_cover_all_pairs(self):
        result = run_experiment(LOSSY)
        rows = result.per_flow_traffic()
        assert len(rows) == len(result.pairs)
        assert {(r["src"], r["dst"]) for r in rows} == set(result.pairs)
        assert sum(r["offered"] for r in rows) == result.metrics.packets_sent
        assert (
            sum(r["delivered"] for r in rows)
            == result.metrics.packets_delivered
        )
        for row in rows:
            assert (
                LOSSY.traffic.min_interval
                <= row["final_interval_s"]
                <= LOSSY.traffic.max_interval
            )


class TestTrafficConfig:
    def test_dict_coercion(self):
        cfg = ExperimentConfig(traffic={"model": "adaptive"})
        assert isinstance(cfg.traffic, TrafficConfig)
        assert cfg.traffic.model == "adaptive"

    def test_send_interval_must_fit_clamp(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                send_interval=10.0, traffic={"model": "adaptive"}
            )

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            TrafficConfig(model="tcp")

    def test_rejects_bad_clamp(self):
        with pytest.raises(ValueError):
            TrafficConfig(min_interval=2.0, max_interval=1.0)
        with pytest.raises(ValueError):
            TrafficConfig(backoff_factor=0.9)
        with pytest.raises(ValueError):
            TrafficConfig(recovery_step=-1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            for name in (
                "min_interval", "max_interval", "backoff_factor",
                "recovery_step",
            ):
                with pytest.raises(ValueError):
                    TrafficConfig(**{name: bad})
