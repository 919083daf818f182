"""Tests for the radio model and the DCF-style MAC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.mac import Mac80211Dcf
from repro.net.radio import RadioModel


def _mac(seed=0, max_retries=None):
    mac = Mac80211Dcf(RadioModel(), np.random.default_rng(seed))
    if max_retries is not None:
        mac.max_retries = max_retries  # a DCF constant, set on the instance
    return mac


class TestRadioModel:
    def test_unit_disk(self):
        r = RadioModel()
        assert r.in_range(249.9)
        assert r.in_range(250.0)
        assert not r.in_range(250.1)

    def test_tx_time_scales_with_size(self):
        r = RadioModel()
        assert r.tx_time(1024) > r.tx_time(512) > r.tx_time(0) > 0

    def test_paper_scale_airtime(self):
        """512 B at 2 Mb/s ≈ 2.2 ms + preamble — millisecond scale."""
        r = RadioModel()
        t = r.tx_time(512)
        assert 0.002 < t < 0.004

    def test_propagation_delay(self):
        r = RadioModel()
        assert r.propagation_delay(300.0) == pytest.approx(1e-6, rel=1e-3)

    def test_tx_time_memo_returns_identical_floats(self):
        r = RadioModel()
        fresh = RadioModel()
        for size in (0, 14, 512, 512, 1024, 14):
            assert r.tx_time(size) == fresh.tx_time(size)
        # The memo caches one entry per distinct size, not per call.
        assert len(r._tx_cache) == 4


class TestMacUnicast:
    def test_idle_channel_mostly_succeeds(self):
        mac = _mac()
        ok = sum(mac.unicast(512, 100.0, 0.0).success for _ in range(200))
        assert ok >= 198  # only residual base_loss can fail all retries

    def test_delay_includes_airtime(self):
        mac = _mac()
        out = mac.unicast(512, 100.0, 0.0)
        assert out.delay_s >= mac.radio.tx_time(512)

    def test_loaded_channel_slower_and_lossier(self):
        idle = _mac(seed=1)
        busy = _mac(seed=1)
        idle_out = [idle.unicast(512, 100.0, 0.0) for _ in range(300)]
        busy_out = [busy.unicast(512, 100.0, 30.0) for _ in range(300)]
        idle_attempts = sum(o.attempts for o in idle_out)
        busy_attempts = sum(o.attempts for o in busy_out)
        assert busy_attempts > idle_attempts
        assert sum(o.success for o in busy_out) < sum(o.success for o in idle_out)

    def test_retry_limit_bounds_attempts(self):
        mac = _mac(max_retries=3)
        for _ in range(100):
            out = mac.unicast(512, 100.0, 1000.0)  # hopeless load
            assert out.attempts <= 4

    def test_counters_accumulate(self):
        mac = _mac()
        for _ in range(10):
            mac.unicast(512, 100.0, 0.0)
        assert mac.attempts_total >= 10

    def test_failure_prob_capped(self):
        mac = _mac()
        assert mac._attempt_failure_prob(1e9) <= 0.95

    def test_backoff_grows_with_attempt(self):
        mac = _mac(seed=5)
        early = np.mean([mac._backoff(0) for _ in range(500)])
        late = np.mean([mac._backoff(5) for _ in range(500)])
        assert late > early


class TestMacDropListener:
    def test_fires_synchronously_with_drops_total(self):
        # The listener must observe the counter *already incremented*,
        # once per drop, in the exact order drops happen — the contract
        # FlowFeedback.mac_drop relies on.
        mac = _mac(max_retries=2)
        seen = []
        mac.drop_listener = lambda flow: seen.append((flow, mac.drops_total))
        outcomes = [
            mac.unicast(512, 100.0, 1000.0, flow=i) for i in range(200)
        ]
        failures = [i for i, o in enumerate(outcomes) if not o.success]
        assert failures  # hopeless load: retry exhaustion happened
        assert mac.drops_total == len(failures)
        assert seen == [
            (flow, n) for n, flow in enumerate(failures, start=1)
        ]

    def test_control_frames_report_none_flow(self):
        mac = _mac(max_retries=1)
        seen = []
        mac.drop_listener = seen.append
        while mac.drops_total == 0:
            mac.unicast(512, 100.0, 1000.0)  # no flow id (control)
        assert seen == [None] * mac.drops_total

    def test_listener_does_not_perturb_rng(self):
        # Wiring feedback must never change MAC outcomes: same seed,
        # with and without a listener, gives identical exchanges.
        plain = _mac(seed=8, max_retries=2)
        hooked = _mac(seed=8, max_retries=2)
        hooked.drop_listener = lambda flow: None
        a = [plain.unicast(512, 100.0, 30.0, flow=i) for i in range(300)]
        b = [hooked.unicast(512, 100.0, 30.0, flow=i) for i in range(300)]
        assert a == b
        assert plain.drops_total == hooked.drops_total


class TestMacBroadcast:
    def test_single_attempt(self):
        mac = Mac80211Dcf(RadioModel(), np.random.default_rng(2))
        out = mac.broadcast(512, 0.0)
        assert out.attempts == 1

    def test_idle_broadcast_mostly_succeeds(self):
        mac = Mac80211Dcf(RadioModel(), np.random.default_rng(3))
        ok = sum(mac.broadcast(512, 0.0).success for _ in range(300))
        assert ok >= 290

    def test_collision_counter(self):
        mac = Mac80211Dcf(RadioModel(), np.random.default_rng(4))
        for _ in range(200):
            mac.broadcast(512, 50.0)
        assert mac.collisions_total > 0
