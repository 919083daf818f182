"""Tests for Timer and PeriodicTask."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask, Timer


class TestTimer:
    def test_fires_after_delay(self):
        eng = Engine()
        hits = []
        t = Timer(eng, lambda: hits.append(eng.now))
        t.start(2.0)
        eng.run()
        assert hits == [2.0]

    def test_cancel_prevents_fire(self):
        eng = Engine()
        hits = []
        t = Timer(eng, lambda: hits.append(1))
        t.start(2.0)
        t.cancel()
        eng.run()
        assert hits == []

    def test_restart_supersedes(self):
        eng = Engine()
        hits = []
        t = Timer(eng, lambda: hits.append(eng.now))
        t.start(2.0)
        t.start(5.0)
        eng.run()
        assert hits == [5.0]

    def test_armed_reflects_state(self):
        eng = Engine()
        t = Timer(eng, lambda: None)
        assert not t.armed
        t.start(1.0)
        assert t.armed
        eng.run()
        assert not t.armed

    def test_can_rearm_inside_callback(self):
        eng = Engine()
        hits = []
        t = Timer(eng, lambda: hits.append(eng.now))

        def fire():
            hits.append(eng.now)
            if len(hits) < 3:
                t2.start(1.0)

        t2 = Timer(eng, fire)
        t2.start(1.0)
        eng.run()
        assert hits == [1.0, 2.0, 3.0]


class TestPeriodicTask:
    def test_ticks_at_interval(self):
        eng = Engine()
        hits = []
        task = PeriodicTask(eng, 1.0, lambda: hits.append(eng.now))
        eng.run(until=3.5)
        task.stop()
        assert hits == [1.0, 2.0, 3.0]

    def test_start_offset(self):
        eng = Engine()
        hits = []
        task = PeriodicTask(eng, 2.0, lambda: hits.append(eng.now), start_offset=0.5)
        eng.run(until=5.0)
        task.stop()
        assert hits == [0.5, 2.5, 4.5]

    def test_stop_halts_ticks(self):
        eng = Engine()
        hits = []
        task = PeriodicTask(eng, 1.0, lambda: hits.append(1))
        eng.schedule_at(2.5, task.stop)
        eng.run(until=10.0)
        assert len(hits) == 2

    def test_stop_inside_callback(self):
        eng = Engine()
        hits = []

        def tick():
            hits.append(eng.now)
            if len(hits) == 2:
                task.stop()

        task = PeriodicTask(eng, 1.0, tick)
        eng.run(until=10.0)
        assert hits == [1.0, 2.0]

    def test_tick_counter(self):
        eng = Engine()
        task = PeriodicTask(eng, 1.0, lambda: None)
        eng.run(until=4.0)
        task.stop()
        assert task.ticks == 4

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            PeriodicTask(Engine(), 0.0, lambda: None)

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            PeriodicTask(Engine(), 1.0, lambda: None, jitter=0.1)

    def test_jitter_displaces_ticks(self):
        eng = Engine()
        hits = []
        task = PeriodicTask(
            eng, 1.0, lambda: hits.append(eng.now),
            jitter=0.2, rng=eng.rng.stream("j"),
        )
        eng.run(until=10.0)
        task.stop()
        assert len(hits) >= 7
        # Ticks are displaced but stay near the nominal cadence.
        for i, t in enumerate(hits):
            assert abs(t - (i + 1)) < 0.2 * (i + 2)
        assert any(abs(t - round(t)) > 1e-6 for t in hits)

    def test_tick_and_heap_event_at_same_instant_fire_in_insertion_order(self):
        eng = Engine()
        log = []
        task = PeriodicTask(eng, 1.0, lambda: log.append(("tick", eng.now)))
        eng.schedule_in(1.0, lambda: log.append(("heap", eng.now)))
        eng.schedule_in(0.5, lambda: log.append(("early", eng.now)))
        eng.run(until=1.0)
        task.stop()
        # same time: the tick was booked first, so it fires first
        assert log == [("early", 0.5), ("tick", 1.0), ("heap", 1.0)]

    def test_stop_drops_queued_tick_from_pending(self):
        eng = Engine()
        hits = []
        task = PeriodicTask(eng, 1.0, lambda: hits.append("tick"))
        eng.schedule_in(2.0, lambda: hits.append("other"))
        assert eng.pending() == 2
        task.stop()
        task.stop()  # idempotent
        assert eng.pending() == 1
        eng.run()
        assert hits == ["other"]
        assert eng.pending() == 0
        assert eng.events_processed == 1

    def test_run_until_leaves_next_tick_queued(self):
        eng = Engine()
        hits = []
        PeriodicTask(eng, 1.0, lambda: hits.append(eng.now))
        eng.run(until=3.5)
        assert hits == [1.0, 2.0, 3.0]
        assert eng.now == 3.5
        assert eng.pending() == 1  # next tick at 4.0 still queued
        eng.run(until=4.0)
        assert hits == [1.0, 2.0, 3.0, 4.0]
