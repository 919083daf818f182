"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_schedule_at_runs_at_time(self):
        eng = Engine()
        hits = []
        eng.schedule_at(2.5, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [2.5]

    def test_schedule_in_relative(self):
        eng = Engine()
        hits = []
        eng.schedule_in(1.0, lambda: eng.schedule_in(1.5, lambda: hits.append(eng.now)))
        eng.run()
        assert hits == [2.5]

    def test_schedule_in_past_raises(self):
        eng = Engine()
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().schedule_in(-0.1, lambda: None)

    def test_non_finite_time_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule_at(float("nan"), lambda: None)

    def test_zero_delay_runs_at_now(self):
        eng = Engine()
        order = []
        def outer():
            eng.schedule_in(0.0, lambda: order.append("inner"))
            order.append("outer")
        eng.schedule_in(1.0, outer)
        eng.run()
        assert order == ["outer", "inner"]
        assert eng.now == 1.0


class TestOrdering:
    def test_fifo_at_equal_times(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.schedule_at(1.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        eng = Engine()
        order = []
        eng.schedule_at(1.0, lambda: order.append("low"), priority=5)
        eng.schedule_at(1.0, lambda: order.append("high"), priority=-5)
        eng.run()
        assert order == ["high", "low"]

    def test_time_order_dominates(self):
        eng = Engine()
        order = []
        eng.schedule_at(2.0, lambda: order.append("b"))
        eng.schedule_at(1.0, lambda: order.append("a"))
        eng.run()
        assert order == ["a", "b"]


class TestRunControl:
    def test_run_until_stops_clock_at_until(self):
        eng = Engine()
        eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(10.0, lambda: None)
        eng.run(until=5.0)
        assert eng.now == 5.0
        assert eng.pending() == 1

    def test_run_until_processes_inclusive(self):
        eng = Engine()
        hits = []
        eng.schedule_at(5.0, lambda: hits.append(1))
        eng.run(until=5.0)
        assert hits == [1]

    def test_resume_after_until(self):
        eng = Engine()
        hits = []
        eng.schedule_at(10.0, lambda: hits.append(eng.now))
        eng.run(until=5.0)
        eng.run()
        assert hits == [10.0]

    def test_stop_halts_processing(self):
        eng = Engine()
        hits = []
        def first():
            hits.append("first")
            eng.stop()
        eng.schedule_at(1.0, first)
        eng.schedule_at(2.0, lambda: hits.append("second"))
        eng.run()
        assert hits == ["first"]
        eng.run()
        assert hits == ["first", "second"]

    def test_events_processed_counter(self):
        eng = Engine()
        for i in range(7):
            eng.schedule_at(float(i + 1), lambda: None)
        eng.run()
        assert eng.events_processed == 7


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        hits = []
        h = eng.schedule_at(1.0, lambda: hits.append(1))
        h.cancel()
        eng.run()
        assert hits == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert h.cancelled

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        h1 = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert eng.pending() == 1

    def test_handle_reports_time(self):
        eng = Engine()
        h = eng.schedule_at(3.25, lambda: None)
        assert h.time == 3.25

    def test_cancel_heavy_workload_keeps_heap_bounded(self):
        # Schedule/cancel far more events than stay live: the heap
        # must stay O(live events), not O(all ever scheduled).
        eng = Engine()
        keep = [eng.schedule_at(100.0, lambda: None) for _ in range(10)]
        for _ in range(20):
            batch = [eng.schedule_at(50.0, lambda: None) for _ in range(100)]
            for h in batch:
                h.cancel()
        assert eng.pending() == 10
        assert len(eng._heap) < 300
        hits = []
        for h in keep:
            assert not h.cancelled
        eng.schedule_at(100.0, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [100.0]
        assert eng.pending() == 0

    def test_small_heap_compacts_once_half_is_dead(self):
        # Compaction has no size floor: 3 live + 4 cancelled entries
        # compact to the 3 live ones, which still fire in time order.
        eng = Engine()
        fired = []
        for t in (3.0, 1.0, 2.0):
            eng.schedule_at(t, lambda t=t: fired.append(t))
        dead = [eng.schedule_at(t, lambda: None) for t in (0.5, 1.5, 2.5, 3.5)]
        for h in dead:
            h.cancel()
        assert len(eng._heap) == 3
        assert eng.pending() == 3
        eng.run()
        assert fired == [1.0, 2.0, 3.0]
        assert eng.pending() == 0

    def test_cancel_after_fire_does_not_corrupt_count(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None)
        eng.run()
        h.cancel()  # no-op: already fired
        assert eng.pending() == 0


class TestCategories:
    def test_non_cancellable_returns_none_and_fires(self):
        eng = Engine()
        hits = []
        assert eng.schedule_at(1.0, lambda: hits.append(1), cancellable=False) is None
        eng.run()
        assert hits == [1]

    def test_event_counts_by_category(self):
        eng = Engine()
        eng.schedule_at(1.0, lambda: None, category="hello")
        eng.schedule_at(2.0, lambda: None, category="data", cancellable=False)
        eng.schedule_at(3.0, lambda: None, category="data")
        eng.schedule_at(4.0, lambda: None)
        eng.run()
        assert eng.event_counts == {"hello": 1, "data": 2, "other": 1}

    def test_cancelled_events_not_counted(self):
        eng = Engine()
        h = eng.schedule_at(1.0, lambda: None, category="timer")
        h.cancel()
        eng.run()
        assert eng.event_counts == {}
        assert eng.events_processed == 0


class _StubNode:
    """Minimal delivery target for delivery-record tests."""

    def __init__(self, log, name="n"):
        self.log = log
        self.name = name

    def deliver(self, packet):
        self.log.append((self.name, packet))


class TestDeliveryRecords:
    """One-record delivery blocks (``schedule_deliver_batch``), the
    form every unicast delivery takes."""

    def test_record_dispatches_node_deliver(self):
        eng = Engine()
        log = []
        eng.schedule_deliver_batch(1.0, [_StubNode(log)], ["pkt"], category="data")
        eng.run()
        assert log == [("n", "pkt")]
        assert eng.events_processed == 1
        assert eng.event_counts == {"data": 1}

    def test_past_and_non_finite_times_raise(self):
        eng = Engine()
        eng.schedule_at(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(1.0, [_StubNode([])], ["pkt"])
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(float("nan"), [_StubNode([])], ["pkt"])

    def test_records_survive_heap_compaction(self):
        # Compaction filters cancelled events in place; delivery
        # records (integer opcode, no Event object) must never be
        # dropped.
        eng = Engine()
        log = []
        eng.schedule_deliver_batch(100.0, [_StubNode(log)], ["pkt"])
        for _ in range(20):
            batch = [eng.schedule_at(50.0, lambda: None) for _ in range(100)]
            for h in batch:
                h.cancel()
        eng.run()
        assert log == [("n", "pkt")]


class TestReEntrantSameTimeOrder:
    """Work scheduled at ``time == now`` *during* ``run`` fires within
    the same run, after already-queued same-time events, in
    ``(priority, insertion)`` order — for callbacks, delivery records,
    and any interleaving of the two (the shared ``seq`` counter is what
    keeps the lanes from racing)."""

    def test_callback_lane(self):
        eng = Engine()
        order = []

        def spawner():
            order.append("spawner")
            eng.schedule_at(1.0, lambda: order.append("late"))
            eng.schedule_at(1.0, lambda: order.append("urgent"), priority=-1)

        eng.schedule_at(1.0, spawner)
        eng.schedule_at(1.0, lambda: order.append("queued"))
        eng.run()
        # "queued" was inserted before the spawned events and shares
        # priority 0 with "late"; "urgent" outranks both on priority.
        assert order == ["spawner", "urgent", "queued", "late"]

    def test_record_lane(self):
        eng = Engine()
        log = []

        class _Spawning:
            def deliver(self, packet):
                log.append(("spawn", packet))
                eng.schedule_deliver_batch(1.0, [_StubNode(log, "b")], ["late"])
                eng.schedule_deliver_batch(
                    1.0, [_StubNode(log, "a")], ["urgent"], priority=-1
                )

        eng.schedule_deliver_batch(1.0, [_Spawning()], ["first"])
        eng.schedule_deliver_batch(1.0, [_StubNode(log, "q")], ["queued"])
        eng.run()
        assert log == [
            ("spawn", "first"),
            ("a", "urgent"),
            ("q", "queued"),
            ("b", "late"),
        ]

    def test_lanes_interleave_by_insertion(self):
        eng = Engine()
        order = []

        def spawner():
            order.append("cb-spawner")
            eng.schedule_deliver_batch(
                1.0, [_StubNode(order, "rec-spawned")], ["p"]
            )
            eng.schedule_at(1.0, lambda: order.append("cb-spawned"))

        eng.schedule_at(1.0, spawner)
        eng.schedule_deliver_batch(1.0, [_StubNode(order, "rec-queued")], ["p"])
        eng.schedule_at(1.0, lambda: order.append("cb-queued"))
        eng.run()
        assert order == [
            "cb-spawner",
            ("rec-queued", "p"),
            "cb-queued",
            ("rec-spawned", "p"),
            "cb-spawned",
        ]


class TestSynchronousFeedbackOrder:
    """FlowFeedback dispatch is synchronous: a report made inside an
    engine event fires its listener before the engine moves on, so a
    traffic source observes feedback interleaved with both engine lanes
    in exact event-time order — never batched, reordered, or delayed
    to a later timestamp.  (The golden-trace suite relies on the flip
    side: dispatch schedules nothing, so wiring feedback into a run
    adds no engine events.)"""

    class _Listener:
        def __init__(self, order):
            self.order = order

        def on_flow_delivery(self, flow_id, now):
            self.order.append(("delivery", flow_id, now))

        def on_flow_loss(self, flow_id, kind, now):
            self.order.append((kind, flow_id, now))

    def test_feedback_interleaves_with_both_lanes(self):
        from repro.net.feedback import FlowFeedback

        eng = Engine()
        fb = FlowFeedback()
        order = []
        listener = self._Listener(order)
        fb.register(1, listener)
        fb.register(2, listener)
        eng.schedule_at(1.0, lambda: fb.mac_drop(1, eng.now))
        eng.schedule_deliver_batch(1.0, [_StubNode(order, "node")], ["pkt"])
        eng.schedule_at(1.0, lambda: order.append("plain"))
        eng.schedule_at(2.0, lambda: fb.delivery(2, eng.now))
        before = eng.events_processed
        eng.run()
        # feedback fired inside its producing events, in lane order,
        # stamped with the producing event's time
        assert order == [
            ("mac-drop", 1, 1.0),
            ("node", "pkt"),
            "plain",
            ("delivery", 2, 2.0),
        ]
        # dispatch itself added no engine events: 4 scheduled, 4 run
        assert eng.events_processed - before == 4

    def test_terminal_feedback_inside_event_releases_immediately(self):
        from repro.net.feedback import FlowFeedback

        eng = Engine()
        fb = FlowFeedback()
        order = []
        fb.register(5, self._Listener(order))

        def deliver_then_duplicate():
            fb.delivery(5, eng.now)
            fb.delivery(5, eng.now)  # same-event duplicate: ignored

        eng.schedule_at(1.0, deliver_then_duplicate)
        eng.schedule_at(1.0, lambda: fb.timeout(5, eng.now))
        eng.run()
        # the flow was released by its first terminal event, so the
        # same-time timeout event no longer reaches the listener
        assert order == [("delivery", 5, 1.0)]
        assert fb.deliveries == 2 and fb.timeouts == 1
