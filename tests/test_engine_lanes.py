"""Batched delivery records: ordering, accounting, and parity.

A broadcast fan-out scheduled through ``Engine.schedule_deliver_batch``
rides one ``OP_DELIVER_BATCH`` heap entry that reserves one sequence
number per record, and claims *by-construction* identity with the same
fan-out scheduled as one non-cancellable callback per receiver.  This
suite pins that claim two ways:

* deterministic ordering tests — ``run(until)`` semantics, ``stop()``
  between records of a batch (the unfired tail is requeued as one
  block under its reserved sequence numbers), ``pending()`` accounting
  mid-batch, and cancellation during a batch;
* batch-vs-individual differential tests — a broadcast fan-out
  scheduled as one batch record must be indistinguishable from the
  same fan-out scheduled as one-record batches or as individual
  callbacks, including alongside other events at the same instant.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.sim.engine import Engine, SimulationError


class _Sink:
    """Delivery target that logs ``deliver`` calls with the clock."""

    def __init__(self, engine: Engine, log: list, name: str) -> None:
        self._engine = engine
        self._log = log
        self.name = name

    def deliver(self, packet) -> None:
        self._log.append(("deliver", self.name, packet, self._engine.now))


class _StoppingSink(_Sink):
    """Stops the engine from inside its delivery."""

    def deliver(self, packet) -> None:
        super().deliver(packet)
        self._engine.stop()


class TestBatchRecords:
    def test_batch_fires_in_reserved_sequence_positions(self):
        """A batch behaves exactly like n individual pushes.

        An event scheduled *after* the batch at the same (time,
        priority) must fire after the whole block — its sequence number
        is higher than every reserved one.
        """
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, f"s{i}") for i in range(3)]
        eng.schedule_deliver_batch(1.0, sinks, ["a", "b", "c"])
        eng.schedule_at(1.0, lambda: log.append(("after", eng.now)))
        eng.schedule_at(
            1.0, lambda: log.append(("prio", eng.now)), priority=-1
        )
        eng.run()
        assert log == [
            ("prio", 1.0),
            ("deliver", "s0", "a", 1.0),
            ("deliver", "s1", "b", 1.0),
            ("deliver", "s2", "c", 1.0),
            ("after", 1.0),
        ]
        assert eng.events_processed == 5

    def test_batch_matches_individual_records(self):
        """Differential: one batch vs n one-record batches vs n
        non-cancellable callbacks."""

        def drive(mode: str):
            eng = Engine()
            log: list = []
            sinks = [_Sink(eng, log, f"s{i}") for i in range(4)]
            if mode == "batch":
                eng.schedule_deliver_batch(
                    0.5, sinks, list("wxyz"), category="data"
                )
            elif mode == "singles":
                for s, p in zip(sinks, "wxyz"):
                    eng.schedule_deliver_batch(0.5, [s], [p], category="data")
            else:
                for s, p in zip(sinks, "wxyz"):
                    eng.schedule_at(
                        0.5, partial(s.deliver, p),
                        category="data", cancellable=False,
                    )
            eng.schedule_at(0.25, lambda: log.append(("early", eng.now)))
            eng.run()
            return log, eng.events_processed, dict(eng.event_counts)

        reference = drive("callbacks")
        assert drive("batch") == reference
        assert drive("singles") == reference

    def test_pending_counts_batch_records_individually(self):
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, f"s{i}") for i in range(5)]
        eng.schedule_deliver_batch(1.0, sinks, list(range(5)))
        assert eng.pending() == 5
        eng.schedule_deliver_batch(2.0, sinks[:1], ["solo"])
        assert eng.pending() == 6
        eng.run()
        assert eng.pending() == 0
        assert eng.events_processed == 6

    def test_stop_mid_batch_requeues_tail_under_reserved_seqs(self):
        eng = Engine()
        log: list = []
        sinks = [
            _Sink(eng, log, "s0"),
            _StoppingSink(eng, log, "s1"),
            _Sink(eng, log, "s2"),
            _Sink(eng, log, "s3"),
        ]
        eng.schedule_deliver_batch(1.0, sinks, list("abcd"))
        # Scheduled after the batch: must still fire after the whole
        # block even though the block is interrupted and resumed.
        eng.schedule_at(1.0, lambda: log.append(("after", eng.now)))
        eng.run()
        assert [e[1] for e in log if e[0] == "deliver"] == ["s0", "s1"]
        assert eng.events_processed == 2
        # the two unfired records (plus the callback) survive the stop
        assert eng.pending() == 3
        assert eng.now == 1.0
        eng.run()
        assert [e[1] for e in log if e[0] == "deliver"] == [
            "s0", "s1", "s2", "s3"
        ]
        assert log[-1] == ("after", 1.0)
        assert eng.pending() == 0
        assert eng.events_processed == 5

    def test_stop_twice_in_one_batch_requeues_the_tail_again(self):
        """A stop() inside the re-queued tail of a stopped batch."""
        eng = Engine()
        log: list = []
        sinks = [
            _Sink(eng, log, "s0"),
            _StoppingSink(eng, log, "s1"),
            _Sink(eng, log, "s2"),
            _StoppingSink(eng, log, "s3"),
            _Sink(eng, log, "s4"),
        ]
        eng.schedule_deliver_batch(1.0, sinks, list("abcde"))
        eng.schedule_at(1.0, lambda: log.append(("after", eng.now)))
        eng.schedule_at(
            1.0, lambda: log.append(("first", eng.now)), priority=-1
        )

        def delivered():
            return [e[1] for e in log if e[0] == "deliver"]

        eng.run()
        assert delivered() == ["s0", "s1"]
        assert eng.events_processed == 3
        assert eng.pending() == 4  # s2, s3, s4 and the callback
        eng.run()
        assert delivered() == ["s0", "s1", "s2", "s3"]
        assert eng.events_processed == 5
        assert eng.pending() == 2  # s4 and the callback
        eng.run()
        assert log == [
            ("first", 1.0),
            ("deliver", "s0", "a", 1.0),
            ("deliver", "s1", "b", 1.0),
            ("deliver", "s2", "c", 1.0),
            ("deliver", "s3", "d", 1.0),
            ("deliver", "s4", "e", 1.0),
            ("after", 1.0),
        ]
        assert eng.events_processed == 7
        assert eng.pending() == 0
        assert eng.event_counts == {"data": 5, "other": 2}

    def test_cancel_during_batch_takes_effect(self):
        """A batch delivery cancelling a later heap event really stops it."""
        eng = Engine()
        log: list = []
        handle_box: dict = {}

        class _Canceller(_Sink):
            def deliver(self, packet) -> None:
                super().deliver(packet)
                handle_box["h"].cancel()

        sinks = [_Canceller(eng, log, "s0"), _Sink(eng, log, "s1")]
        eng.schedule_deliver_batch(1.0, sinks, ["a", "b"])
        handle_box["h"] = eng.schedule_at(
            1.5, lambda: log.append(("doomed", eng.now))
        )
        eng.run()
        assert ("doomed", 1.5) not in log
        assert [e[1] for e in log if e[0] == "deliver"] == ["s0", "s1"]
        assert eng.pending() == 0

    def test_run_until_excludes_future_batch(self):
        eng = Engine()
        log: list = []
        sinks = [_Sink(eng, log, "s")]
        eng.schedule_deliver_batch(2.0, sinks * 2, ["a", "b"])
        eng.run(until=1.0)
        assert log == []
        assert eng.now == 1.0
        assert eng.pending() == 2

    def test_batch_validation(self):
        eng = Engine()
        sink = _Sink(eng, [], "s")
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(1.0, [sink], ["a", "b"])
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(float("nan"), [sink], ["a"])
        eng.schedule_at(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_deliver_batch(0.5, [sink], ["a"])
        # empty batches are a no-op, not an error
        eng.schedule_deliver_batch(2.0, [], [])
        assert eng.pending() == 0
