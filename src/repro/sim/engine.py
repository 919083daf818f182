"""The discrete-event engine.

``Engine`` owns the simulation clock, the event heap, and the registry
of named random streams.  It is intentionally callback-based (like the
NS-2 scheduler the paper's evaluation ran on) rather than
coroutine-based: protocol state machines in this repository react to
packet-arrival events, so callbacks map directly onto the domain.

Performance notes
-----------------
The heap stores plain ``(time, priority, seq, fn, category, event)``
tuples rather than :class:`~repro.sim.events.Event` objects, so every
sift comparison is a C-level tuple comparison (``seq`` is unique, so
the trailing non-comparable fields are never reached).  ``run`` is the
one dispatch loop: it pops and dispatches every entry kind inline,
with no per-event method call.  Callers that never cancel an event
pass ``cancellable=False`` and skip the :class:`Event`/:class:`EventHandle`
allocations entirely.  Cancelled events are counted live, making
:meth:`pending` O(1), and the heap is compacted once more than half of
it is dead so cancellation-heavy workloads (retransmit timers) cannot
grow it unboundedly.

Delivery records
----------------
Frame deliveries, which dominate the schedule, have no callable at
all.  :meth:`schedule_deliver_batch` pushes one *delivery record*
``(time, priority, seq, OP_DELIVER_BATCH, category, receivers,
packets)`` for a co-temporal block — the receivers of a one-hop
broadcast, or the single receiver of a unicast — and the pop loop
calls ``receiver.deliver(packet)`` for each record directly, with no
closure or ``partial`` allocation per frame.  The entry reserves one
sequence number per record, so the block dispatches back-to-back
exactly where ``n`` individual callbacks would have fired, at one heap
push/pop for the lot.  ``stop()`` mid-block re-queues the unfired tail
as one block under its reserved sequence numbers.
"""

from __future__ import annotations

import heapq
from math import isfinite
from typing import Any, Callable

from repro.sim.events import Event, EventHandle, OP_DELIVER_BATCH
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised on scheduling errors (e.g., scheduling into the past)."""


class Engine:
    """Deterministic discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Master seed for the engine's :class:`~repro.sim.rng.RngRegistry`.
        Two engines constructed with the same seed and fed the same
        schedule produce identical trajectories.

    Notes
    -----
    * Time is a float number of seconds starting at ``0.0``.
    * Events at equal times fire in ``(priority, insertion)`` order.
    * ``run(until=...)`` stops *after* processing every event with
      ``time <= until`` and leaves ``now`` at ``until``.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        # Heap of (time, priority, seq, fn, category, Event | None).
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._stopped: bool = False
        self._n_cancelled: int = 0
        # Records represented by queued batch entries beyond the heap
        # slots they occupy (n - 1 per n-record batch), kept live so
        # ``pending()`` stays O(1) and exact mid-batch.
        self._batch_extra: int = 0
        self.rng = RngRegistry(seed)
        #: number of events processed so far (diagnostic)
        self.events_processed: int = 0
        #: processed events by category ("hello" / "data" / "control" /
        #: "timer" / "other") — cheap per-run profile of where the
        #: event budget goes, surfaced through ``RunResult.event_counts``.
        self.event_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        category: str = "other",
        cancellable: bool = True,
    ) -> EventHandle | None:
        """Schedule ``fn`` to run at absolute time ``time``.

        ``category`` tags the event for :attr:`event_counts`.  With
        ``cancellable=False`` no handle is created (and ``None`` is
        returned) — the fast lane for fire-and-forget events like frame
        deliveries, which saves two allocations per event on the
        dominant schedule path.

        Raises
        ------
        SimulationError
            If ``time`` is in the past or not finite.
        """
        if not isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        if not cancellable:
            heapq.heappush(self._heap, (time, priority, seq, fn, category, None))
            return None
        ev = Event(time=time, priority=priority, seq=seq, fn=fn)
        heapq.heappush(self._heap, (time, priority, seq, fn, category, ev))
        return EventHandle(ev, self)

    def schedule_in(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = 0,
        category: str = "other",
        cancellable: bool = True,
    ) -> EventHandle | None:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(
            self._now + delay,
            fn,
            priority=priority,
            category=category,
            cancellable=cancellable,
        )

    def schedule_deliver_batch(
        self,
        time: float,
        targets: list,
        packets: list,
        priority: int = 0,
        category: str = "data",
    ) -> None:
        """Schedule a co-temporal block of delivery records as one entry.

        The broadcast fast lane: all receivers of a one-hop fan-out
        hear the frame at the same ``(time, priority)``, so the block
        rides a single heap entry instead of ``len(targets)`` pushes.
        One sequence number is reserved *per record*, which makes the
        global firing order — including anything scheduled re-entrantly
        at the same instant — exactly what one ``cancellable=False``
        :meth:`schedule_at` callback per record, in the same order,
        would produce.  A one-hop unicast is a one-record block.
        ``events_processed``, per-category counts, and :meth:`pending`
        all account per record, and :meth:`stop` between two records of
        a block re-queues the unfired tail as one block under its
        reserved sequence numbers.

        Raises
        ------
        SimulationError
            If ``time`` is in the past or not finite, or the lists'
            lengths differ.
        """
        if not isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} < now={self._now:.6f}"
            )
        n = len(targets)
        if n != len(packets):
            raise SimulationError(
                f"batch length mismatch: {n} targets, {len(packets)} packets"
            )
        if n == 0:
            return
        seq = self._seq
        self._seq = seq + n
        heapq.heappush(
            self._heap,
            (time, priority, seq, OP_DELIVER_BATCH, category, targets, packets),
        )
        self._batch_extra += n - 1

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An ``EventHandle`` cancelled a queued event (O(1) amortised).

        Keeps :meth:`pending` O(1) and compacts the heap when more than
        half of it is dead, so workloads that cancel most of what they
        schedule (retransmit timers under good link conditions) hold
        the heap at O(live events) instead of growing it unboundedly.
        """
        self._n_cancelled += 1
        if 2 * self._n_cancelled > len(self._heap):
            # In place: ``run`` holds a local alias to the heap list.
            # Delivery records (integer opcode in the fn slot) carry a
            # receiver list in slot 5 and are never cancellable.
            heap = self._heap
            heap[:] = [
                entry
                for entry in heap
                if type(entry[3]) is int
                or entry[5] is None
                or not entry[5].cancelled
            ]
            heapq.heapify(heap)
            self._n_cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given, every event with ``time <= until`` is
        processed and the clock is then advanced to exactly ``until``.
        """
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        counts = self.event_counts
        while heap and not self._stopped:
            entry = heap[0]
            time_ = entry[0]
            if until is not None and time_ > until:
                break
            pop(heap)
            fn = entry[3]
            if type(fn) is int:
                # Delivery record: dispatch the co-temporal block
                # back-to-back.  Counters move per record, and a stop()
                # between records re-queues the unfired tail as one
                # block under its reserved sequence numbers.
                self._now = time_
                targets = entry[5]
                packets = entry[6]
                n = len(targets)
                category = entry[4]
                self._batch_extra += 1
                j = 0
                while j < n:
                    self._batch_extra -= 1
                    self.events_processed += 1
                    counts[category] = counts.get(category, 0) + 1
                    targets[j].deliver(packets[j])
                    j += 1
                    if self._stopped and j < n:
                        push(
                            heap,
                            (time_, entry[1], entry[2] + j, OP_DELIVER_BATCH,
                             category, targets[j:], packets[j:]),
                        )
                        self._batch_extra -= 1
                        break
                continue
            ev = entry[5]
            if ev is not None:
                if ev.cancelled:
                    self._n_cancelled -= 1
                    continue
                ev.fired = True
            self._now = time_
            self.events_processed += 1
            category = entry[4]
            counts[category] = counts.get(category, 0) + 1
            fn()
        if until is not None and not self._stopped and until > self._now:
            self._now = until

    def stop(self) -> None:
        """Stop a ``run`` in progress after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1)).

        Counts per *record*: each heap entry, plus each record a queued
        batch entry represents.
        """
        return len(self._heap) - self._n_cancelled + self._batch_extra

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine t={self._now:.6f} pending={self.pending()} "
            f"processed={self.events_processed}>"
        )
