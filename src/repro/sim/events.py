"""Event objects used by the discrete-event engine.

Events are lightweight records placed on the engine's binary heap.  They
are ordered by ``(time, priority, sequence)``: earlier times fire first,
ties break on explicit priority and then on FIFO insertion order, which
keeps runs bit-for-bit deterministic for a given seed and schedule.

Delivery records
----------------
The dominant schedule entry — a one-hop frame delivery — does not need
a callback at all: the engine's pop loop can invoke ``node.deliver(
packet)`` directly from a plain heap tuple.  Such entries carry the
integer opcode :data:`OP_DELIVER_BATCH` in the slot a callable normally
occupies (``type(entry[3]) is int`` is the lane discriminator), plus
equal-length receiver and packet *lists* in two trailing slots,
eliminating the closure and argument-cell allocations a per-frame
callback would cost.  A one-hop broadcast's receivers all hear the
frame at the same ``(time, priority)``, so the whole block rides one
entry; a unicast is a one-record block.  The entry reserves one
sequence number per record (``seq .. seq + n - 1``), so its position in
the global order — and the order of anything scheduled after it — is
exactly what ``n`` individual entries would produce.  Records compare
by the same ``(time, priority, seq)`` prefix as callbacks, and ``seq``
is unique so comparisons never reach the opcode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

#: Opcode of a delivery record: ``entry[5]`` / ``entry[6]`` are
#: equal-length lists of receivers and packets dispatched as one block.
OP_DELIVER_BATCH: int = 1


@dataclass(order=True, slots=True)
class Event:
    """A single scheduled callback.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) at which the event fires.
    priority:
        Tie-break for events at identical times; lower fires first.
    seq:
        Monotonic insertion counter assigned by the engine.
    fn:
        Zero-argument callable invoked when the event fires.
    """

    time: float
    priority: int
    seq: int
    fn: Callable[[], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by ``Engine.schedule*`` allowing cancellation.

    Cancellation is lazy: the event stays on the heap but is skipped
    when popped, which is O(1) and avoids heap surgery.  The owning
    engine (when given) is told about each cancellation so it can keep
    a live dead-entry count — that makes ``Engine.pending()`` O(1) and
    lets the engine compact the heap when mostly dead.
    """

    __slots__ = ("_event", "_engine")

    def __init__(self, event: Event, engine=None) -> None:
        self._event = event
        self._engine = engine

    @property
    def time(self) -> float:
        """Absolute simulation time the event is scheduled for."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent).

        A no-op once the event has fired: nothing is left on the heap
        to skip, so counting it as dead would corrupt the engine's live
        pending count."""
        ev = self._event
        if ev.cancelled or ev.fired:
            return
        ev.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"
