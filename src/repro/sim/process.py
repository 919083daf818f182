"""Higher-level scheduling helpers built on the engine.

``Timer`` is a restartable one-shot; ``PeriodicTask`` repeats a callback
at a fixed interval (with optional per-tick jitter), which is how hello
beacons, CBR traffic sources, and ALARM's periodic dissemination are
driven.  Both book their firings as ordinary cancellable heap events
through :meth:`~repro.sim.engine.Engine.schedule_in`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.sim.engine import Engine
from repro.sim.events import EventHandle


class Timer:
    """A restartable one-shot timer.

    Used for retransmission timeouts (the paper's NAK/confirmation
    resend logic) where an acknowledgement cancels the pending timer.
    """

    def __init__(self, engine: Engine, fn: Callable[[], Any]) -> None:
        self._engine = engine
        self._fn = fn
        self._handle: EventHandle | None = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently pending."""
        return self._handle is not None and not self._handle.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        self.cancel()
        self._handle = self._engine.schedule_in(
            delay, self._fire, category="timer"
        )

    def cancel(self) -> None:
        """Disarm the timer if pending (idempotent)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._fn()


class PeriodicTask:
    """Repeat ``fn`` every ``interval`` seconds until stopped.

    Parameters
    ----------
    engine:
        Owning engine.
    interval:
        Nominal period in seconds.
    fn:
        Zero-argument callback invoked each tick.
    jitter:
        If > 0, each tick is displaced by Uniform(-jitter, +jitter)
        seconds (clipped to stay positive) drawn from ``rng``.  Beacon
        protocols jitter to avoid synchronized collisions.
    rng:
        Random stream used for jitter; required when ``jitter > 0``.
    start_offset:
        Delay before the first tick (default: one full interval).
    category:
        Event-counter category the ticks are booked under (see
        ``Engine.event_counts``); defaults to ``"timer"``.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        fn: Callable[[], Any],
        jitter: float = 0.0,
        rng: np.random.Generator | None = None,
        start_offset: float | None = None,
        category: str = "timer",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter > 0 requires an rng")
        self._engine = engine
        self._interval = interval
        self._fn = fn
        self._jitter = jitter
        self._rng = rng
        self._category = category
        self._handle: EventHandle | None = None
        self._stopped = False
        self.ticks = 0
        first = interval if start_offset is None else start_offset
        self._handle = engine.schedule_in(
            self._displace(first), self._tick, category=category
        )

    @property
    def interval(self) -> float:
        """The current nominal period in seconds."""
        return self._interval

    def set_interval(self, interval: float) -> None:
        """Change the period for *future* ticks.

        The already-scheduled next tick keeps its time; the tick after
        it is booked at the new interval.  Adaptive traffic sources use
        this to widen/narrow their send spacing on loss feedback
        without perturbing the pending schedule entry (rescheduling
        would consume an extra engine sequence number and shift
        same-time tie-breaking).
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._interval = interval

    def _displace(self, base: float) -> float:
        if self._jitter <= 0:
            return base
        assert self._rng is not None
        delta = float(self._rng.uniform(-self._jitter, self._jitter))
        return max(base + delta, 1e-9)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._fn()
        if not self._stopped:
            self._handle = self._engine.schedule_in(
                self._displace(self._interval), self._tick,
                category=self._category,
            )

    def stop(self) -> None:
        """Stop future ticks (the current tick, if firing, completes)."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
