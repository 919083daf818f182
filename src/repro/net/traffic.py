"""Traffic sources: open-loop CBR (paper §5.2) and closed-loop AIMD.

A :class:`CbrSource` periodically asks its routing protocol to deliver
one data packet from S to D (512 B every 2 s in the paper).  The
protocol interface is any callable ``send(src_id, dst_id, size_bytes)``;
the harness wires this to
:meth:`repro.routing.base.RoutingProtocol.send_data`, whose return
value is the metrics flow id.

:class:`AdaptiveSource` closes the loop: it registers every flow it
originates with a :class:`~repro.net.feedback.FlowFeedback` channel —
through ``send_data``'s ``on_flow`` hook, i.e. *before* the packet is
dispatched, since loss signals can fire synchronously inside the send
call — and
adjusts its send interval AIMD-style — multiplicative backoff on loss
signals (MAC drops, terminal drops, confirmation timeouts), additive
recovery on acknowledged delivery — clamped to
``[min_interval, max_interval]``.  Recovery never undershoots the
configured base interval, so a loss-free flow sends at exactly the CBR
cadence: with feedback disabled (or no losses) an ``AdaptiveSource`` is
bit-identical to an equivalent ``CbrSource`` — same engine events, same
send times, same metrics.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.net.feedback import (
    LOSS_DROP,
    LOSS_LINK_FAILURE,
    LOSS_MAC_DROP,
    LOSS_TIMEOUT,
    FlowFeedback,
)
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTask

#: Protocol send callable.  Positionally ``(src, dst, size_bytes)``;
#: closed-loop sources additionally pass an ``on_flow`` keyword (see
#: :meth:`repro.routing.base.RoutingProtocol.send_data`) so they can
#: register for feedback before the packet enters the network.
SendFn = Callable[..., "int | None"]

#: Loss kinds an :class:`AdaptiveSource` backs off on by default.
#: Link failures are excluded: a blacklisted neighbor usually reflects
#: mobility (stale table entry), not congestion, and the routing layer
#: already retries them locally; the terminal outcome — delivery, drop,
#: or MAC retry exhaustion — is what the source reacts to.
DEFAULT_BACKOFF_KINDS = frozenset({LOSS_MAC_DROP, LOSS_DROP, LOSS_TIMEOUT})


class CbrSource:
    """One CBR flow: ``src`` sends a packet to ``dst`` every interval.

    Parameters
    ----------
    engine:
        The event engine.
    send:
        Protocol send function ``(src, dst, size_bytes)``.
    src, dst:
        Endpoint node ids.
    interval:
        Inter-packet gap in seconds (paper default: 2 s).
    size_bytes:
        Packet size (paper default: 512 B).
    max_packets:
        Stop after this many packets (``None`` = until stopped).  The
        periodic task stops on the tick that sends the final packet, so
        no dead tick lingers on the event heap afterwards.
    start_offset:
        Time of the first packet.
    """

    def __init__(
        self,
        engine: Engine,
        send: SendFn,
        src: int,
        dst: int,
        interval: float = 2.0,
        size_bytes: int = 512,
        max_packets: int | None = None,
        start_offset: float = 1.0,
    ) -> None:
        if src == dst:
            raise ValueError("CBR flow endpoints must differ")
        if interval <= 0 or size_bytes <= 0:
            raise ValueError("interval and size_bytes must be positive")
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.max_packets = max_packets
        self.sent = 0
        self._send = send
        self._task = PeriodicTask(
            engine, interval, self._tick, start_offset=start_offset
        )

    def _tick(self) -> None:
        if self.max_packets is not None and self.sent >= self.max_packets:
            self._task.stop()
            return
        self.sent += 1
        self._emit()
        if self.max_packets is not None and self.sent >= self.max_packets:
            # Final packet just went out: stop *now* rather than letting
            # one more tick fire only to discover the budget is spent —
            # a finished source must leave nothing on the event heap.
            self._task.stop()

    def _emit(self) -> None:
        """Hand one packet to the protocol (subclass hook)."""
        self._send(self.src, self.dst, self.size_bytes)

    def stop(self) -> None:
        """Stop generating packets."""
        self._task.stop()


def check_aimd_params(
    min_interval: float, max_interval: float,
    backoff_factor: float, recovery_step: float,
) -> None:
    """Reject non-finite or out-of-range AIMD parameters (``ValueError``);
    shared by :class:`AdaptiveSource` and ``TrafficConfig``."""
    for name, value in (
        ("min_interval", min_interval), ("max_interval", max_interval),
        ("backoff_factor", backoff_factor), ("recovery_step", recovery_step),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0 < min_interval <= max_interval:
        raise ValueError(
            "need 0 < min_interval <= max_interval, got "
            f"{min_interval!r}..{max_interval!r}"
        )
    if not backoff_factor > 1.0:
        raise ValueError(f"backoff_factor must exceed 1, got {backoff_factor!r}")
    if not recovery_step >= 0:
        raise ValueError(f"recovery_step must be >= 0, got {recovery_step!r}")


class AdaptiveSource(CbrSource):
    """A loss-reactive CBR source with AIMD interval control.

    On every loss signal in ``backoff_kinds`` the send interval is
    multiplied by ``backoff_factor`` (clamped to ``max_interval``); on
    every acknowledged end-to-end delivery it is reduced by
    ``recovery_step`` (never below the configured base ``interval``,
    itself validated to lie within ``[min_interval, max_interval]``).
    Interval changes apply from the *next* scheduling decision — the
    already-booked tick keeps its time — so the engine event structure
    matches ``CbrSource`` tick for tick and the whole trajectory is a
    deterministic function of the engine seed.

    With ``feedback=None`` the source never registers a flow, receives
    no events, and degrades exactly to :class:`CbrSource`.

    Parameters
    ----------
    feedback:
        The delivery-feedback channel, or ``None`` for open loop.
    min_interval, max_interval:
        Hard clamp for the send interval, seconds.
    backoff_factor:
        Multiplicative interval growth per loss signal (> 1).
    recovery_step:
        Additive interval reduction per delivery, seconds (>= 0).
    backoff_kinds:
        Which :mod:`repro.net.feedback` loss kinds trigger backoff.
    """

    def __init__(
        self,
        engine: Engine,
        send: SendFn,
        src: int,
        dst: int,
        interval: float = 2.0,
        size_bytes: int = 512,
        max_packets: int | None = None,
        start_offset: float = 1.0,
        feedback: FlowFeedback | None = None,
        min_interval: float = 0.05,
        max_interval: float = 8.0,
        backoff_factor: float = 2.0,
        recovery_step: float = 0.25,
        backoff_kinds: frozenset[str] = DEFAULT_BACKOFF_KINDS,
    ) -> None:
        check_aimd_params(
            min_interval, max_interval, backoff_factor, recovery_step
        )
        if not min_interval <= interval <= max_interval:
            raise ValueError(
                f"need min_interval <= interval <= max_interval, got "
                f"min={min_interval!r} interval={interval!r} "
                f"max={max_interval!r}"
            )
        unknown = backoff_kinds - {
            LOSS_MAC_DROP, LOSS_LINK_FAILURE, LOSS_DROP, LOSS_TIMEOUT
        }
        if unknown:
            raise ValueError(f"unknown loss kinds {sorted(unknown)}")
        self.base_interval = interval
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.backoff_factor = backoff_factor
        self.recovery_step = recovery_step
        self.backoff_kinds = frozenset(backoff_kinds)
        self.feedback = feedback
        #: feedback tallies (RunResult aggregates these across sources)
        self.backoff_events = 0
        self.recovery_events = 0
        self.deliveries = 0
        self.losses = 0
        super().__init__(
            engine,
            send,
            src,
            dst,
            interval=interval,
            size_bytes=size_bytes,
            max_packets=max_packets,
            start_offset=start_offset,
        )

    # ------------------------------------------------------------------
    @property
    def interval(self) -> float:
        """The current send interval in seconds."""
        return self._task.interval

    def _emit(self) -> None:
        # Registration must happen through the protocol's ``on_flow``
        # hook, before the packet is dispatched: feedback reporting is
        # synchronous, so a first-hop MAC drop (or an immediate
        # no-route drop) fires *inside* the send call.  Registering on
        # the returned flow id — the obvious shape — silently misses
        # every such signal and, worse, leaves the flow registered
        # forever because its terminal event already happened.
        if self.feedback is None:
            self._send(self.src, self.dst, self.size_bytes)
        else:
            self._send(
                self.src, self.dst, self.size_bytes,
                on_flow=self._register_flow,
            )

    def _register_flow(self, flow_id: int | None) -> None:
        """Register a just-created flow for delivery feedback."""
        if flow_id is not None:
            self.feedback.register(flow_id, self)

    # -- FlowListener ---------------------------------------------------
    def on_flow_delivery(self, flow_id: int, now: float) -> None:
        """Additive recovery: narrow the interval back toward base."""
        self.deliveries += 1
        current = self._task.interval
        if current > self.base_interval:
            self.recovery_events += 1
            self._task.set_interval(
                max(current - self.recovery_step, self.base_interval)
            )

    def on_flow_loss(self, flow_id: int, kind: str, now: float) -> None:
        """Multiplicative backoff on congestion/loss signals."""
        self.losses += 1
        if kind not in self.backoff_kinds:
            return
        current = self._task.interval
        if current < self.max_interval:
            # ``backoff_events`` counts *interval changes*, mirroring
            # ``recovery_events`` on the delivery side: a loss that
            # arrives with the interval already pinned at
            # ``max_interval`` changes nothing and is visible in
            # ``losses`` alone.
            self.backoff_events += 1
            self._task.set_interval(
                min(current * self.backoff_factor, self.max_interval)
            )
