"""Per-flow delivery feedback: the closed-loop channel under adaptive traffic.

The paper evaluates ALERT under open-loop CBR (§5.2); the hierarchical
and geographic-routing literature it builds on (HPAR, Ramasamy &
Madhow) additionally evaluates *closed-loop* sources that react to
losses.  :class:`FlowFeedback` is the plumbing that makes such sources
expressible: the MAC reports retry-exhausted frame drops, and the
routing layer reports end-to-end deliveries, terminal drops, per-hop
link failures, and confirmation timeouts — each tagged with the metrics
flow id the packet was originated under — and the channel routes every
event to the traffic source that registered that flow.

Design constraints (enforced by the golden-trace suite):

* purely observational — dispatching events consumes no randomness and
  schedules nothing, so wiring the channel into a run cannot perturb
  the seeded trace; with no listeners it is a handful of counter bumps;
* synchronous — events fire inside the engine event that produced them,
  so listeners observe them in exact event-time order (the MAC drop
  hook fires the instant ``drops_total`` increments, i.e. when the MAC
  model resolves the exchange, not after the wasted airtime elapses);
* terminal-once — a flow's first delivery or terminal drop releases its
  registration, so duplicate zone-broadcast receptions cannot feed a
  source twice.

Registration-ordering contract
------------------------------
Because reporting is synchronous, several producers can fire *inside*
the ``send_data`` call that originates the flow: the MAC drop hook
(``runner`` wires ``mac.drop_listener`` straight to :meth:`mac_drop`)
and the routing layer's link-failure and terminal-drop reports all sit
on the initiation path whenever crypto processing is charged at zero
delay (zero-cost crypto models).  Only the confirmation
timeout always arrives from a separately scheduled timer.  A source
must therefore be registered *before* the packet is dispatched —
``RoutingProtocol.send_data`` exposes the ``on_flow`` hook for exactly
this — because registering on the return value misses any synchronous
signal and, after a synchronous *terminal* event, would re-register a
flow whose release already happened, pinning the dead entry forever.
"""

from __future__ import annotations

from typing import Protocol

#: Loss kinds reported through :meth:`FlowFeedback.loss`.
LOSS_MAC_DROP = "mac-drop"
LOSS_LINK_FAILURE = "link-failure"
LOSS_DROP = "drop"
LOSS_TIMEOUT = "timeout"

#: Kinds that terminate a flow's registration.
_TERMINAL_KINDS = frozenset({LOSS_DROP})


class FlowListener(Protocol):
    """What a closed-loop traffic source implements to receive feedback."""

    def on_flow_delivery(self, flow_id: int, now: float) -> None:
        """The flow's packet reached its true destination."""

    def on_flow_loss(self, flow_id: int, kind: str, now: float) -> None:
        """A loss signal for the flow (see the ``LOSS_*`` kinds)."""


class FlowFeedback:
    """Routes per-flow delivery/loss events from the stack to sources.

    Sources :meth:`register` each flow id they originate; the network
    and routing layers report events against flow ids; the channel
    dispatches each event to the owning listener (if any) and tallies
    aggregate counters either way.
    """

    def __init__(self) -> None:
        self._listeners: dict[int, FlowListener] = {}
        #: aggregate event counters (diagnostics / RunResult accessors)
        self.deliveries = 0
        self.drops = 0
        self.mac_drops = 0
        self.link_failures = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, flow_id: int, listener: FlowListener) -> None:
        """Subscribe ``listener`` to events for ``flow_id``."""
        self._listeners[flow_id] = listener

    def release(self, flow_id: int) -> None:
        """Drop the registration for ``flow_id`` (idempotent)."""
        self._listeners.pop(flow_id, None)

    def registered(self, flow_id: int) -> bool:
        """Whether a listener is currently subscribed to ``flow_id``."""
        return flow_id in self._listeners

    # ------------------------------------------------------------------
    # reporting (called by the stack)
    # ------------------------------------------------------------------
    def delivery(self, flow_id: int | None, now: float) -> None:
        """Routing layer: first delivery at the true destination.

        Terminal: the flow's registration is released, so later
        duplicate receptions (zone rebroadcasts, overhearing) are
        silently ignored.
        """
        if flow_id is None:
            return
        self.deliveries += 1
        listener = self._listeners.pop(flow_id, None)
        if listener is not None:
            listener.on_flow_delivery(flow_id, now)

    def drop(self, flow_id: int | None, reason: str, now: float) -> None:
        """Routing layer: terminal drop (TTL, void, retries exhausted)."""
        if flow_id is None:
            return
        self.drops += 1
        listener = self._listeners.pop(flow_id, None)
        if listener is not None:
            listener.on_flow_loss(flow_id, LOSS_DROP, now)

    def mac_drop(self, flow_id: int | None, now: float) -> None:
        """MAC: a unicast frame exhausted its retry limit (non-terminal:
        the routing layer may still salvage the packet via another
        neighbor, so the registration stays live)."""
        if flow_id is None:
            return
        self.mac_drops += 1
        listener = self._listeners.get(flow_id)
        if listener is not None:
            listener.on_flow_loss(flow_id, LOSS_MAC_DROP, now)

    def link_failure(self, flow_id: int | None, reason: str, now: float) -> None:
        """Routing layer: one hop failed (blacklist-and-retry follows)."""
        if flow_id is None:
            return
        self.link_failures += 1
        listener = self._listeners.get(flow_id)
        if listener is not None:
            listener.on_flow_loss(flow_id, LOSS_LINK_FAILURE, now)

    def timeout(self, flow_id: int | None, now: float) -> None:
        """Routing layer: an end-to-end confirmation timer expired."""
        if flow_id is None:
            return
        self.timeouts += 1
        listener = self._listeners.get(flow_id)
        if listener is not None:
            listener.on_flow_loss(flow_id, LOSS_TIMEOUT, now)

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Aggregate event counts by kind (a fresh dict)."""
        return {
            "deliveries": self.deliveries,
            "drops": self.drops,
            "mac_drops": self.mac_drops,
            "link_failures": self.link_failures,
            "timeouts": self.timeouts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FlowFeedback live={len(self._listeners)} "
            f"deliveries={self.deliveries} drops={self.drops} "
            f"mac_drops={self.mac_drops}>"
        )
