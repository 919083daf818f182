"""A DCF-style contention MAC.

This is the substitution for NS-2's 802.11 implementation (see
DESIGN.md §2): a stochastic model of the Distributed Coordination
Function that reproduces the *statistics* routing cares about —

* per-hop delay = DIFS + binary-exponential backoff + frame airtime
  (+ SIFS + ACK for unicast),
* load-dependent collision probability with retry-limited loss,
* broadcasts unacknowledged (single attempt, as in 802.11).

The collision probability per attempt follows the standard
``1 - exp(-load)`` thinning of concurrent in-flight transmissions in
the sender's neighborhood, which the :class:`~repro.net.network.Network`
tracks.

RNG draw-order contract
-----------------------
Every golden trace depends on the MAC consuming its ``rng`` stream in
exactly this order:

* ``unicast``: per attempt (up to ``max_retries + 1``), first one
  ``integers(0, cw + 1)`` backoff-slot draw (``cw`` doubling from
  ``cw_min`` and clamped at ``cw_max``), then one ``random()`` loss
  coin-flip.  The chain stops at the first coin-flip that clears
  ``p_fail`` — a successful exchange consumes exactly
  ``2 × attempts`` draws, an exhausted one ``2 × (max_retries + 1)``.
* ``broadcast``: one ``integers(0, cw_min + 1)`` draw, then one
  ``random()`` draw — always exactly two.

The interleaving (slot draw, then coin-flip, per attempt) means the
draws of one exchange can never be hoisted into a single vector call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.net.radio import RadioModel

#: Called the instant a unicast exhausts its retry limit, with the
#: metrics flow id of the dropped frame (``None`` for control traffic).
#: Fires synchronously with the ``drops_total`` increment.
DropListener = Callable[[int | None], None]

# bench/spans.py resolves _BATCH_MIN, unicast_batch and broadcast_batch by
# name; drop all three once its SITES no longer list them.
_BATCH_MIN = 8


@dataclass(frozen=True)
class MacOutcome:
    """Result of one link-layer exchange."""

    success: bool
    delay_s: float
    attempts: int


class Mac80211Dcf:
    """802.11-DCF-like contention model.

    Parameters
    ----------
    radio:
        Shared physical-layer parameters.
    rng:
        Random stream for backoff draws and loss coin-flips.

    The DCF constants are class attributes, read through ``self`` when
    used (``ack_bytes`` once, at construction), so a test can set one
    on an instance or monkeypatch the class.
    """

    #: Slot time, DIFS and SIFS of the 802.11 DSSS PHY (IEEE 802.11,
    #: §15: 20 µs slot, 10 µs SIFS, DIFS = SIFS + 2 slots).
    slot_s = 20e-6
    difs_s = 50e-6
    sifs_s = 10e-6
    #: Contention-window bounds in slots (802.11 DSSS: aCWmin 31,
    #: aCWmax 1023).
    cw_min = 31
    cw_max = 1023
    #: Unicast retry limit before the frame is dropped (802.11
    #: dot11ShortRetryLimit: 7).
    max_retries = 7
    #: ACK frame size in bytes (802.11 ACK: 14 B).
    ack_bytes = 14
    #: Residual per-attempt channel error probability (fading etc.);
    #: the paper's unit-disk model (§5) has none, so it is kept small.
    base_loss = 0.005
    #: Sensitivity of collision probability to concurrent in-flight
    #: transmissions: ``p = 1 - exp(-load / collision_scale)``.
    collision_scale = 4.0

    def __init__(self, radio: RadioModel, rng: np.random.Generator) -> None:
        self.radio = radio
        self._rng = rng
        #: ACK airtime is a run constant — hoisted out of ``unicast``,
        #: which used to recompute ``radio.tx_time(ack_bytes)`` on
        #: every call.
        self._ack_airtime = radio.tx_time(self.ack_bytes)
        #: ``_attempt_failure_prob`` memo keyed by load value.  Loads
        #: are small in-flight *counts* (a handful of distinct floats
        #: per run), so the dict stays tiny while sparing a transcendental
        #: per exchange.
        self._pfail_cache: dict[float, float] = {}
        # counters (diagnostics / energy accounting)
        self.attempts_total = 0
        self.collisions_total = 0
        self.drops_total = 0
        #: optional per-flow drop hook (see :data:`DropListener`);
        #: purely observational — the MAC never acts on it, so leaving
        #: it unset changes nothing.
        self.drop_listener: DropListener | None = None

    # ------------------------------------------------------------------
    def _attempt_failure_prob(self, local_load: float) -> float:
        """Probability one attempt fails given concurrent load (memoised)."""
        p = self._pfail_cache.get(local_load)
        if p is None:
            p_col = 1.0 - float(
                np.exp(-max(local_load, 0.0) / self.collision_scale)
            )
            p = min(p_col + self.base_loss, 0.95)
            self._pfail_cache[local_load] = p
        return p

    def _backoff(self, attempt: int) -> float:
        """Backoff delay for the given retry number (0-based)."""
        cw = min(self.cw_min * (2**attempt), self.cw_max)
        slots = int(self._rng.integers(0, cw + 1))
        return self.difs_s + slots * self.slot_s

    # ------------------------------------------------------------------
    def unicast(
        self,
        payload_bytes: int,
        distance_m: float,
        local_load: float,
        flow: int | None = None,
    ) -> MacOutcome:
        """Simulate an acknowledged unicast exchange.

        Returns the total delay including failed attempts; ``success``
        is ``False`` when the retry limit is exhausted.  ``flow``
        optionally tags the exchange with a metrics flow id; a
        retry-exhausted drop then reports it through
        :attr:`drop_listener` at the moment ``drops_total`` increments.
        """
        airtime = self.radio.tx_time(payload_bytes)
        ack_time = self._ack_airtime
        prop = self.radio.propagation_delay(distance_m)
        p_fail = self._attempt_failure_prob(local_load)
        delay = 0.0
        for attempt in range(self.max_retries + 1):
            self.attempts_total += 1
            delay += self._backoff(attempt) + airtime + prop
            if self._rng.random() >= p_fail:
                delay += self.sifs_s + ack_time + prop
                return MacOutcome(True, delay, attempt + 1)
            self.collisions_total += 1
        self.drops_total += 1
        if self.drop_listener is not None:
            self.drop_listener(flow)
        return MacOutcome(False, delay, self.max_retries + 1)

    def broadcast(self, payload_bytes: int, local_load: float) -> MacOutcome:
        """Simulate an unacknowledged local broadcast (one attempt).

        ``success`` reflects whether the frame escaped collision; a
        failed broadcast is silently lost (as in 802.11).
        """
        airtime = self.radio.tx_time(payload_bytes)
        self.attempts_total += 1
        delay = self._backoff(0) + airtime
        if self._rng.random() >= self._attempt_failure_prob(local_load):
            return MacOutcome(True, delay, 1)
        self.collisions_total += 1
        return MacOutcome(False, delay, 1)

    # ------------------------------------------------------------------
    def unicast_batch(
        self,
        payload_bytes: int,
        distances_m: Sequence[float],
        local_loads: Sequence[float],
    ) -> list[MacOutcome]:
        """A loop of :meth:`unicast` calls, one per receiver."""
        return [
            self.unicast(payload_bytes, d, load)
            for d, load in zip(distances_m, local_loads)
        ]

    def broadcast_batch(
        self, payload_bytes: int, local_loads: Sequence[float]
    ) -> list[MacOutcome]:
        """A loop of :meth:`broadcast` calls, one per sender."""
        return [self.broadcast(payload_bytes, load) for load in local_loads]
