"""ALERT configuration knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.zones import Direction


@dataclass(frozen=True)
class AlertConfig:
    """Tunables of the ALERT protocol.

    Parameters
    ----------
    k:
        Destination k-anonymity target: the expected number of nodes
        in the destination zone ``Z_D`` (paper §2.3).
    h_override:
        Explicit number of partitions ``H``; when ``None`` it is
        derived as ``H = log2(rho*G/k)`` from the network population.
    first_direction:
        Direction of the canonical first split used to compute ``Z_D``
        (§2.4 assumes vertical first).
    segment_ttl:
        Hop budget of each GPSR segment between two random forwarders.
    max_rf_rounds:
        Safety bound on partition rounds per packet (≥ H; voids can
        force a forwarder to re-partition).
    notify_and_go:
        Enable the §2.6 source-anonymity mechanism.
    notify_t, notify_t0:
        The "notify and go" back-off window: everyone transmits at a
        random time in ``[t, t + t0]``.
    cover_size_bytes:
        Size of neighbors' cover packets ("only several bytes of
        random data").
    intersection_defense:
        Enable the §3.3 two-step partial multicast in ``Z_D``.
    multicast_m:
        Number of first-step recipients ``m`` (out of the ~k zone
        members) when the intersection defense is on.
    enable_confirmation:
        Destination returns a confirmation routed back to the source
        zone ``Z_S``; the source resends unconfirmed packets.
    confirmation_timeout:
        Source resend timer, seconds.
    max_resends:
        Resend attempts before giving up.
    zone_flood:
        Zone members rebroadcast once inside ``Z_D`` so zones larger
        than one radio hop are still covered.
    promiscuous_destination:
        The destination listens promiscuously and accepts any
        overheard frame carrying its pseudonym ``P_D`` (that is what
        the cleartext ``P_D`` field of Fig. 4 is for).  Radio frames
        are physically receivable by every node in range of the
        transmitter, so this costs nothing on the air; it is what lets
        ALERT out-deliver GPSR when the destination has drifted from
        its last known position (Fig. 16b).

    Every session runs the functional ciphers of :mod:`repro.crypto`;
    the crypto cost model charges their time.  Out-of-range values
    raise :class:`ValueError` at construction.
    """

    k: int = 6
    h_override: int | None = None
    first_direction: Direction = Direction.VERTICAL
    segment_ttl: int = 10
    max_rf_rounds: int = 12
    notify_and_go: bool = False
    notify_t: float = 0.002
    notify_t0: float = 0.02
    cover_size_bytes: int = 16
    intersection_defense: bool = False
    multicast_m: int = 3
    enable_confirmation: bool = False
    confirmation_timeout: float = 1.0
    max_resends: int = 2
    zone_flood: bool = True
    promiscuous_destination: bool = True

    def __post_init__(self) -> None:
        # ``not value > bound`` also rejects NaN.
        for name in (
            "k", "segment_ttl", "max_rf_rounds", "cover_size_bytes", "multicast_m"
        ):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.h_override is not None and not self.h_override >= 1:
            raise ValueError(f"h_override must be >= 1, got {self.h_override!r}")
        if not self.max_resends >= 0:
            raise ValueError(f"max_resends must be >= 0, got {self.max_resends!r}")
        if not (self.notify_t >= 0 and math.isfinite(self.notify_t)):
            raise ValueError(
                f"notify_t must be finite and >= 0, got {self.notify_t!r}"
            )
        for name in ("notify_t0", "confirmation_timeout"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
