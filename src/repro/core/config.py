"""ALERT configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AlertConfig:
    """Tunables of the ALERT protocol.

    Only the parameters the paper evaluates are settable; the ones it
    fixes are module constants next to their reader
    (:data:`repro.core.alert.SEGMENT_TTL` and friends,
    :data:`repro.core.notify_and_go.NOTIFY_T` and friends).

    Parameters
    ----------
    k:
        Destination k-anonymity target: the expected number of nodes
        in the destination zone ``Z_D`` (paper §2.3; Figs. 9–11).
    h_override:
        Explicit number of partitions ``H``; when ``None`` it is
        derived as ``H = log2(rho*G/k)`` from the network population.
    notify_and_go:
        Enable the §2.6 source-anonymity mechanism.
    intersection_defense:
        Enable the §3.3 two-step partial multicast in ``Z_D``.
    multicast_m:
        Number of first-step recipients ``m`` (out of the ~k zone
        members) when the intersection defense is on.
    enable_confirmation:
        Destination returns a confirmation routed back to the source
        zone ``Z_S``; the source resends unconfirmed packets.
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
    notify_and_go: bool = False
    intersection_defense: bool = False
    multicast_m: int = 3
    enable_confirmation: bool = False
    zone_flood: bool = True
    promiscuous_destination: bool = True

    def __post_init__(self) -> None:
        # ``not value > bound`` also rejects NaN.
        for name in ("k", "multicast_m"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if self.h_override is not None and not self.h_override >= 1:
            raise ValueError(f"h_override must be >= 1, got {self.h_override!r}")
