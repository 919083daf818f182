"""Physical-layer model: unit-disk propagation and airtime.

The paper's testbed uses "802.11 as the MAC protocol with a standard
wireless transmission range of 250 m" and 512-byte packets; the basic
802.11 rate (2 Mb/s) reproduces the millisecond-scale per-hop latencies
of Figs. 14a/14b.

A run sees only a handful of distinct frame sizes (hello beacons, data
payload, ACK, a few control frames), so :meth:`RadioModel.tx_time`
memoises its result per payload size.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RadioModel:
    """Radio parameters shared by every node.

    Parameters
    ----------
    range_m:
        Unit-disk transmission range in metres.
    bandwidth_bps:
        Channel bit rate (802.11 basic rate: 2 Mb/s).
    phy_preamble_s:
        PHY preamble + PLCP header airtime (802.11 long preamble:
        192 µs).
    mac_overhead_bytes:
        Link-layer framing bytes added to every payload (802.11 data
        header + FCS ≈ 34 B).
    prop_speed_mps:
        Signal propagation speed.
    """

    range_m: float = 250.0
    bandwidth_bps: float = 2e6
    phy_preamble_s: float = 192e-6
    mac_overhead_bytes: int = 34
    prop_speed_mps: float = 3e8
    #: Per-payload-size airtime cache.  Excluded from equality/hash so
    #: two models with identical parameters still compare equal; the
    #: dict is mutated in place, which a frozen dataclass permits.
    _tx_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.range_m <= 0 or self.bandwidth_bps <= 0:
            raise ValueError(f"invalid radio parameters: {self!r}")

    def in_range(self, distance_m: float) -> bool:
        """Unit-disk connectivity predicate."""
        return distance_m <= self.range_m

    def tx_time(self, payload_bytes: int) -> float:
        """Airtime of one frame carrying ``payload_bytes`` (memoised)."""
        t = self._tx_cache.get(payload_bytes)
        if t is None:
            bits = (payload_bytes + self.mac_overhead_bytes) * 8
            t = self.phy_preamble_s + bits / self.bandwidth_bps
            self._tx_cache[payload_bytes] = t
        return t

    def propagation_delay(self, distance_m: float) -> float:
        """One-way propagation delay over ``distance_m``."""
        return distance_m / self.prop_speed_mps
