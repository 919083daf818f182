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


class RadioModel:
    """Radio parameters shared by every node.

    The parameters are class attributes read through ``self`` when
    used; the airtime memo is per instance, so build a new model after
    changing one.
    """

    #: Unit-disk transmission range, metres: "a standard wireless
    #: transmission range of 250 m" (paper §5).
    range_m = 250.0
    #: Channel bit rate: the 802.11 basic rate, 2 Mb/s.
    bandwidth_bps = 2e6
    #: PHY preamble + PLCP header airtime (802.11 DSSS long preamble:
    #: 192 µs).
    phy_preamble_s = 192e-6
    #: Link-layer framing bytes added to every payload (802.11 data
    #: header + FCS ≈ 34 B).
    mac_overhead_bytes = 34
    #: Signal propagation speed, m/s (speed of light).
    prop_speed_mps = 3e8

    def __init__(self) -> None:
        #: Per-payload-size airtime cache.
        self._tx_cache: dict[int, float] = {}

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
