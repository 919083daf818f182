"""A trivially static mobility model (speed 0)."""

from __future__ import annotations

import math

from repro.geometry.primitives import Point
from repro.mobility.base import MobilityModel, Segment


class StaticPosition(MobilityModel):
    """A node that never moves.

    Used for v = 0 configurations (paper Fig. 13a includes speed 0)
    and for location-server placement.
    """

    def __init__(self, origin: Point) -> None:
        self._origin = origin

    def position(self, t: float) -> Point:
        """The fixed origin, for any ``t``."""
        return self._origin

    def speed(self) -> float:
        return 0.0

    def current_segment(self, t: float) -> Segment:
        """An eternal degenerate segment: cacheable for any ``t``.

        Lets :class:`~repro.mobility.base.SnapshotInterpolator` cache a
        static node once and never consult it again (interpolating a
        zero-length, infinite-duration leg yields the origin exactly).
        """
        return Segment(0.0, math.inf, self._origin, self._origin)
