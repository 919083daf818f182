"""The random way point mobility model (Camp et al., ref. [17]).

A node starts at a uniform point in the field, then repeatedly: picks a
uniform destination in the field, travels to it in a straight line at a
speed drawn from ``[speed_min, speed_max]``, then pauses for
:attr:`RandomWaypoint.pause_time` seconds.  The paper's evaluation uses
a fixed speed (2-8 m/s) with no pause, which corresponds to
``speed_min == speed_max`` and ``pause_time == 0``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.field import Field
from repro.geometry.primitives import Point
from repro.mobility.base import MobilityModel, Segment, Trajectory


class RandomWaypoint(MobilityModel):
    """Random-waypoint motion inside ``field``.

    Parameters
    ----------
    field:
        Deployment area the origin and waypoints are drawn from.
    speed_min, speed_max:
        Speed range in m/s; each leg draws Uniform(min, max).
    rng:
        Private random stream (one per node for independence).
    """

    #: Pause at each waypoint, seconds, read through ``self`` as each
    #: leg is drawn.  The paper's runs move without pausing (§5.1).
    pause_time = 0.0

    def __init__(
        self,
        field: Field,
        rng: np.random.Generator,
        speed_min: float = 2.0,
        speed_max: float = 2.0,
    ) -> None:
        if speed_min <= 0 or speed_max < speed_min:
            raise ValueError(
                f"need 0 < speed_min <= speed_max, got ({speed_min}, {speed_max})"
            )
        self.field = field
        self.speed_min = speed_min
        self.speed_max = speed_max
        self._rng = rng
        origin = field.random_point(rng)
        self._traj = Trajectory(origin)
        self._cursor = origin

    def speed(self) -> float:
        """Midpoint of the speed range (diagnostic)."""
        return (self.speed_min + self.speed_max) / 2.0

    def _extend(self) -> None:
        """Append one travel leg (plus pause, if configured)."""
        t0 = self._traj.horizon
        start = self._cursor
        dest = self.field.random_point(self._rng)
        speed = float(self._rng.uniform(self.speed_min, self.speed_max))
        dist = start.distance_to(dest)
        # Degenerate draw (dest == start): treat as a pause-length dwell
        # so progress is still made.
        travel = dist / speed if dist > 0 else max(self.pause_time, 1e-3)
        self._traj.append(Segment(t0, t0 + travel, start, dest))
        self._cursor = dest
        if self.pause_time > 0:
            t1 = self._traj.horizon
            self._traj.append(Segment(t1, t1 + self.pause_time, dest, dest))

    def position(self, t: float) -> Point:
        """Exact position at time ``t``."""
        traj = self._traj
        if traj.horizon < t:
            traj.ensure(t, self._extend)
        return traj.at(t)

    def current_segment(self, t: float) -> Segment:
        """The (materialised) trajectory segment covering ``t``."""
        self._traj.ensure(t, self._extend)
        return self._traj.segment_at(t)
