"""Node mobility models.

The paper evaluates under the random way point model (ref. [17]) and
the reference-point group mobility model (ref. [18]); both are
implemented here on top of a lazily-extended piecewise-linear
trajectory, so ``position(t)`` is exact (no time-stepping error) and
cheap for monotone time queries.
"""

from repro.mobility.base import MobilityModel, Trajectory, interpolate_segments
from repro.mobility.group_mobility import GroupMobility, make_group_mobility
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.static import StaticPosition

__all__ = [
    "MobilityModel",
    "Trajectory",
    "RandomWaypoint",
    "GroupMobility",
    "make_group_mobility",
    "StaticPosition",
    "interpolate_segments",
]
