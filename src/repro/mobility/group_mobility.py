"""Reference-point group mobility (RPGM; Hong et al., ref. [18]).

Each group has a logical *reference point* (group center) that itself
follows random-waypoint motion across the field.  Every member holds a
private random-waypoint motion inside a square of half-side
``group_range`` centred on the reference point; its absolute position
is the vector sum, clamped to the field.  This matches the paper's
configuration "movement range of each group to 150 m with 10 groups and
to 200 m with five groups" (§5.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.field import Field
from repro.geometry.primitives import Point
from repro.mobility.base import MobilityModel, Segment, interpolate_segments
from repro.mobility.random_waypoint import RandomWaypoint


class GroupReference:
    """The shared moving reference point of one group."""

    def __init__(
        self,
        field: Field,
        rng: np.random.Generator,
        speed_min: float,
        speed_max: float,
    ) -> None:
        self._motion = RandomWaypoint(
            field, rng, speed_min=speed_min, speed_max=speed_max
        )

    def position(self, t: float) -> Point:
        """Reference-point position at ``t``."""
        return self._motion.position(t)

    def current_segment(self, t: float) -> Segment:
        """The reference trajectory's segment covering ``t``."""
        return self._motion.current_segment(t)


class GroupMobility(MobilityModel):
    """One member of an RPGM group.

    Parameters
    ----------
    field:
        Global deployment area (absolute positions are clamped to it).
    reference:
        The group's shared :class:`GroupReference`.
    group_range:
        Half-side of the local movement square around the reference
        point ("movement range" in the paper), metres.
    rng:
        Private random stream for the member's local motion.
    """

    #: Speed of a member's motion relative to its reference point, m/s,
    #: read through ``self`` when the member is built.  The paper gives
    #: RPGM only group counts and ranges (§5.1); 1 m/s keeps members
    #: slower than their group's 2 m/s default.
    local_speed = 1.0

    def __init__(
        self,
        field: Field,
        reference: GroupReference,
        group_range: float,
        rng: np.random.Generator,
    ) -> None:
        if group_range <= 0:
            raise ValueError(f"group_range must be positive, got {group_range!r}")
        self.field = field
        self.reference = reference
        self.group_range = group_range
        local_field = Field(2 * group_range, 2 * group_range)
        speed = self.local_speed
        self._local = RandomWaypoint(
            local_field, rng, speed_min=speed, speed_max=speed
        )

    def position(self, t: float) -> Point:
        """Absolute position: reference + local offset, clamped to field."""
        center = self.reference.position(t)
        local = self._local.position(t)
        p = Point(
            center.x + local.x - self.group_range,
            center.y + local.y - self.group_range,
        )
        return self.field.clamp(p)

    def speed(self) -> float:
        return self._local.speed()

    @classmethod
    def fill_positions(
        cls, models: Sequence[MobilityModel], t: float, out: np.ndarray
    ) -> None:
        """Vectorised RPGM batch snapshot.

        Per member, the reference trajectory is extended before the
        local one (matching the scalar ``position`` call order, which
        matters because RPGM members share one RNG stream); both
        interpolations and the clamp then run as single NumPy ops.
        """
        ref_segs: list[Segment] = []
        loc_segs: list[Segment] = []
        for m in models:
            ref_segs.append(m.reference.current_segment(t))  # type: ignore[attr-defined]
            loc_segs.append(m._local.current_segment(t))  # type: ignore[attr-defined]
        centers = interpolate_segments(ref_segs, t)
        locals_ = interpolate_segments(loc_segs, t)
        gr = np.array([m.group_range for m in models])  # type: ignore[attr-defined]
        w = np.array([m.field.width for m in models])  # type: ignore[attr-defined]
        h = np.array([m.field.height for m in models])  # type: ignore[attr-defined]
        x = centers[:, 0] + locals_[:, 0] - gr
        y = centers[:, 1] + locals_[:, 1] - gr
        out[:, 0] = np.minimum(np.maximum(x, 0.0), w)
        out[:, 1] = np.minimum(np.maximum(y, 0.0), h)


def make_group_mobility(
    field: Field,
    n_nodes: int,
    n_groups: int,
    group_range: float,
    rng: np.random.Generator,
    speed_min: float = 2.0,
    speed_max: float = 2.0,
) -> list[GroupMobility]:
    """Build RPGM motions for ``n_nodes`` split evenly into ``n_groups``.

    Nodes are assigned to groups round-robin so group sizes differ by
    at most one.  Returns one :class:`GroupMobility` per node, in node
    order.
    """
    if n_groups <= 0 or n_groups > n_nodes:
        raise ValueError(f"need 1 <= n_groups <= n_nodes, got {n_groups}")
    references = [
        GroupReference(field, rng, speed_min, speed_max) for _ in range(n_groups)
    ]
    return [
        GroupMobility(field, references[i % n_groups], group_range, rng)
        for i in range(n_nodes)
    ]
