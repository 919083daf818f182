"""Hierarchical zone partitioning (paper §2.3-2.4).

Three pieces of machinery:

* :func:`required_partitions` — ``H = log2(rho * G / k)``: how many
  alternating splits shrink the field to a zone expected to hold ``k``
  nodes.
* :func:`destination_zone` — the paper's §2.4 recursion: starting from
  the whole field, split ``H`` times in alternating directions, always
  descending into the half containing the destination.  Every node
  computes the same ``Z_D`` from (field, H, D's position), so the
  source can embed it in the packet.
* :func:`separate_from_zone` — the per-forwarder step of §2.3: split
  the zone (alternating, starting from the packet's direction bit)
  until the forwarder and ``Z_D`` fall into different halves; the half
  containing ``Z_D`` is where the next temporary destination is drawn.

Cut-avoidance invariant
-----------------------
A split of an enclosing zone can slice ``Z_D`` in two when the zone's
extent equals ``Z_D``'s extent along the split dimension.  Because both
the zone and ``Z_D`` are axis-aligned binary cells of the same field,
at most one direction can cut ``Z_D`` at any step (both cutting would
force zone == Z_D, impossible while the forwarder is outside ``Z_D``),
so flipping the direction always yields a clean split.
:func:`separate_from_zone` applies that flip and still terminates,
since every iteration strictly halves the zone around the forwarder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.geometry.primitives import Point, Rect


class Direction(Enum):
    """Split direction.

    ``HORIZONTAL`` splits with a horizontal line (halves the height);
    ``VERTICAL`` splits with a vertical line (halves the width).
    """

    HORIZONTAL = 0
    VERTICAL = 1

    def flip(self) -> "Direction":
        """The other direction."""
        return Direction.VERTICAL if self is Direction.HORIZONTAL else Direction.HORIZONTAL


def required_partitions(n_nodes: int, k: int) -> int:
    """``H = log2(rho*G/k)`` rounded to the nearest integer, min 1.

    ``rho * G`` is the expected node population of the whole field,
    i.e., ``n_nodes``; the paper's example uses N=200, k≈6 → H=5.
    """
    if n_nodes <= 0 or k <= 0:
        raise ValueError(f"n_nodes and k must be positive, got {n_nodes}, {k}")
    if k >= n_nodes:
        return 1
    return max(int(round(math.log2(n_nodes / k))), 1)


def side_lengths(h: int, l_first: float, l_second: float) -> tuple[float, float]:
    """Side lengths of the ``h``-th partitioned zone (paper eqs. 1-2).

    ``l_first`` is the side halved by the *first* split (and every odd
    split thereafter); it shrinks by ``2^ceil(h/2)``.  ``l_second``
    shrinks by ``2^floor(h/2)``.  With the paper's convention (eq. 1-2)
    ``l_first = l_B`` and ``l_second = l_A``.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    return l_first / (2.0 ** math.ceil(h / 2)), l_second / (2.0 ** math.floor(h / 2))


def split(zone: Rect, direction: Direction) -> tuple[Rect, Rect]:
    """Split ``zone`` in two along ``direction``."""
    if direction is Direction.HORIZONTAL:
        return zone.split_horizontal()
    return zone.split_vertical()


def split_cuts(zone: Rect, direction: Direction, target: Rect) -> bool:
    """Whether splitting ``zone`` along ``direction`` slices ``target``."""
    if direction is Direction.VERTICAL:
        mid = (zone.x0 + zone.x1) / 2.0
        return target.x0 < mid < target.x1
    mid = (zone.y0 + zone.y1) / 2.0
    return target.y0 < mid < target.y1


def _half_containing_point(halves: tuple[Rect, Rect], p: Point) -> Rect:
    """The half whose half-open extent contains ``p``.

    Points exactly on the shared midline belong to the second half
    (half-open convention); points on the field's far edges are pulled
    into the nearest half.
    """
    a, b = halves
    if a.contains(p):
        return a
    return b


def _half_containing_rect(halves: tuple[Rect, Rect], r: Rect) -> Rect:
    """The half that entirely contains ``r`` (caller guarantees one does)."""
    a, b = halves
    if a.contains_rect(r):
        return a
    if b.contains_rect(r):
        return b
    raise ValueError(f"{r!r} is cut by the split of {a!r}/{b!r}")


def destination_zone(
    bounds: Rect,
    destination: Point,
    h: int,
    first: Direction = Direction.VERTICAL,
) -> Rect:
    """The ``h``-th partitioned zone containing ``destination`` (§2.4).

    Deterministic given (bounds, destination, h, first direction), so
    source and forwarders agree on ``Z_D`` without communication.

    Example (paper §2.4): field (0,0)-(4,2), H=3, destination
    (0.5, 0.8), vertical first → zone (0,0)-(1,1).
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if not bounds.contains_closed(destination):
        raise ValueError(f"{destination!r} outside field {bounds!r}")
    zone = bounds
    direction = first
    for _ in range(h):
        halves = split(zone, direction)
        zone = _half_containing_point(halves, _clip_into(zone, destination))
        direction = direction.flip()
    return zone


def _clip_into(zone: Rect, p: Point) -> Point:
    """Nudge a point on the far (open) edges just inside the zone.

    Keeps the half-open containment test meaningful for destinations
    sitting exactly on the field boundary.
    """
    x = p.x
    y = p.y
    if x >= zone.x1:
        x = math.nextafter(zone.x1, zone.x0)
    if y >= zone.y1:
        y = math.nextafter(zone.y1, zone.y0)
    return Point(x, y)


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of a forwarder's partition step.

    Attributes
    ----------
    next_zone:
        The half containing ``Z_D`` — the "other zone" where the next
        temporary destination is drawn.
    partitions:
        Number of splits performed this step (σ, the paper's
        *closeness* between the forwarder and the destination zone).
    next_direction:
        Direction the *next* forwarder should start with (the flipped
        bit of the packet format, §2.5 item 4).
    """

    next_zone: Rect
    partitions: int
    next_direction: Direction


def separate_from_zone(
    zone: Rect,
    self_position: Point,
    zd: Rect,
    first: Direction,
    max_iterations: int = 64,
) -> SeparationResult:
    """Split ``zone`` until ``self_position`` and ``zd`` are separated.

    Implements §2.3's per-forwarder loop with the cut-avoidance flip
    (see module docstring).  Raises if the caller is already inside
    ``Z_D`` (the caller should broadcast instead of partitioning).
    """
    # A forwarder on Z_D's closed boundary counts as inside: splitting
    # can bounce such a point between the zones adjacent to Z_D forever,
    # and the caller's correct move is to broadcast, not partition.
    if zd.contains_closed(self_position):
        raise ValueError("forwarder is inside the destination zone")
    if not zone.contains(self_position) and not zone.contains_closed(self_position):
        raise ValueError(f"forwarder {self_position!r} outside zone {zone!r}")
    if not zone.contains_rect(zd):
        raise ValueError(f"Z_D {zd!r} not inside zone {zone!r}")

    self_pos = _clip_into(zone, self_position)
    direction = first
    partitions = 0
    for _ in range(max_iterations):
        if split_cuts(zone, direction, zd):
            direction = direction.flip()
        halves = split(zone, direction)
        half_self = _half_containing_point(halves, self_pos)
        half_zd = _half_containing_rect(halves, zd)
        partitions += 1
        direction = direction.flip()
        if half_self is not half_zd:
            return SeparationResult(
                next_zone=half_zd,
                partitions=partitions,
                next_direction=direction,
            )
        zone = half_self
    raise RuntimeError(
        "separation did not converge — forwarder effectively inside Z_D"
    )
