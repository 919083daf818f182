"""Points and axis-aligned rectangles.

These are the vocabulary types of the whole repository: node positions
are :class:`Point`, zones produced by ALERT's hierarchical partition are
:class:`Rect`.  Both are immutable so they can be embedded in packets
and used as dict keys without defensive copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Point(NamedTuple):
    """An immutable point in the plane (metres).

    A named tuple rather than a frozen dataclass: points are minted in
    every position interpolation and every hello-round row, and the
    tuple ``__new__`` builds one in a fraction of the cost of a frozen
    dataclass ``__init__`` (which routes each field through
    ``object.__setattr__``).  Field order is ``(x, y)``, so iteration,
    equality, and ``hash`` match the former dataclass exactly
    (``hash((x, y))``).
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def sq_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt in hot loops)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def midpoint(self, other: "Point") -> "Point":
        """Midpoint of the segment to ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def toward(self, other: "Point", distance: float) -> "Point":
        """Point at ``distance`` from self along the ray to ``other``.

        If ``other`` coincides with self, returns self unchanged.
        """
        d = self.distance_to(other)
        if d == 0.0:
            return self
        t = distance / d
        return Point(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)


@dataclass(frozen=True, slots=True)
class Rect:
    """An immutable axis-aligned rectangle ``[x0, x1) × [y0, y1)``.

    ALERT's *zone position* is "the upper left and bottom-right
    coordinates of a zone" (paper §2.4); ``Rect`` stores the same
    information as min/max corners.  Half-open semantics make the two
    halves of a partition disjoint and exhaustive.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"degenerate rect {self!r}")

    # -- basic properties ------------------------------------------------
    @property
    def width(self) -> float:
        """Extent along x."""
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Area in square metres."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Geometric center."""
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    # -- predicates ------------------------------------------------------
    def contains(self, p: Point) -> bool:
        """Whether ``p`` lies in the half-open rectangle.

        The far edges of the *entire field* are handled by
        :meth:`contains_closed` at the call sites that need it; for
        partitioning, half-open containment guarantees that exactly one
        half of every split contains any given point.
        """
        return self.x0 <= p.x < self.x1 and self.y0 <= p.y < self.y1

    def contains_closed(self, p: Point) -> bool:
        """Closed-rectangle containment (both far edges inclusive)."""
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
        )

    # -- constructions ---------------------------------------------------
    def split_horizontal(self) -> tuple["Rect", "Rect"]:
        """Split with a horizontal line into (bottom, top) halves.

        A *horizontal partition* in the paper's Fig. 1 sense: the
        dividing line is horizontal, producing two stacked zones.
        """
        ym = (self.y0 + self.y1) / 2.0
        return (
            Rect(self.x0, self.y0, self.x1, ym),
            Rect(self.x0, ym, self.x1, self.y1),
        )

    def split_vertical(self) -> tuple["Rect", "Rect"]:
        """Split with a vertical line into (left, right) halves."""
        xm = (self.x0 + self.x1) / 2.0
        return (
            Rect(self.x0, self.y0, xm, self.y1),
            Rect(xm, self.y0, self.x1, self.y1),
        )

    def clamp(self, p: Point) -> Point:
        """Project ``p`` onto the closed rectangle."""
        return Point(
            min(max(p.x, self.x0), self.x1),
            min(max(p.y, self.y0), self.y1),
        )

    def random_point(self, rng: np.random.Generator) -> Point:
        """Uniform random point inside the rectangle."""
        return Point(
            float(rng.uniform(self.x0, self.x1)),
            float(rng.uniform(self.y0, self.y1)),
        )

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from (x0, y0)."""
        return (
            Point(self.x0, self.y0),
            Point(self.x1, self.y0),
            Point(self.x1, self.y1),
            Point(self.x0, self.y1),
        )
