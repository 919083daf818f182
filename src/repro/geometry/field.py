"""The network field: the deployment area configured into every node.

Per the paper (§2.3), "the information of the bottom-right and upper
left boundary of the network area is configured into each node when it
joins the system"; :class:`Field` is that shared configuration plus
convenience constructors for node placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.primitives import Point, Rect


@dataclass(frozen=True)
class Field:
    """The rectangular deployment area.

    Parameters
    ----------
    width, height:
        Side lengths in metres.  The paper's default evaluation field
        is 1000 m × 1000 m.
    """

    width: float = 1000.0
    height: float = 1000.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"field sides must be positive: {self!r}")

    @property
    def bounds(self) -> Rect:
        """The field as a rectangle anchored at the origin."""
        return Rect(0.0, 0.0, self.width, self.height)

    @property
    def area(self) -> float:
        """Field area *G* in square metres (paper §2.4)."""
        return self.width * self.height

    def contains(self, p: Point) -> bool:
        """Whether ``p`` lies inside the (closed) field."""
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height

    def clamp(self, p: Point) -> Point:
        """Project ``p`` onto the field."""
        return self.bounds.clamp(p)

    def random_point(self, rng: np.random.Generator) -> Point:
        """Uniform random position inside the field."""
        return Point(
            float(rng.uniform(0.0, self.width)),
            float(rng.uniform(0.0, self.height)),
        )
