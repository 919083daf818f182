"""Mobility model interface and the shared trajectory machinery."""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.primitives import Point


class MobilityModel(ABC):
    """A node's position as a function of simulated time.

    Implementations must be deterministic given their construction
    arguments (including any RNG state captured at construction) and
    must support arbitrary, including non-monotone, time queries.
    """

    @abstractmethod
    def position(self, t: float) -> Point:
        """Position of the node at time ``t`` (seconds, ``t >= 0``)."""

    def speed(self) -> float:
        """Nominal speed in m/s (0 for static models); diagnostic only."""
        return 0.0

    @classmethod
    def fill_positions(
        cls, models: Sequence["MobilityModel"], t: float, out: np.ndarray
    ) -> None:
        """Write the positions of ``models`` at ``t`` into ``out``.

        The batch hook :class:`SnapshotInterpolator` uses for
        populations it cannot cache segment by segment.  This default
        is the scalar :meth:`position` loop, correct for any mix of
        models; a class may override it with a vectorised pass over a
        population of its own instances.  Implementations must visit
        ``models`` in the given order so that shared-RNG trajectory
        extensions draw in the same sequence as per-node scalar queries.
        """
        for k, m in enumerate(models):
            p = m.position(t)
            out[k, 0] = p.x
            out[k, 1] = p.y


def interpolate_segments(segments: Sequence[Segment], t: float) -> np.ndarray:
    """Vectorised :meth:`Segment.at` over many segments at one time.

    Returns an ``(N, 2)`` array; row ``k`` is bit-identical to
    ``segments[k].at(t)`` (same operation order, IEEE-754 arithmetic).
    """
    n = len(segments)
    t0 = np.empty(n, dtype=np.float64)
    t1 = np.empty(n, dtype=np.float64)
    sx = np.empty(n, dtype=np.float64)
    sy = np.empty(n, dtype=np.float64)
    ex = np.empty(n, dtype=np.float64)
    ey = np.empty(n, dtype=np.float64)
    for k, seg in enumerate(segments):
        t0[k] = seg.t0
        t1[k] = seg.t1
        s = seg.start
        e = seg.end
        sx[k] = s.x
        sy[k] = s.y
        ex[k] = e.x
        ey[k] = e.y
    dt = t1 - t0
    moving = dt > 0.0
    u = (t - t0) / np.where(moving, dt, 1.0)
    np.clip(u, 0.0, 1.0, out=u)
    u[~moving] = 0.0  # pauses / degenerate legs sit at their start
    out = np.empty((n, 2), dtype=np.float64)
    out[:, 0] = sx + (ex - sx) * u
    out[:, 1] = sy + (ey - sy) * u
    return out


class SnapshotInterpolator:
    """Batch interpolation over a fixed model population.

    The one path by which a :class:`~repro.net.network.Network` reads
    every node's position at once (snapshots, hello rounds, location
    write rounds).  Consecutive snapshot queries are near-monotone and
    trajectory legs are long (a 2 m/s leg across a 1 km field lasts
    minutes), so the segment that answered the previous query almost
    always answers the next one.  This class keeps every model's
    current segment endpoints in six parallel arrays and only consults
    a model when its cached segment no longer covers ``t``; the
    interpolation itself then runs as a handful of whole-array NumPy
    ops.

    Results are bit-identical to ``[m.position(t) for m in models]``
    (same IEEE-754 operation order).  Stale rows are refreshed in input
    order, preserving the RNG draw sequence of the scalar path for
    models that share random streams.

    A population containing a model whose class does not expose
    ``current_segment`` (e.g. composite RPGM members) is not cached:
    every call goes to one :meth:`MobilityModel.fill_positions`, the
    class's own when the population is a single class (RPGM's
    vectorised pass), else the scalar default.
    """

    def __init__(self, models: Sequence[MobilityModel]) -> None:
        self._models = list(models)
        n = len(self._models)
        classes = {type(m) for m in self._models}
        #: the uncached population's batch hook; None when cached
        self._fill = None
        if any(getattr(c, "current_segment", None) is None for c in classes):
            cls = classes.pop() if len(classes) == 1 else MobilityModel
            self._fill = cls.fill_positions
            return
        # Initially invalid everywhere: t0 > t for any finite t.
        self._t0 = np.full(n, np.inf)
        self._t1 = np.full(n, -np.inf)
        self._sx = np.zeros(n)
        self._sy = np.zeros(n)
        self._ex = np.zeros(n)
        self._ey = np.zeros(n)

    def __call__(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """Positions of all models at ``t`` as an ``(N, 2)`` array.

        ``out``, when given, must be a float64 ``(N, 2)`` buffer; it is
        filled and returned, so callers can reuse one scratch buffer
        across refreshes.
        """
        n = len(self._models)
        if out is None:
            out = np.empty((n, 2), dtype=np.float64)
        elif out.shape != (n, 2) or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 ({n}, 2) buffer, "
                f"got {out.dtype} {out.shape}"
            )
        if self._fill is not None:
            self._fill(self._models, t, out)
            return out
        t0 = self._t0
        t1 = self._t1
        stale = (t0 > t) | (t1 < t)
        if stale.any():
            models = self._models
            sx, sy, ex, ey = self._sx, self._sy, self._ex, self._ey
            for raw in np.flatnonzero(stale):
                i = int(raw)
                seg = models[i].current_segment(t)
                t0[i] = seg.t0
                t1[i] = seg.t1
                s = seg.start
                e = seg.end
                sx[i] = s.x
                sy[i] = s.y
                ex[i] = e.x
                ey[i] = e.y
        # Identical arithmetic to interpolate_segments().
        dt = t1 - t0
        moving = dt > 0.0
        u = (t - t0) / np.where(moving, dt, 1.0)
        np.clip(u, 0.0, 1.0, out=u)
        u[~moving] = 0.0
        out[:, 0] = self._sx + (self._ex - self._sx) * u
        out[:, 1] = self._sy + (self._ey - self._sy) * u
        return out


@dataclass(frozen=True, slots=True)
class Segment:
    """One constant-velocity leg of a trajectory.

    The node moves from ``start`` at ``t0`` to ``end`` at ``t1``;
    ``t0 == t1`` encodes a pause at ``start``.
    """

    t0: float
    t1: float
    start: Point
    end: Point

    def at(self, t: float) -> Point:
        """Interpolated position at ``t`` within ``[t0, t1]``."""
        if self.t1 <= self.t0:
            return self.start
        u = (t - self.t0) / (self.t1 - self.t0)
        u = min(max(u, 0.0), 1.0)
        return Point(
            self.start.x + (self.end.x - self.start.x) * u,
            self.start.y + (self.end.y - self.start.y) * u,
        )


class Trajectory:
    """A lazily-extended piecewise-linear path.

    Subclass models append legs on demand via the ``_extend`` hook;
    queries bisect into the accumulated segment list so repeated and
    backward queries are O(log segments).
    """

    def __init__(self, origin: Point) -> None:
        self._segments: list[Segment] = []
        self._ends: list[float] = []  # parallel array of segment t1 values
        self._origin = origin
        self._horizon = 0.0
        # Query cache: simulation queries are near-monotone and legs are
        # long (a 2 m/s leg across a 1 km field lasts minutes), so the
        # last segment answers almost every lookup without a bisect.
        self._last_idx = 0

    @property
    def horizon(self) -> float:
        """Time up to which the trajectory has been materialised."""
        return self._horizon

    def append(self, seg: Segment) -> None:
        """Append a leg; legs must be contiguous in time."""
        if self._segments and abs(seg.t0 - self._horizon) > 1e-9:
            raise ValueError(
                f"non-contiguous segment: starts {seg.t0}, horizon {self._horizon}"
            )
        self._segments.append(seg)
        self._ends.append(seg.t1)
        self._horizon = seg.t1

    def ensure(self, t: float, extend) -> None:
        """Materialise legs until the horizon covers ``t``.

        ``extend`` is a zero-argument callable appending at least one
        leg per call (supplied by the owning model).
        """
        guard = 0
        while self._horizon < t:
            before = self._horizon
            extend()
            if self._horizon <= before:
                guard += 1
                if guard > 3:
                    raise RuntimeError("trajectory extend() made no progress")
            else:
                guard = 0

    def at(self, t: float) -> Point:
        """Position at time ``t`` (must be within the horizon)."""
        segments = self._segments
        if not segments:
            return self._origin
        # Fast path: the segment that answered the previous query, with
        # the interpolation inlined — this answers nearly every lookup
        # of a run, so the extra Segment.at frame is worth eliding.
        i = self._last_idx
        if i < len(segments):
            seg = segments[i]
            t0 = seg.t0
            t1 = seg.t1
            if t0 <= t <= t1:
                if t1 <= t0:
                    return seg.start
                u = (t - t0) / (t1 - t0)
                u = min(max(u, 0.0), 1.0)
                start = seg.start
                end = seg.end
                return Point(
                    start.x + (end.x - start.x) * u,
                    start.y + (end.y - start.y) * u,
                )
        if t <= segments[0].t0:
            return segments[0].start
        i = bisect.bisect_left(self._ends, t)
        if i >= len(segments):
            return segments[-1].end
        self._last_idx = i
        return segments[i].at(t)

    def segment_at(self, t: float) -> Segment:
        """The segment covering time ``t`` (for batch interpolation).

        Returns a (possibly degenerate) segment whose clamped
        interpolation at ``t`` equals :meth:`at`.  Uses the same query
        cache as :meth:`at`.
        """
        segments = self._segments
        if not segments:
            o = self._origin
            return Segment(0.0, 0.0, o, o)
        i = self._last_idx
        if i < len(segments):
            seg = segments[i]
            if seg.t0 <= t <= seg.t1:
                return seg
        if t <= segments[0].t0:
            return segments[0]
        i = bisect.bisect_left(self._ends, t)
        if i >= len(segments):
            last = segments[-1]
            return Segment(last.t1, last.t1, last.end, last.end)
        self._last_idx = i
        return segments[i]
