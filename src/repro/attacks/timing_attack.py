"""The timing attack (paper §3.2).

"Through packet departure and arrival times, an intruder can identify
the packets transmitted between S and D" — if the S→D delay is (near)
constant, the intruder matches A's departure times against B's arrival
times and concludes they communicate.

The attacker here scores every candidate receiver by how *regular* the
departure→arrival delay looks: for each departure it takes the first
subsequent arrival at the candidate, and computes the coefficient of
variation of those delays.  A protocol with a fixed path (GPSR) gives
a tiny CV → confident match; ALERT's per-packet random routes (and the
deferred two-step zone delivery) inflate the variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class TimingVerdict:
    """Result of correlating one (sender, receiver) pair."""

    matched_pairs: int
    mean_delay: float
    delay_std: float
    #: coefficient of variation; below the attacker's threshold = match
    cv: float
    identified: bool


class TimingAttacker:
    """Correlates departure and arrival timestamps.

    Parameters
    ----------
    cv_threshold:
        Maximum delay coefficient-of-variation the attacker accepts as
        evidence of a fixed S→D relationship.
    min_pairs:
        Minimum matched (departure, arrival) pairs before concluding.
    max_delay:
        Arrivals later than this after a departure are not matched.
    """

    def __init__(
        self,
        cv_threshold: float = 0.15,
        min_pairs: int = 5,
        max_delay: float = 5.0,
    ) -> None:
        self.cv_threshold = cv_threshold
        self.min_pairs = min_pairs
        self.max_delay = max_delay

    def match_delays(
        self, departures: list[float], arrivals: list[float]
    ) -> list[float]:
        """First-subsequent-arrival matching of the two event streams."""
        delays: list[float] = []
        arr = sorted(arrivals)
        idx = 0
        for dep in sorted(departures):
            while idx < len(arr) and arr[idx] < dep:
                idx += 1
            if idx >= len(arr):
                break
            delay = arr[idx] - dep
            if delay <= self.max_delay:
                delays.append(delay)
                idx += 1
        return delays

    def correlate(
        self, departures: list[float], arrivals: list[float]
    ) -> TimingVerdict:
        """Score one candidate pair."""
        delays = self.match_delays(departures, arrivals)
        n = len(delays)
        if n == 0:
            return TimingVerdict(0, float("nan"), float("nan"), float("inf"), False)
        mean = sum(delays) / n
        var = sum((d - mean) ** 2 for d in delays) / n
        std = math.sqrt(var)
        cv = std / mean if mean > 0 else float("inf")
        identified = n >= self.min_pairs and cv <= self.cv_threshold
        return TimingVerdict(n, mean, std, cv, identified)
