"""Quantitative anonymity metrics used by the attack benchmarks.

These operationalise the informal guarantees of §3: destination
k-anonymity (size of the candidate set an observer is left with),
entropy of the attacker's posterior, and route overlap (how much two
consecutive routes share — the observable GPSR leaks and ALERT hides).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def k_anonymity_set(candidates: Iterable[int]) -> int:
    """Size of the attacker's remaining candidate set.

    1 means fully identified; larger is better for the target.
    """
    return len(set(candidates))


def anonymity_entropy(weights: Sequence[float]) -> float:
    """Shannon entropy (bits) of the attacker's posterior over suspects.

    ``weights`` are unnormalised suspicion scores; uniform weights over
    n suspects give ``log2(n)`` bits (perfect n-anonymity).
    """
    total = float(sum(weights))
    if total <= 0:
        return 0.0
    h = 0.0
    for w in weights:
        if w <= 0:
            continue
        p = w / total
        h -= p * math.log2(p)
    return h


def route_overlap(route_a: Sequence[int], route_b: Sequence[int]) -> float:
    """Jaccard overlap of the node sets of two routes.

    GPSR's repeated shortest paths give overlap ≈ 1 between consecutive
    packets of a flow; ALERT's random relay selection drives it toward
    0, which is what defeats route tracing and interception (§3.1).
    """
    a, b = set(route_a), set(route_b)
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def mean_pairwise_overlap(routes: Sequence[Sequence[int]]) -> float:
    """Mean Jaccard overlap over consecutive route pairs of a flow."""
    if len(routes) < 2:
        return float("nan")
    overlaps = [
        route_overlap(routes[i], routes[i + 1]) for i in range(len(routes) - 1)
    ]
    return sum(overlaps) / len(overlaps)
