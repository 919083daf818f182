"""Traffic analysis: node-compromise interception (§3.1).

:class:`InterceptionAttacker` — "the route anonymity due to random
relay node selection in ALERT prevents an intruder from intercepting
packets or compromising vulnerable nodes en route": the attacker
compromises the j historically busiest relays and we measure what
fraction of subsequent packets it still catches.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence


class InterceptionAttacker:
    """Node-compromise interception.

    Parameters
    ----------
    budget:
        Number of relay nodes the attacker can compromise.
    """

    def __init__(self, budget: int = 3) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget

    def choose_targets(
        self, observed_routes: Sequence[Sequence[int]], exclude: Sequence[int] = ()
    ) -> list[int]:
        """Compromise the historically busiest relays (ends excluded)."""
        counts: Counter = Counter()
        banned = set(exclude)
        for route in observed_routes:
            interior = route[1:-1] if len(route) > 2 else []
            for nid in set(interior):
                if nid not in banned:
                    counts[nid] += 1
        return [nid for nid, _ in counts.most_common(self.budget)]

    def interception_rate(
        self,
        observed_routes: Sequence[Sequence[int]],
        future_routes: Sequence[Sequence[int]],
        exclude: Sequence[int] = (),
    ) -> float:
        """Fraction of future packets crossing a compromised node."""
        targets = set(self.choose_targets(observed_routes, exclude))
        if not future_routes:
            return float("nan")
        hit = sum(1 for r in future_routes if targets & set(r[1:-1]))
        return hit / len(future_routes)
