"""Adversary models (paper §2.1 attack model, §3 analyses).

Passive, computation-bounded observers: they record transmissions and
recipient sets in their vicinity and run offline analyses —
intersection attacks (§3.3), timing attacks (§3.2), and traffic
analysis / interception (§3.1).  None of them can break the ciphers.
"""

from repro.attacks.adversary import (
    DeliveryObservation,
    PassiveObserver,
    union_observations_by_window,
)
from repro.attacks.intersection_attack import IntersectionAttacker
from repro.attacks.timing_attack import TimingAttacker
from repro.attacks.traffic_analysis import InterceptionAttacker

__all__ = [
    "PassiveObserver",
    "DeliveryObservation",
    "union_observations_by_window",
    "IntersectionAttacker",
    "TimingAttacker",
    "InterceptionAttacker",
]
