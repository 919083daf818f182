"""Experiment configuration mirroring the paper's §5.2 parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from repro.net.traffic import check_aimd_params


@dataclass(frozen=True)
class TrafficConfig:
    """The traffic-source block of an experiment.

    ``model="cbr"`` is the paper's open-loop source; ``"adaptive"``
    swaps in :class:`~repro.net.traffic.AdaptiveSource` driven by a
    per-run :class:`~repro.net.feedback.FlowFeedback` channel (MAC
    drops, routing deliveries/drops, confirmation timeouts).

    Parameters
    ----------
    model:
        ``"cbr"`` or ``"adaptive"``.
    min_interval, max_interval:
        Hard clamp for the adaptive send interval, seconds.  The
        experiment's ``send_interval`` must lie inside the clamp.
    backoff_factor:
        Multiplicative interval growth per loss signal (> 1).
    recovery_step:
        Additive interval reduction per acknowledged delivery, seconds.
        Recovery never undershoots ``send_interval``, so a loss-free
        adaptive flow is bit-identical to CBR.
    react_to_mac_drops:
        Whether MAC retry-exhausted drops trigger backoff (terminal
        routing drops and confirmation timeouts always do).
    """

    model: str = "cbr"
    min_interval: float = 0.05
    max_interval: float = 8.0
    backoff_factor: float = 2.0
    recovery_step: float = 0.25
    react_to_mac_drops: bool = True

    def __post_init__(self) -> None:
        if self.model not in ("cbr", "adaptive"):
            raise ValueError(f"unknown traffic model {self.model!r}")
        check_aimd_params(
            self.min_interval, self.max_interval,
            self.backoff_factor, self.recovery_step,
        )

    def with_(self, **overrides: Any) -> "TrafficConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


#: ``ExperimentConfig`` durations, intervals, sizes and ranges, each
#: of which must be strictly positive.
_POSITIVE_FIELDS = (
    "duration", "field_size", "group_range", "send_interval", "packet_size",
)


#: Every routing protocol a run can use (ALERT and its §5 baselines).
PROTOCOLS = ("ALERT", "GPSR", "ALARM", "AO2P", "ZAP")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation's parameters.

    Defaults are the paper's: 1000 m × 1000 m field, 200 nodes moving
    at 2 m/s under random waypoint, 10 random S-D pairs sending
    512-byte packets every 2 s for 100 s.  What the paper does not vary
    is a constant of the stack: the 250 m range
    (``repro.net.radio.RadioModel.range_m``), the beacon period
    (``repro.net.network.HELLO_INTERVAL``), the location-update period
    (``LocationService``'s 2 s default) and the drain after traffic
    stops (``repro.experiments.runner.DRAIN_TIME``).

    Parameters
    ----------
    protocol:
        One of :data:`PROTOCOLS`.
    mobility:
        ``"rwp"`` (random waypoint), ``"group"`` (RPGM), or
        ``"static"``.
    n_groups, group_range:
        RPGM parameters (paper: 10 groups × 150 m, or 5 × 200 m).
    destination_update:
        The location-service update toggle of Figs. 14b/15b/16b.
    k:
        ALERT's destination-zone anonymity parameter.
    h_override:
        Force ALERT's partition count ``H`` (else derived from k).
    alert_options:
        Extra keyword overrides applied to :class:`AlertConfig`
        (e.g. ``{"notify_and_go": True}``).
    """

    protocol: str = "ALERT"
    n_nodes: int = 200
    field_size: float = 1000.0
    speed: float = 2.0
    mobility: str = "rwp"
    n_groups: int = 10
    group_range: float = 150.0
    duration: float = 100.0
    n_pairs: int = 10
    send_interval: float = 2.0
    packet_size: int = 512
    destination_update: bool = True
    k: int = 6
    #: The paper's §4/§5 default is a *fixed* H = 5 ("We set H = 5 to
    #: ensure that a reasonable number of nodes are in a destination
    #: zone"), with k emerging from density; pass ``None`` to derive
    #: H from k instead.
    h_override: int | None = 5
    alert_options: dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    #: traffic-source block; a plain dict is coerced to
    #: :class:`TrafficConfig` for sweep/CLI convenience.
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.mobility not in ("rwp", "group", "static"):
            raise ValueError(f"unknown mobility model {self.mobility!r}")
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.n_pairs < 1 or 2 * self.n_pairs > self.n_nodes:
            raise ValueError("n_pairs must fit disjointly into the population")
        if self.mobility == "group" and not 1 <= self.n_groups <= self.n_nodes:
            raise ValueError(
                f"n_groups must be in [1, n_nodes={self.n_nodes}], "
                f"got {self.n_groups!r}"
            )
        if not self.speed >= 0:
            raise ValueError("speed must be >= 0")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in (*_POSITIVE_FIELDS, "speed"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(self.traffic, dict):
            object.__setattr__(self, "traffic", TrafficConfig(**self.traffic))
        if self.traffic.model == "adaptive" and not (
            self.traffic.min_interval
            <= self.send_interval
            <= self.traffic.max_interval
        ):
            raise ValueError(
                f"send_interval={self.send_interval!r} outside the adaptive "
                f"clamp [{self.traffic.min_interval!r}, "
                f"{self.traffic.max_interval!r}]"
            )

    def with_(self, **overrides: Any) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
