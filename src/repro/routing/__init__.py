"""Routing protocols: the GPSR baseline, the two anonymous comparison
protocols from the paper's evaluation (ALARM, AO2P) and ZAP, §3.3's
comparison point against intersection attacks.  ALARM, AO2P and ZAP
forward with GPSR's greedy/perimeter step toward a target of their own.

ALERT itself lives in :mod:`repro.core` (it is the paper's
contribution); all five share the :class:`RoutingProtocol` interface
so the experiment harness can swap them freely.
"""

from repro.routing.alarm import AlarmConfig, AlarmProtocol
from repro.routing.ao2p import Ao2pConfig, Ao2pProtocol
from repro.routing.base import RoutingProtocol
from repro.routing.gpsr import GpsrConfig, GpsrProtocol
from repro.routing.taxonomy import PROTOCOL_TAXONOMY, ProtocolEntry, format_taxonomy
from repro.routing.zap import ZapConfig, ZapProtocol

__all__ = [
    "RoutingProtocol",
    "GpsrProtocol",
    "GpsrConfig",
    "AlarmProtocol",
    "AlarmConfig",
    "Ao2pProtocol",
    "Ao2pConfig",
    "ZapProtocol",
    "ZapConfig",
    "PROTOCOL_TAXONOMY",
    "ProtocolEntry",
    "format_taxonomy",
]
