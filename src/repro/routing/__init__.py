"""Routing protocols: the GPSR baseline, the two anonymous comparison
protocols from the paper's evaluation (ALARM, AO2P) and ZAP, §3.3's
comparison point against intersection attacks.  ALARM, AO2P and ZAP
forward with GPSR's greedy/perimeter step toward a target of their own.
The values the paper fixes (GPSR's TTL of 10, ALARM's 30 s
dissemination period) are class attributes; the only constructor
option beyond the shared four is ZAP's ``enlargement_per_packet``.

ALERT itself lives in :mod:`repro.core` (it is the paper's
contribution); all five share the :class:`RoutingProtocol` interface
so the experiment harness can swap them freely.
"""

from repro.routing.alarm import AlarmProtocol
from repro.routing.ao2p import Ao2pProtocol
from repro.routing.base import RoutingProtocol
from repro.routing.gpsr import GpsrProtocol
from repro.routing.taxonomy import PROTOCOL_TAXONOMY, ProtocolEntry, format_taxonomy
from repro.routing.zap import ZapProtocol

__all__ = [
    "RoutingProtocol",
    "GpsrProtocol",
    "AlarmProtocol",
    "Ao2pProtocol",
    "ZapProtocol",
    "PROTOCOL_TAXONOMY",
    "ProtocolEntry",
    "format_taxonomy",
]
