"""tempd -> admd messages: Freon's wire format (paper section 4.1).

"A Freon process, called tempd or temperature daemon, at each server
monitors the temperature of the CPU(s) and disk(s) of the server."
When a component exceeds its high threshold tempd sends admd the
PD-controller output (ADJUST), repeats that every period until the
component cools, and orders admd to lift all restrictions (RELEASE)
once every component is below its low threshold; past a red line it
reports REDLINE.  For Freon-EC, tempd "also sends utilization
information to admd periodically" (STATUS).

The daemon logic itself lives once, in :mod:`repro.control.policies`;
this module keeps the datagram those policies send, which
:mod:`repro.daemons.transport` encodes for a real UDP path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Message types tempd emits.
MSG_ADJUST = "adjust"
MSG_RELEASE = "release"
MSG_REDLINE = "redline"
MSG_STATUS = "status"


@dataclass(frozen=True)
class TempdMessage:
    """One tempd -> admd datagram (as a structured value)."""

    type: str
    machine: str
    time: float
    output: float = 0.0
    temperatures: Dict[str, float] = field(default_factory=dict)
    utilizations: Dict[str, float] = field(default_factory=dict)
