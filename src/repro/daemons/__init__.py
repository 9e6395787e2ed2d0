"""The Mercury/Freon daemons: monitord, and tempd's wire format.

tempd and admd's logic is the Freon policy in
:mod:`repro.control.policies`; this package keeps monitord, the
tempd -> admd message, and its UDP transport.
"""

from .monitord import Monitord
from .tempd import TempdMessage
from .transport import AdmdListener, TempdSender

__all__ = ["AdmdListener", "Monitord", "TempdMessage", "TempdSender"]
