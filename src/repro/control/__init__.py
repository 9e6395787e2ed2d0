"""repro.control: one management layer over both simulation stacks.

The control plane separates *what a policy decides* from *which
simulator it runs on* — Mercury/Freon's own separation of management
from emulation, applied to this repo's two stacks:

* :mod:`repro.control.view` — the :class:`MachineStateView` protocol
  (observe temperatures/utilizations/weights/power, actuate
  weights/caps/power/DVFS) with a scalar backend over
  :class:`~repro.cluster.simulation.ClusterSimulation` and a vectorized
  backend over :class:`~repro.topology.sim.ScaleSimulation`.
* :mod:`repro.control.policies` — Freon, Freon-EC, traditional
  shutdown, emergency control and local DVFS, written once against the
  view and run by every stack that supports them.
* :mod:`repro.control.registry` — the policy name registry both stacks
  validate against and build from.
* :mod:`repro.control.parity` — the scalar-vs-vectorized equivalence
  harness proving both backends produce the same decisions and
  temperatures.

Importing this package registers the built-in policies.
"""

from .registry import PolicySpec, STACKS, build, get, names, register
from .view import (
    POWER_ACTIVE,
    POWER_BOOTING,
    POWER_DRAINING,
    POWER_OFF,
    ClusterStateView,
    FlatStateView,
    MachineStateView,
)
from .policies import (
    DEFAULT_PSTATES,
    ControlPolicy,
    EmergencyPolicy,
    FreonECPolicy,
    FreonPolicy,
    LocalDvfsPolicy,
    PStateChange,
    TraditionalControlPolicy,
)

__all__ = [
    "PolicySpec",
    "STACKS",
    "build",
    "get",
    "names",
    "register",
    "POWER_ACTIVE",
    "POWER_BOOTING",
    "POWER_DRAINING",
    "POWER_OFF",
    "ClusterStateView",
    "FlatStateView",
    "MachineStateView",
    "ControlPolicy",
    "DEFAULT_PSTATES",
    "EmergencyPolicy",
    "FreonECPolicy",
    "FreonPolicy",
    "LocalDvfsPolicy",
    "PStateChange",
    "TraditionalControlPolicy",
]
