"""Machine-state views: the seam between policies and simulation stacks.

A :class:`MachineStateView` gives a management policy everything it may
observe or actuate about a room full of machines — component
temperatures (through the fault-injectable sensor path), LVS scheduling
weights, concurrency caps, power state, DVFS — as NumPy arrays indexed
by canonical machine order, regardless of which simulation stack sits
beneath:

* :class:`ClusterStateView` adapts a per-machine
  :class:`~repro.cluster.simulation.ClusterSimulation`: temperature
  reads go through its :class:`~repro.sensors.server.SensorService`
  (alias resolution + injected sensor faults, exactly what the real
  tempd daemons read), weights/caps through its
  :class:`~repro.cluster.lvs.LoadBalancer`, power through its
  ``request_on``/``request_off`` drain semantics.
* :class:`FlatStateView` adapts a :class:`~repro.topology.sim.
  ScaleSimulation`: temperature reads are column copies off the
  flattened :class:`~repro.topology.sim.FlatSolver` array (with the
  same per-machine fault filtering applied to faulted rows), weights
  and caps are the simulation's vectorized allocation inputs, power
  cuts a machine's power-scale row.

Both views present the *same* contract, so a policy written once (see
:mod:`repro.control.policies`) runs unchanged on either stack; the
parity harness in :mod:`repro.control.parity` proves the decisions
match.  Failed sensor reads surface as ``NaN`` (per machine,
atomically: if any component's read fails the whole machine's read
fails, like tempd's one-shot reader) rather than exceptions, so
vectorized policies can mask instead of branch.  Datagram faults are
not the view's business: the host routes a policy's tempd -> admd
messages through its own channel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

try:  # NumPy is required for the array views; imports stay gated
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

from ..errors import ControlError, SensorError
from ..freon.regions import two_region_split

#: Power-state codes a view reports (a compact int array, not an enum,
#: so vectorized policies can compare whole columns at once).
POWER_OFF = 0
POWER_BOOTING = 1
POWER_ACTIVE = 2
POWER_DRAINING = 3


def _require_numpy() -> None:
    if np is None:
        raise ControlError("machine-state views require NumPy")


class MachineStateView(Protocol):
    """What a management policy may observe and actuate.

    All array-valued methods use the view's canonical machine order
    (``machines``); actuators take a row index in that order.
    """

    #: Canonical machine names, fixing the row order of every array.
    machines: Tuple[str, ...]
    #: Whether per-machine daemons run one machine at a time: a policy
    #: finishes one machine's reads and sends before the next machine
    #: reads (their sensor and datagram fault draws share one RNG
    #: stream, so the interleaving is part of the run).
    sequential: bool

    def read_temperatures(
        self, components: Sequence[str], mask: Optional["np.ndarray"] = None
    ) -> Dict[str, "np.ndarray"]:
        """Component temperatures via the (fault-injectable) sensor path.

        Returns one array per component class (e.g. ``"cpu"``,
        ``"disk"``).  A machine whose read failed (injected dropout)
        reports ``NaN`` in *every* class: the read is atomic per
        machine, like tempd's.  A boolean ``mask`` restricts which
        machines are read at all (masked-out rows are ``NaN`` and
        consume no fault RNG — a daemon that is down never reads).
        """

    def read_utilizations(
        self, components: Sequence[str]
    ) -> Dict[str, "np.ndarray"]:
        """Current component utilizations (Freon-EC's STATUS payload)."""

    def weights(self) -> "np.ndarray":
        """Current scheduling weights (a copy; actuate via set_weight)."""

    def set_weight(self, index: int, weight: float) -> None:
        """Set one machine's LVS scheduling weight."""

    def set_connection_cap(self, index: int, cap: Optional[float]) -> None:
        """Cap (or with ``None`` uncap) one machine's concurrency."""

    def connections(self) -> "np.ndarray":
        """Concurrent-connection counts, as LVS statistics report them."""

    def power_states(self) -> "np.ndarray":
        """Per-machine POWER_* codes (int array)."""

    def power_state(self, index: int) -> int:
        """One machine's POWER_* code (cheaper than a full column)."""

    def set_power(self, index: int, on: bool) -> None:
        """Request a machine on (boot) or off (drain/cut)."""

    def region_of(self, index: int) -> str:
        """Physical region of one machine (Freon-EC's region map)."""

    def daemons_up(self) -> "np.ndarray":
        """Per-machine bool: is the monitoring daemon alive?"""

    def set_dvfs(self, index: int, frequency: float, power: float) -> None:
        """Apply a DVFS operating point to one machine's CPU."""


class ClusterStateView:
    """Scalar backend: a view over a live :class:`ClusterSimulation`.

    Reads go through the simulation's sensor service (alias resolution
    plus injected sensor faults) and its balancer; power goes through
    its drain/boot semantics.  Obtain one via
    :meth:`ClusterSimulation.state_view`.  Anything with the same
    attributes (``machines``, ``topology``, ``service``, ``balancer``,
    ``webservers``, ``injector``, ``request_on``/``request_off``) can be
    viewed the same way, e.g. one tier of a multi-tier service.

    Regions are the topology's zones when a topology is configured, and
    otherwise the section 5.2 alternating split.
    """

    def __init__(self, simulation) -> None:
        _require_numpy()
        self._sim = simulation
        self.machines: Tuple[str, ...] = tuple(simulation.machines)
        if simulation.topology is not None:
            self._regions = [
                simulation.topology.positions[name].zone
                for name in self.machines
            ]
        else:
            split = two_region_split(self.machines)
            self._regions = [split.region_of(name) for name in self.machines]

    @property
    def sequential(self):
        """Machine-by-machine only while a fault is active: without one,
        reads and sends draw no randomness and log nothing, so their
        interleaving cannot show."""
        injector = self._sim.injector
        return injector is not None and injector.any_active

    def read_temperatures(self, components, mask=None):
        sim = self._sim
        out = {c: np.full(len(self.machines), np.nan) for c in components}
        for i, name in enumerate(self.machines):
            if mask is not None and not mask[i]:
                continue
            try:
                # Sequential reads, aborted at the first failure: the
                # native tempd reader builds its dict the same way, so
                # fault-RNG consumption matches read for read.
                values = [
                    sim.service.read_temperature(name, c) for c in components
                ]
            except SensorError:
                for c in components:
                    out[c][i] = np.nan
            else:
                for c, value in zip(components, values):
                    out[c][i] = value
        return out

    def read_utilizations(self, components):
        sim = self._sim
        out = {c: np.zeros(len(self.machines)) for c in components}
        for i, name in enumerate(self.machines):
            load = sim.webservers[name].load
            for c in components:
                out[c][i] = getattr(load, f"{c}_utilization")
        return out

    def weights(self):
        servers = self._sim.balancer.server_map
        return np.array([servers[name].weight for name in self.machines])

    def set_weight(self, index, weight):
        self._sim.balancer.set_weight(self.machines[index], weight)

    def set_connection_cap(self, index, cap):
        self._sim.balancer.set_connection_limit(self.machines[index], cap)

    def connections(self):
        stats = self._sim.balancer.connection_stats()
        return np.array([stats[name] for name in self.machines])

    def power_states(self):
        from ..cluster.webserver import PowerState

        codes = {
            PowerState.OFF: POWER_OFF,
            PowerState.BOOTING: POWER_BOOTING,
            PowerState.ACTIVE: POWER_ACTIVE,
            PowerState.DRAINING: POWER_DRAINING,
        }
        ws = self._sim.webservers
        return np.array(
            [codes[ws[name].state] for name in self.machines], dtype=np.int64
        )

    def power_state(self, index):
        from ..cluster.webserver import PowerState

        state = self._sim.webservers[self.machines[index]].state
        return {
            PowerState.OFF: POWER_OFF,
            PowerState.BOOTING: POWER_BOOTING,
            PowerState.ACTIVE: POWER_ACTIVE,
            PowerState.DRAINING: POWER_DRAINING,
        }[state]

    def set_power(self, index, on):
        name = self.machines[index]
        if on:
            self._sim.request_on(name)
        else:
            self._sim.request_off(name)

    def region_of(self, index):
        return self._regions[index]

    def daemons_up(self):
        injector = self._sim.injector
        if injector is None or not injector.any_active:
            return np.ones(len(self.machines), dtype=bool)
        return np.array(
            [injector.daemon_up(name, "tempd") for name in self.machines],
            dtype=bool,
        )

    def set_dvfs(self, index, frequency, power):
        from ..config import table1

        name = self.machines[index]
        self._sim.webservers[name].set_speed_factor(frequency)
        self._sim.solver.machine(name).set_power_scale(table1.CPU, power)


class FlatStateView:
    """Vectorized backend: a view over a :class:`ScaleSimulation`.

    Temperature reads are column copies off the flattened solver; rows
    covered by an active sensor fault are re-filtered through the same
    :meth:`~repro.faults.injector.FaultInjector.filter_sensor` hook the
    scalar sensor service uses (identical stuck/spike/noise/dropout
    semantics, identical RNG stream consumption).  Actuators write the
    simulation's vectorized allocation inputs directly.
    """

    sequential = False

    #: Component class -> solver node, mirroring table1.sensor_map().
    _NODES: Dict[str, str] = {}

    def __init__(self, simulation) -> None:
        _require_numpy()
        from ..config import table1

        if not FlatStateView._NODES:
            FlatStateView._NODES = {
                "cpu": table1.CPU, "disk": table1.DISK_PLATTERS,
            }
        self._sim = simulation
        self.machines: Tuple[str, ...] = tuple(
            simulation.topology.machines
        )
        positions = simulation.topology.positions
        self._regions = [
            positions[name].zone for name in self.machines
        ]

    def _node(self, component: str) -> str:
        try:
            return self._NODES[component]
        except KeyError:
            raise ControlError(
                f"unknown component class {component!r}"
            ) from None

    def read_temperatures(self, components, mask=None):
        sim = self._sim
        out = {
            c: np.array(sim.solver.node_column(self._node(c)), copy=True)
            for c in components
        }
        if mask is not None:
            for c in components:
                out[c][~mask] = np.nan
        injector = sim.injector
        if injector is None or not injector.any_active:
            return out
        # Only rows under an active sensor fault take the scalar filter
        # path; everything else keeps the raw column value (the filter
        # is identity for unfaulted reads and consumes no RNG).
        faulted = {
            f.spec.machine
            for f in injector.active
            if f.spec.is_sensor
        }
        index = sim.solver.operator.index
        for name in sorted(faulted, key=lambda m: index.get(m, -1)):
            row = index.get(name)
            if row is None or (mask is not None and not mask[row]):
                continue
            try:
                values = [
                    injector.filter_sensor(name, c, float(out[c][row]))
                    for c in components
                ]
            except SensorError:
                for c in components:
                    out[c][row] = np.nan
            else:
                for c, value in zip(components, values):
                    out[c][row] = value
        return out

    def read_utilizations(self, components):
        sim = self._sim
        return {
            c: np.array(
                sim.solver.group.util[:, sim.solver.plan.comp_index[
                    self._node(c)
                ]],
                copy=True,
            )
            for c in components
        }

    def weights(self):
        return self._sim.weights.copy()

    def set_weight(self, index, weight):
        from ..cluster import lvs

        # Same floor the scalar balancer applies in set_weight.
        self._sim.weights[index] = max(weight, lvs.MIN_WEIGHT)

    def set_connection_cap(self, index, cap):
        self._sim.set_connection_cap(index, cap)

    def connections(self):
        return self._sim.connections()

    def power_states(self):
        return self._sim.power.copy()

    def power_state(self, index):
        return int(self._sim.power[index])

    def set_power(self, index, on):
        self._sim.set_power(index, on)

    def region_of(self, index):
        return self._regions[index]

    def daemons_up(self):
        injector = self._sim.injector
        n = len(self.machines)
        if injector is None or not injector.any_active:
            return np.ones(n, dtype=bool)
        index = self._sim.solver.operator.index
        up = np.ones(n, dtype=bool)
        for machine, daemon, _ in injector.crashed_daemons():
            if daemon == "tempd" and machine in index:
                up[index[machine]] = False
        return up

    def set_dvfs(self, index, frequency, power):
        raise ControlError(
            "the flattened stack has no per-machine DVFS model"
        )
