"""A small in-memory :class:`MachineStateView` for policy unit tests.

Weights, caps and connection counts live in a real
:class:`~repro.cluster.lvs.LoadBalancer`; temperatures, utilizations,
power states and daemon liveness are plain settable dicts; power
switches act instantly and are logged.
"""

import numpy as np

from repro.cluster.lvs import LoadBalancer, ServerState
from repro.control import POWER_ACTIVE, POWER_DRAINING, POWER_OFF
from repro.freon.regions import two_region_split


class FakeView:
    """Settable readings over a real balancer, machines in given order."""

    sequential = True

    def __init__(self, machines=("m1",), off=()):
        self.machines = tuple(machines)
        self.balancer = LoadBalancer(list(self.machines))
        self.temperatures = {
            name: {"cpu": 50.0, "disk": 40.0} for name in self.machines
        }
        self.utilizations = {
            name: {"cpu": 0.0, "disk": 0.0} for name in self.machines
        }
        self.power = {
            name: POWER_OFF if name in off else POWER_ACTIVE
            for name in self.machines
        }
        #: Machines whose sensor reads fail (a dropout).
        self.failing = set()
        #: Machines whose monitoring daemon is down.
        self.crashed = set()
        self.on_requests = []
        self.off_requests = []
        split = two_region_split(self.machines)
        self._regions = [split.region_of(name) for name in self.machines]

    # -- readings ------------------------------------------------------------

    def read_temperatures(self, components, mask=None):
        out = {c: np.full(len(self.machines), np.nan) for c in components}
        for i, name in enumerate(self.machines):
            if (mask is not None and not mask[i]) or name in self.failing:
                continue
            for c in components:
                out[c][i] = self.temperatures[name][c]
        return out

    def read_utilizations(self, components):
        return {
            c: np.array([self.utilizations[m][c] for m in self.machines])
            for c in components
        }

    def daemons_up(self):
        return np.array([m not in self.crashed for m in self.machines])

    def region_of(self, index):
        return self._regions[index]

    # -- balancer --------------------------------------------------------------

    def weights(self):
        servers = self.balancer.server_map
        return np.array([servers[m].weight for m in self.machines])

    def set_weight(self, index, weight):
        self.balancer.set_weight(self.machines[index], weight)

    def set_connection_cap(self, index, cap):
        self.balancer.set_connection_limit(self.machines[index], cap)

    def connections(self):
        stats = self.balancer.connection_stats()
        return np.array([stats[m] for m in self.machines])

    # -- power -------------------------------------------------------------------

    def power_states(self):
        return np.array(
            [self.power_state(i) for i in range(len(self.machines))],
            dtype=np.int64,
        )

    def power_state(self, index):
        name = self.machines[index]
        state = self.power[name]
        if state == POWER_ACTIVE and (
            self.balancer.server(name).state is not ServerState.ACTIVE
        ):
            return POWER_DRAINING  # quiesced in the balancer
        return state

    def set_power(self, index, on):
        name = self.machines[index]
        (self.on_requests if on else self.off_requests).append(name)
        self.power[name] = POWER_ACTIVE if on else POWER_OFF

    def active(self):
        """Names of machines currently accepting load."""
        return [
            m for i, m in enumerate(self.machines)
            if self.power_state(i) == POWER_ACTIVE
        ]
