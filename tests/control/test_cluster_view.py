"""The scalar backend: :class:`ClusterStateView` over a live cluster.

The cluster stack runs its management policy through this view, so its
reads must be the simulation's own sensor, balancer and power paths.
(Whole-run decisions are pinned by ``tests/golden/cluster_decisions.json``.)
"""

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.config import table1
from repro.freon.regions import two_region_split


def _weights(sim):
    servers = sim.balancer.server_map
    return np.array([servers[m].weight for m in sim.machines])


class TestClusterStateView:
    def test_reads_match_solver_and_balancer(self):
        sim = ClusterSimulation(policy="none")
        sim.run(30)
        view = sim.state_view()
        assert view.machines == tuple(sim.machines)
        temps = view.read_temperatures(["cpu", "disk"])
        for i, name in enumerate(view.machines):
            assert temps["cpu"][i] == pytest.approx(
                sim.solver.temperature(name, table1.CPU), abs=1e-12
            )
        assert np.array_equal(view.weights(), _weights(sim))

    def test_view_is_cached(self):
        sim = ClusterSimulation(policy="none")
        assert sim.state_view() is sim.state_view()

    def test_mask_skips_machines(self):
        sim = ClusterSimulation(policy="none")
        sim.run(5)
        view = sim.state_view()
        mask = np.array([True, False, True, False])
        temps = view.read_temperatures(["cpu"], mask=mask)
        assert not np.isnan(temps["cpu"][0])
        assert np.isnan(temps["cpu"][1])

    def test_regions_are_the_alternating_split_without_a_topology(self):
        sim = ClusterSimulation(policy="none")
        view = sim.state_view()
        split = two_region_split(sim.machines)
        assert [view.region_of(i) for i in range(len(sim.machines))] == [
            split.region_of(name) for name in sim.machines
        ]
