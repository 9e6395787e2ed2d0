"""The policy registry: one namespace validating both stacks."""

import pytest

from repro.cluster.simulation import POLICIES, ClusterSimulation
from repro.control import PolicySpec, STACKS, build, get, names
from repro.control.policies import (
    EmergencyPolicy,
    FreonECPolicy,
    FreonPolicy,
    LocalDvfsPolicy,
    TraditionalControlPolicy,
)
from repro.errors import ControlError, TopologyError
from repro.freon.policy import FreonConfig
from repro.topology import ScaleSimulation, grid_topology


class TestNames:
    def test_cluster_names_match_historical_tuple(self):
        # The cluster POLICIES tuple predates the registry; its content
        # and order are pinned (CLI choices, docs, golden artifacts).
        assert names("cluster") == (
            "none", "freon", "freon-ec", "traditional", "local-dvfs"
        )
        assert POLICIES == names("cluster")

    def test_scale_names(self):
        assert names("scale") == (
            "none", "freon", "freon-ec", "traditional", "emergency"
        )

    def test_all_names_superset(self):
        assert set(names()) == set(names("cluster")) | set(names("scale"))

    def test_unknown_stack_rejected(self):
        with pytest.raises(ControlError, match="unknown stack"):
            names("quantum")


class TestGet:
    def test_lookup_returns_spec(self):
        spec = get("freon", stack="scale")
        assert spec.name == "freon"
        assert "scale" in spec.stacks

    def test_unknown_name_lists_available(self):
        with pytest.raises(ControlError) as err:
            get("overclock", stack="scale")
        message = str(err.value)
        for name in names("scale"):
            assert repr(name) in message

    def test_wrong_stack_rejected(self):
        # local-dvfs is cluster-native; emergency is scale-only.
        with pytest.raises(ControlError, match="'scale' stack"):
            get("local-dvfs", stack="scale")
        with pytest.raises(ControlError, match="'cluster' stack"):
            get("emergency", stack="cluster")

    def test_spec_rejects_unknown_stack(self):
        with pytest.raises(ControlError, match="unknown stack"):
            PolicySpec("x", "bad", stacks=("warehouse",))
        assert STACKS == ("cluster", "scale")


class TestBuild:
    def test_builds_policy_instances(self):
        assert isinstance(build("freon", "scale"), FreonPolicy)
        assert isinstance(build("freon-ec", "scale"), FreonECPolicy)
        assert isinstance(
            build("traditional", "scale"), TraditionalControlPolicy
        )
        assert isinstance(build("emergency", "scale"), EmergencyPolicy)
        assert isinstance(
            build("local-dvfs", "cluster", config=FreonConfig()),
            LocalDvfsPolicy,
        )

    def test_none_policy_has_no_factory(self):
        assert build("none", "scale") is None
        assert build("none", "cluster") is None

    def test_only_none_lacks_a_factory(self):
        assert [
            name for name in names() if get(name).factory is None
        ] == ["none"]


class TestSimulationValidation:
    def test_scale_error_lists_policy_names(self):
        # The satellite fix: the hard-coded ("freon", "none") tuple is
        # gone; an unknown policy reports every registered scale name.
        with pytest.raises(TopologyError) as err:
            ScaleSimulation(grid_topology(4), policy="overclock")
        message = str(err.value)
        assert "unknown policy 'overclock'" in message
        for name in names("scale"):
            assert repr(name) in message

    def test_scale_accepts_every_registered_policy(self):
        topology = grid_topology(4)
        for name in names("scale"):
            sim = ScaleSimulation(topology, policy=name)
            assert sim.policy == name

    def test_cluster_validation_still_registry_backed(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="unknown policy"):
            ClusterSimulation(policy="overclock")
