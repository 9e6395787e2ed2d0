"""Sweep-engine integration: topology specs, batch pooling, crash resume."""

import json

import pytest

from repro.errors import SweepError
from repro.parallel import RunSpec, execute_spec, expand_grid, sweep
from repro.parallel.batch import BatchMember, BatchRunner, partition_specs
from repro.parallel.engine import build_simulation, collect_result
from repro.topology import grid_topology

TOPOLOGY_JSON = grid_topology(6, zones=2, machines_per_rack=3).to_json()


def specs_for(grid_extra=None, **base_extra):
    grid = {
        "base": dict(
            {
                "scenario": "emergency",
                "duration": 150.0,
                "engine": "compiled",
                "topology": TOPOLOGY_JSON,
            },
            **base_extra,
        ),
        "axes": {"policy": ["none", "freon"]},
    }
    if grid_extra:
        grid.update(grid_extra)
    return expand_grid(grid)


class TestSpec:
    def test_machine_names_come_from_topology(self):
        spec = RunSpec(run_id="r", topology=TOPOLOGY_JSON)
        assert spec.machine_names() == [f"machine{i}" for i in range(1, 7)]
        assert spec.load_topology().zones.keys() == {"zone0", "zone1"}

    def test_topology_and_cluster_size_exclusive(self):
        with pytest.raises(SweepError, match="mutually exclusive"):
            RunSpec(run_id="r", topology=TOPOLOGY_JSON, cluster_size=8)

    def test_invalid_topology_fails_at_expansion(self):
        with pytest.raises(SweepError, match="invalid topology"):
            RunSpec(run_id="r", topology="{broken")

    def test_wire_format_omits_unset_topology(self):
        # Topology-free artifacts keep their historical bytes.
        assert "topology" not in RunSpec(run_id="r").to_dict()
        data = RunSpec(run_id="r", topology=TOPOLOGY_JSON).to_dict()
        assert data["topology"] == TOPOLOGY_JSON
        assert RunSpec.from_dict(data).topology == TOPOLOGY_JSON


def _dumps(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestBatchEviction:
    def test_topology_specs_are_not_evicted(self):
        """Topology runs pool beside plain cluster runs in one group.

        Each member's solver computes its own inlets (topology operator
        or cluster air graph), so the pool stacks both kinds of run as
        rows of one shared group and each still matches its solo run.
        """
        specs = specs_for()
        eligible, evicted = partition_specs(specs)
        assert eligible == specs
        assert evicted == []

        specs = specs + [RunSpec(
            run_id="plain", policy="freon", engine="compiled",
            scenario="emergency", duration=150.0,
        )]
        members = [BatchMember(s, build_simulation(s)) for s in specs]
        runner = BatchRunner(members)
        assert all(m.pooled for m in members)
        (pool_group,) = runner.pool._groups.values()
        assert {slot.simulation for slot, _, _ in pool_group.entries} == {
            m.simulation for m in members
        }
        runner.run()
        assert runner.pool.evictions == []
        for member in members:
            # A plain boolean: pytest's diff of two long JSON strings is slow.
            same = _dumps(
                collect_result(member.spec, member.simulation)
            ) == _dumps(execute_spec(member.spec))
            assert same, f"{member.spec.run_id} diverged from execute_spec"

    def test_strategies_agree_byte_for_byte(self):
        specs = specs_for()
        batch = sweep(specs, workers=1, strategy="batch")
        fork = sweep(specs, workers=1, strategy="fork")
        same = json.dumps(batch, sort_keys=True) == json.dumps(
            fork, sort_keys=True
        )
        assert same, "topology sweep: batch and fork artifacts differ"


class TestCrashResume:
    def test_resume_under_batch_strategy(self):
        # A crashing topology run inside strategy="batch": its crash
        # hook routes the spec to the fan-out path, where it crashes,
        # resumes from its checkpoint, and still reproduces the clean
        # run exactly.
        params = dict(
            scenario="emergency", duration=300.0, engine="compiled",
            topology=TOPOLOGY_JSON, checkpoint_every=60.0,
        )
        crashy = RunSpec(run_id="r", crash_at=200.0, **params)
        artifact = sweep([crashy], workers=1, strategy="batch")
        run = artifact["runs"][0]
        assert run["resumed"] is True

        golden = execute_spec(RunSpec(run_id="r", **params)).to_dict()
        assert run["records"] == golden["records"]
        assert run["summary"] == golden["summary"]
