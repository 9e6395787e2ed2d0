"""Mid-run air-path edits to a pooled member stay bit-exact.

A pooled member's inlets come from its own solver's inter-machine
traversal, so an edit that invalidates the solver's cached mixing plan
(a cluster fraction) or its recirculation operator (a zone supply or a
recirculation weight) must reach the pool's stacked solve on the very
next tick.  Each case edits one member of a two-member pool at a fixed
tick and compares it byte for byte with a solo compiled-engine run
given the same edit at the same tick; the untouched neighbor must still
match ``execute_spec``.
"""

import json

import pytest

from repro.parallel import RunSpec, execute_spec
from repro.parallel.batch import BatchMember, BatchRunner
from repro.parallel.engine import build_simulation, collect_result
from repro.topology import grid_topology

TOPOLOGY_JSON = grid_topology(6, zones=2, machines_per_rack=3).to_json()

#: The edit lands at this tick; the runs go on for as long again.
EDIT_TICK, DURATION = 60, 150.0


def _spec(run_id: str, **overrides) -> RunSpec:
    params = {
        "run_id": run_id, "policy": "freon", "engine": "compiled",
        "scenario": "none", "duration": DURATION,
    }
    params.update(overrides)
    return RunSpec(**params)


def _cut_ac_to_machine2(solver) -> None:
    # Warm the AC so the cut is visible: machine2 loses its only
    # incoming stream and falls back to its layout inlet temperature,
    # while its neighbors mix the warmer supply.
    solver.set_source_temperature("AC", 30.0)
    solver.set_cluster_fraction("AC", "machine2", 0.0)


EDITS = {
    "cluster-fraction": ({}, _cut_ac_to_machine2),
    "zone-supply": (
        {"topology": TOPOLOGY_JSON},
        lambda solver: solver.set_zone_supply("zone0", 30.0),
    ),
    "recirculation": (
        {"topology": TOPOLOGY_JSON},
        lambda solver: solver.set_recirculation("machine1", "machine2", 0.5),
    ),
}


def _dumps(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("case", sorted(EDITS))
def test_pooled_edit_matches_solo_edit(case):
    extra, edit = EDITS[case]
    edited = _spec(f"{case}-edited", **extra)
    neighbor = _spec(f"{case}-neighbor", **extra)
    members = [BatchMember(s, build_simulation(s)) for s in (edited, neighbor)]
    runner = BatchRunner(members)
    assert all(m.pooled for m in members)

    assert runner.run_ticks(EDIT_TICK) == EDIT_TICK
    edit(members[0].simulation.solver)
    runner.run()
    assert runner.pool.evictions == []

    solo = build_simulation(edited)
    for _ in range(EDIT_TICK):
        solo.step()
    edit(solo.solver)
    while solo.time < edited.duration - 1e-9:
        solo.step()

    # Plain booleans: pytest's diff of two long JSON strings is slow.
    got = _dumps(collect_result(edited, members[0].simulation))
    same_as_solo = got == _dumps(collect_result(edited, solo))
    assert same_as_solo, f"{case}: pooled edit diverged from the solo edit"
    # The edit must have changed the run, or the comparison shows nothing.
    changed = got != _dumps(execute_spec(edited))
    assert changed, f"{case}: the edit left the run unchanged"
    neighbor_same = _dumps(
        collect_result(neighbor, members[1].simulation)
    ) == _dumps(execute_spec(neighbor))
    assert neighbor_same, f"{case}: the unedited neighbor diverged"
