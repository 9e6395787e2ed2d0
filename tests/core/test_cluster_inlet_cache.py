"""The hoisted cluster-inlet mixing weights and their invalidation.

The solver precomputes each machine's perfect-mixing inlet terms —
``(is_source, src, flow * fraction)`` — once, instead of re-deriving
them from the cluster graph every tick.  These tests pin the cache's
lifecycle: built lazily, reused across ticks, and invalidated by a
:meth:`Solver.set_cluster_fraction` edit (directly or through the
fiddle ``cluster fraction`` verb), which must change behaviour on the
very next tick.
"""

import pytest

from repro.config import table1
from repro.config.layouts import validation_cluster, validation_machine
from repro.core.compiled import have_numpy
from repro.core.graph import ClusterAirEdge, ClusterLayout, CoolingSource
from repro.core.solver import Solver
from repro.errors import UnknownNodeError
from repro.fiddle.tool import Fiddle


def recirculating_cluster():
    """Two Table 1 servers; 30% of m1's exhaust feeds m2's inlet."""
    machines = [validation_machine("m1"), validation_machine("m2")]
    edges = [
        ClusterAirEdge("AC", "m1", 0.5),
        ClusterAirEdge("AC", "m2", 0.5),
        ClusterAirEdge("m1", "m2", 0.3),
        ClusterAirEdge("m1", "exhaust", 0.7),
        ClusterAirEdge("m2", "exhaust", 1.0),
    ]
    return ClusterLayout(
        machines=machines,
        sources=[CoolingSource("AC", table1.INLET_TEMPERATURE)],
        edges=edges,
        sinks=["exhaust"],
    )


def _solver(cluster, engine="python"):
    solver = Solver(
        list(cluster.machines.values()), cluster=cluster,
        record=False, engine=engine,
    )
    solver.set_utilization("m1", table1.CPU, 1.0)
    return solver


def test_inlet_plan_is_built_lazily_and_reused():
    solver = _solver(recirculating_cluster())
    assert solver._inlet_plans is None
    solver.step()
    plans = solver._inlet_plans
    assert plans is not None and set(plans) == {"m1", "m2"}
    m2_plan = plans["m2"]
    # AC term plus the recirculation term from m1, in edge order.
    assert [(is_src, src) for is_src, src, _ in m2_plan] == [
        (True, "AC"), (False, "m1"),
    ]
    solver.step(5)
    assert solver._inlet_plans is plans  # same table, no recompute


def test_set_cluster_fraction_invalidates_and_changes_mixing():
    baseline = _solver(recirculating_cluster())
    edited = _solver(recirculating_cluster())
    for solver in (baseline, edited):
        solver.step(50)  # let m1 heat up and its exhaust recirculate

    edited.set_cluster_fraction("m1", "m2", 0.9)
    assert edited._inlet_plans is None  # cache dropped
    for solver in (baseline, edited):
        solver.step(20)

    plan = edited._inlet_plans["m2"]
    weights = {src: weight for _, src, weight in plan}
    base_weights = {
        src: weight for _, src, weight in baseline._inlet_plans["m2"]
    }
    assert weights["m1"] == pytest.approx(3.0 * base_weights["m1"])
    # More hot exhaust in the mix: m2 must now run a hotter inlet.
    inlet = edited.cluster.machines["m2"].inlet
    assert (
        edited.temperature("m2", inlet) > baseline.temperature("m2", inlet)
    )


def test_set_cluster_fraction_validation():
    solver = _solver(recirculating_cluster())
    with pytest.raises(UnknownNodeError):
        solver.set_cluster_fraction("m2", "m1", 0.5)  # no such edge
    with pytest.raises(ValueError):
        solver.set_cluster_fraction("m1", "m2", 1.5)
    # A solver without a cluster has no cluster edges at all.
    single = Solver([validation_machine("m1")], record=False)
    with pytest.raises(UnknownNodeError):
        single.set_cluster_fraction("AC", "m1", 0.5)


def test_fiddle_cluster_fraction_verb():
    solver = _solver(recirculating_cluster())
    solver.step(50)
    fiddle = Fiddle(solver)
    fiddle.command("fiddle cluster fraction m1 m2 0.9")
    assert solver._inlet_plans is None
    assert fiddle.log == ["cluster fraction m1|m2 0.9"]
    solver.step()
    assert solver._cluster_fractions[("m1", "m2")] == 0.9


@pytest.mark.skipif(not have_numpy(), reason="compiled engine needs numpy")
def test_cluster_fraction_edit_matches_across_engines():
    reference = _solver(recirculating_cluster(), engine="python")
    compiled = _solver(recirculating_cluster(), engine="compiled")
    for solver in (reference, compiled):
        solver.step(30)
        solver.set_cluster_fraction("m1", "m2", 0.85)
        solver.step(30)
    for machine in ("m1", "m2"):
        ref_state = reference.machine(machine)
        for node, expected in ref_state.temperatures.items():
            actual = compiled.machine(machine).temperatures[node]
            assert abs(actual - expected) <= 1e-9, (machine, node)


def test_validation_cluster_fraction_edit_starves_a_machine():
    """Cutting AC share redistributes; the edit shows up in the mix."""
    cluster = validation_cluster(["machine1", "machine2"])
    solver = Solver(
        list(cluster.machines.values()), cluster=cluster, record=False
    )
    solver.step()
    before = dict(solver._inlet_plans)
    solver.set_cluster_fraction(table1.AC, "machine1", 0.1)
    solver.step()
    after = solver._inlet_plans
    assert after is not before
    ac_weight = {
        src: w for _, src, w in after["machine1"] if src == table1.AC
    }[table1.AC]
    old_weight = {
        src: w for _, src, w in before["machine1"] if src == table1.AC
    }[table1.AC]
    assert ac_weight == pytest.approx(0.2 * old_weight)


def test_cutting_every_incoming_edge_falls_back_to_layout_inlet():
    """A machine with all incoming streams at fraction 0 gets no mixed air.

    Its inlet takes the layout inlet temperature, exactly as for a machine
    with no incoming edges, instead of dividing by a zero total weight.
    """
    solver = _solver(recirculating_cluster())
    solver.step(20)
    solver.set_cluster_fraction("AC", "m2", 0.0)
    solver.set_cluster_fraction("m1", "m2", 0.0)
    solver.step()
    assert solver._inlet_plans["m2"] == []
    layout = solver.cluster.machines["m2"]
    assert solver.temperature("m2", layout.inlet) == layout.inlet_temperature
