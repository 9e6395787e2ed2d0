#!/usr/bin/env python3
"""Tour of the section 7 / section 4.3 extensions.

The paper's "limitations and future work" sketches four directions this
reproduction implements; this example exercises each:

1. **variable-speed fans** — a firmware-style fan controller closing the
   loop on CPU temperature;
2. **clock throttling / DVFS** — the ``local-dvfs`` policy: every CPU
   steps through P-states to manage its own temperature;
3. **chip multiprocessors** — two-level (core + package) emulation;
4. **content-aware two-stage management** — steering only CPU-bound
   requests away from a hot server before touching its whole load.

Run:  python examples/extensions_tour.py
"""

from repro.cluster.content_aware import (
    DYNAMIC,
    STATIC,
    ContentAwareBalancer,
    TwoStageFreon,
    classed_load,
)
from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.cluster.tracegen import constant_trace
from repro.config import table1
from repro.config.cmp import cmp_machine, core_name, set_core_utilizations
from repro.config.layouts import validation_machine
from repro.control import DEFAULT_PSTATES
from repro.core.fans import DEFAULT_SERVER_CURVE, FanController
from repro.core.solver import Solver


def fan_demo():
    print("1. Variable-speed fan: full CPU load, fan curve 23..50 cfm")
    solver = Solver([validation_machine()], record=False)
    solver.set_utilization("machine1", table1.CPU, 1.0)
    controller = FanController(solver, "machine1", table1.CPU)
    solver.machine("machine1").set_fan_cfm(DEFAULT_SERVER_CURVE.min_speed)
    for _ in range(4000):
        solver.step()
        controller.tick(1.0)
    print(
        f"   settled: CPU={solver.temperature('machine1', table1.CPU):.1f} C "
        f"at fan={controller.current_cfm:.1f} cfm "
        f"({len(controller.events)} speed changes)\n"
    )


def dvfs_demo():
    print("2. Local DVFS: hot inlets, each CPU manages itself")
    sim = ClusterSimulation(
        policy="local-dvfs", fiddle_script=emergency_script(time=100.0),
        trace=constant_trace(290.0, 2100.0),
    )
    result = sim.run(2000)
    frequencies = [DEFAULT_PSTATES[i][0] for i in sim.controller.pstate]
    print(
        f"   peak CPU on machine1: {result.max_temperature('machine1'):.1f} C "
        f"(red line {table1.T_RED_CPU:g} C); "
        f"{len(result.pstate_changes)} P-state transitions; "
        f"final frequencies {frequencies}\n"
    )


def cmp_demo():
    print("3. Chip multiprocessor: one busy core out of four")
    layout = cmp_machine(cores=4)
    solver = Solver([layout], record=False)
    set_core_utilizations(solver, "machine1", [1.0, 0.0, 0.0, 0.0])
    solver.run(4000)
    temps = [solver.temperature("machine1", core_name(i)) for i in range(4)]
    package = solver.temperature("machine1", "CPU Package")
    print(
        f"   cores: {[f'{t:.1f}' for t in temps]} C, "
        f"package: {package:.1f} C "
        f"(busy core runs {temps[0] - temps[1]:.1f} C above its siblings)\n"
    )


def two_stage_demo():
    print("4. Two-stage content-aware policy: m1's CPU overheats")
    balancer = ContentAwareBalancer(["m1", "m2", "m3", "m4"])
    policy = TwoStageFreon(balancer)
    offered = {DYNAMIC: 96.0, STATIC: 224.0}
    capacity = {s: 400.0 for s in balancer.servers}

    def report(tag):
        rates, _ = balancer.allocate(offered, capacity)
        load = classed_load(rates["m1"][DYNAMIC], rates["m1"][STATIC])
        print(
            f"   {tag}: m1 cpu={load.cpu_utilization:.2f} "
            f"disk={load.disk_utilization:.2f} "
            f"(dyn {rates['m1'][DYNAMIC]:.1f}/s, "
            f"stat {rates['m1'][STATIC]:.1f}/s)"
        )

    report("before")
    policy.observe("m1", 70.0, now=60.0)
    policy.observe("m1", 70.0, now=120.0)
    report("after 2 stage-1 actions")
    print(
        f"   events: {[(e.stage, e.action) for e in policy.events]}\n"
        "   CPU-heavy work drained away; static throughput untouched."
    )


def main():
    fan_demo()
    dvfs_demo()
    cmp_demo()
    two_stage_demo()


if __name__ == "__main__":
    main()
