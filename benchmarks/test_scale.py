"""Datacenter-scale solve: the flattened array vs the per-machine loop.

The spatial-topology subsystem (``repro.topology``) exists so 1k-10k
machine rooms stay simulable.  Its claim is concrete: the per-machine
reference solver pays Python dict and object costs per machine per
tick, while :class:`~repro.topology.sim.FlatSolver` advances the whole
room as one machines×nodes array with a single vectorized
``tick_group`` call and a sparse recirculation matvec.

This benchmark gates on:

* **Equivalence** — the flattened solve agrees with the per-machine
  python-engine solver within 1e-9 Celsius on a small room (80
  machines, 40 ticks);
* **Throughput** — at 1000 machines the flattened solve is at least
  ``MIN_FLAT_SPEEDUP`` times faster per tick than the per-machine loop;
* **Scale** — 10k machines actually run (ticks/sec and memory are
  recorded, not assumed);
* **No control-plane cliff** — at 10k machines Freon-EC, whose first
  wake powers off thousands of servers, keeps at least
  ``MIN_EC_OVER_FREON`` of Freon's ticks/sec over the same room and
  horizon.

Timing methodology matches ``test_sweep_scaling``: CPU time with the
garbage collector parked, a warmup pass, paired trials, and the minimum
across trials as the estimator, with bounded retries when interference
pushes the ratio under the gate.

Writes ``benchmark_results/BENCH_scale.json`` (ticks/sec at 1k and 10k
machines, Freon and Freon-EC ticks/sec at 10k, plus the process's peak
RSS) for the CI artifact.
"""

import gc
import time

from repro.cluster.simulation import emergency_script
from repro.config import table1
from repro.config.layouts import validation_machine
from repro.core.solver import Solver
from repro.topology import (
    FlatSolver,
    ScaleSimulation,
    grid_topology,
    inlet_events_from_script,
)

from .conftest import emit, write_bench

#: Room sizes: the speedup gate runs at SMALL, the scale record at BIG.
SMALL = 1000
BIG = 10_000

#: Solver ticks per timed trial at each size.  The per-machine baseline
#: at 1k machines costs ~100 ms/tick, so the trial stays short.
SMALL_TICKS = 10
BIG_TICKS = 25

#: Paired timing trials and bounded retries (min-over-trials estimator).
TRIALS = 3
MAX_EXTRA_TRIALS = 5

#: Required min-over-trials per-tick speedup of the flattened solve over
#: the per-machine python-engine loop at 1000 machines.
MIN_FLAT_SPEEDUP = 10.0

#: Ticks of the 10k-machine policy comparison: Freon-EC's first wake
#: (its big shrink) and 29 monitor periods after it.
POLICY_TICKS = 120

#: Required Freon-EC / Freon ticks/sec ratio at 10k machines (best of
#: POLICY_TRIALS rooms each).
MIN_EC_OVER_FREON = 0.5
POLICY_TRIALS = 2

#: Equivalence room: big enough to exercise zones and both edge kinds.
EQUIV_MACHINES = 80
EQUIV_TICKS = 40
EQUIV_TOLERANCE = 1e-9


#: What this module's tests have measured, written as one artifact.
_RECORD = {}


def _record(values):
    _RECORD.update(values)
    write_bench("BENCH_scale.json", _RECORD)


def _timed(fn):
    """CPU seconds for one call, garbage collector parked."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        result = fn()
        return time.process_time() - start, result
    finally:
        gc.enable()


def _flat_solver(machines: int) -> FlatSolver:
    topology = grid_topology(machines, zones=4)
    flat = FlatSolver(topology)
    flat.set_utilization(table1.CPU, 0.6)
    flat.set_utilization(table1.DISK_PLATTERS, 0.3)
    return flat


def _reference_solver(machines: int) -> Solver:
    topology = grid_topology(machines, zones=4)
    layouts = [validation_machine(name) for name in topology.machines]
    solver = Solver(layouts, topology=topology, record=False)
    for name in topology.machines:
        state = solver.machines[name]
        state.set_utilization(table1.CPU, 0.6)
        state.set_utilization(table1.DISK_PLATTERS, 0.3)
    return solver


def test_flat_solver_matches_reference():
    """The flattened room and the per-machine solver tell one story."""
    topology = grid_topology(EQUIV_MACHINES, zones=4)
    flat = _flat_solver(EQUIV_MACHINES)
    reference = _reference_solver(EQUIV_MACHINES)
    flat.step(EQUIV_TICKS)
    for _ in range(EQUIV_TICKS):
        reference.step()
    worst = 0.0
    for row, name in enumerate(topology.machines):
        state = reference.machines[name]
        for node in flat.plan.node_names:
            delta = abs(
                state.temperatures[node]
                - float(flat.group.T[row, flat.plan.node_index[node]])
            )
            worst = max(worst, delta)
    assert worst <= EQUIV_TOLERANCE, (
        f"flattened solve diverged from the per-machine reference by "
        f"{worst:.3e} C"
    )


def test_scale_speedup_gate():
    # Warmup: plan compilation, numpy one-time setup, allocation paths.
    _flat_solver(SMALL).step(2)
    warm_ref = _reference_solver(100)
    warm_ref.step()

    flat_times, loop_times = [], []

    def _trial():
        flat = _flat_solver(SMALL)
        elapsed, _ = _timed(lambda: flat.step(SMALL_TICKS))
        flat_times.append(elapsed / SMALL_TICKS)
        reference = _reference_solver(SMALL)

        def _run_loop():
            for _ in range(SMALL_TICKS):
                reference.step()

        elapsed, _ = _timed(_run_loop)
        loop_times.append(elapsed / SMALL_TICKS)

    for _ in range(TRIALS):
        _trial()
    while (
        min(loop_times) / min(flat_times) < MIN_FLAT_SPEEDUP
        and len(flat_times) < TRIALS + MAX_EXTRA_TRIALS
    ):
        _trial()

    flat_tick = min(flat_times)
    loop_tick = min(loop_times)
    speedup = loop_tick / flat_tick

    # The 10k-machine record: one construction, one timed burst.
    big = _flat_solver(BIG)
    big.step(2)  # flows compiled outside the timed region
    big_elapsed, _ = _timed(lambda: big.step(BIG_TICKS))
    big_tick = big_elapsed / BIG_TICKS

    results = {
        "machines_small": SMALL,
        "machines_big": BIG,
        "flat_ticks_per_sec_1k": 1.0 / flat_tick,
        "loop_ticks_per_sec_1k": 1.0 / loop_tick,
        "flat_ticks_per_sec_10k": 1.0 / big_tick,
        "flat_speedup_1k": speedup,
        "min_flat_speedup": MIN_FLAT_SPEEDUP,
        "trials": len(flat_times),
    }
    _record(results)

    emit(
        "scale_throughput",
        "Datacenter-scale solve — flattened array vs per-machine loop\n"
        f"{'machines':>10} {'flat ticks/s':>14} {'loop ticks/s':>14} "
        f"{'speedup':>9}\n"
        f"{SMALL:>10} {1.0 / flat_tick:>14.1f} {1.0 / loop_tick:>14.1f} "
        f"{speedup:>8.1f}x\n"
        f"{BIG:>10} {1.0 / big_tick:>14.1f} {'-':>14} {'-':>9}\n",
    )

    assert speedup >= MIN_FLAT_SPEEDUP, (
        f"flattened solve only {speedup:.1f}x over the per-machine loop "
        f"at {SMALL} machines (gate: {MIN_FLAT_SPEEDUP:.0f}x)"
    )


def _policy_room(policy: str) -> ScaleSimulation:
    return ScaleSimulation(
        grid_topology(BIG, zones=4),
        duration=3600.0,
        policy=policy,
        phase_seed=1,
        inlet_events=inlet_events_from_script(emergency_script()),
    )


def test_freon_ec_keeps_pace_with_freon_at_10k():
    """No control-plane cliff: Freon-EC's shrink is one sort, not a
    rescan of the room per powered-off server."""
    best = {"freon": 0.0, "freon-ec": 0.0}
    for _ in range(POLICY_TRIALS):
        for policy in best:
            room = _policy_room(policy)
            elapsed, _ = _timed(lambda: room.step(POLICY_TICKS))
            best[policy] = max(best[policy], POLICY_TICKS / elapsed)
            del room
    ratio = best["freon-ec"] / best["freon"]
    _record({
        "freon_ticks_per_sec_10k": best["freon"],
        "freon_ec_ticks_per_sec_10k": best["freon-ec"],
        "freon_ec_over_freon_10k": ratio,
        "min_ec_over_freon": MIN_EC_OVER_FREON,
    })
    emit(
        "scale_policies",
        f"Policies at {BIG} machines, {POLICY_TICKS} ticks (best of "
        f"{POLICY_TRIALS})\n"
        f"{'policy':>10} {'ticks/s':>10}\n"
        f"{'freon':>10} {best['freon']:>10.1f}\n"
        f"{'freon-ec':>10} {best['freon-ec']:>10.1f}\n"
        f"Freon-EC / Freon: {ratio:.2f}\n",
    )
    assert ratio >= MIN_EC_OVER_FREON, (
        f"Freon-EC runs at {ratio:.2f}x Freon's ticks/s at {BIG} machines "
        f"(gate: {MIN_EC_OVER_FREON}x)"
    )
