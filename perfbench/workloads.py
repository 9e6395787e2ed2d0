"""The four benchmark workloads and their output checks.

Each workload builds its inputs from the workload seed in
:meth:`~Workload.setup`, runs one *round* of episodes in
:meth:`~Workload.run_round` (only the stepping is timed; construction
is not), and validates a round's outputs in :meth:`~Workload.check`
against references that do not come from the timed code path.

Inputs that stay fixed whatever the seed: the diurnal request trace of
the cluster workloads (its own seed, 2006, which the golden traces
pin), the section 5 emergency (machine1 inlet 38.6 C and machine3 inlet
35.6 C at t = 480 s), the topology, and the thresholds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.cluster.simulation import (
    ClusterSimulation,
    chaos_script,
    emergency_script,
)
from repro.config import table1
from repro.control import POWER_OFF
from repro.control.view import FlatStateView
from repro.control.parity import compare_stacks
from repro.parallel import engine as sweep_engine
from repro.parallel.batch import BatchPool
from repro.parallel.spec import expand_grid, fig11_grid
from repro.serve.service import FRAME_EVERY, ThermalService
from repro.telemetry import Telemetry, exposition
from repro.topology import ScaleSimulation, grid_topology, inlet_events_from_script

from calibrate import Stopwatch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Largest temperature deviation (C) an output check accepts.
TOLERANCE = 1e-9

#: Policies that, as in the paper's section 5, ride out the emergency
#: without dropping a request when no fault is injected.
DROP_FREE = ("freon", "freon-ec")


@dataclass
class Round:
    """One timed round: what ran, how long it took, what it produced."""

    ticks: int
    #: Timed (start, end) perf_counter windows; construction is outside.
    windows: List[Tuple[float, float]]
    #: Per-episode simulated outcome; equal inputs must give equal dicts.
    #: Each has "episode" (its name), "offered", "dropped" and
    #: "drop_free" (no request may be dropped).
    episodes: List[dict]
    #: Counts the program itself reports (no tracing needed).
    counts: Dict[str, float]
    #: Whatever the workload's check needs from the round.
    keep: object = None

    @property
    def wall(self) -> float:
        return sum(end - start for start, end in self.windows)


@dataclass
class Check:
    """Outcome of a workload's output checks on one round."""

    #: Names of the episodes that failed a check.
    failed: Set[str]
    ref_dev_c: float
    notes: List[str] = field(default_factory=list)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def _laps_after(owner, attr: str, watch: Stopwatch):
    """Let ``watch`` sample the host after each call to ``owner.attr``,
    so a call that runs the whole round in one go is still sampled
    inside it.  No-op without a calibrator."""
    if watch.calibrator is None:
        yield
        return
    original = owner.__dict__[attr]

    def lapped(*args, **kwargs):
        result = original(*args, **kwargs)
        watch.lap()
        return result

    setattr(owner, attr, lapped)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _simulated_lines(text: str) -> List[str]:
    """Exposition lines minus the host-timing families, whose values
    (wall-clock histograms) differ from run to run."""
    return [
        line for line in text.splitlines()
        if line and not any(m in line for m in sweep_engine.HOST_METRICS)
    ]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    #: How often the set-up is repeated for the setup_s median.
    setup_repeats = 3
    #: How strongly this workload's time follows the calibration
    #: kernel's as the host drifts (see calibrate.Calibrator).
    host_sensitivity = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer=None):
        raise NotImplementedError

    def run_round(self, prepared, calibrator=None) -> Round:
        """One round; with a calibrator, the host is sampled between
        its timed windows."""
        raise NotImplementedError

    def check(self, first: Round) -> Check:
        raise NotImplementedError


# -- cluster-fig11 ---------------------------------------------------------


class ClusterFig11(Workload):
    """Fig 11/12 on the 4-server cluster, hosted by ThermalService."""

    name = "cluster-fig11"
    setup_repeats = 5
    EPISODES = (
        ("freon", "emergency"),
        ("freon", "chaos"),
        ("freon-ec", "emergency"),
        ("freon-ec", "chaos"),
    )
    GOLDEN = {"freon": "fig11_first120s.json", "freon-ec": "fig12_first120s.json"}
    #: Simulated seconds between in-process /metrics renders.
    RENDER_EVERY = 15.0

    def setup(self, tracer=None):
        services = []
        with _span(tracer, "cluster.construct"):
            for policy, script in self.EPISODES:
                simulation = ClusterSimulation(
                    policy=policy,
                    fiddle_script=(
                        emergency_script() if script == "emergency"
                        else chaos_script()
                    ),
                    engine="python",
                    telemetry=Telemetry(),
                    fault_seed=self.seed,
                )
                services.append(ThermalService(simulation))
        return services

    def run_round(self, services, calibrator=None) -> Round:
        watch = Stopwatch(calibrator)
        episodes = []
        ticks = 0
        counts = {"datagrams_sent": 0, "datagrams_delivered": 0,
                  "kernel_dispatched": 0, "telemetry_series": 0,
                  "telemetry_bytes": 0}
        keep = {}
        for (policy, script), service in zip(self.EPISODES, services):
            simulation = service.simulation
            steps = int(round(simulation.trace.duration / simulation.dt))
            chunk = max(1, int(round(FRAME_EVERY / simulation.dt)))
            render_ticks = int(round(self.RENDER_EVERY / simulation.dt))
            registry = service.telemetry.registry
            texts, done, since = [], 0, 0
            watch.start()
            while done < steps:
                k = min(chunk, steps - done)
                service.advance(k)
                done += k
                since += k
                if since >= render_ticks:
                    texts.append(exposition.to_prometheus(registry))
                    since -= render_ticks
                watch.lap()
            watch.stop()
            ticks += steps
            result = simulation.result()
            records = result.records
            cpu = np.array([
                [s.cpu_temperature for s in r.servers.values()]
                for r in records
            ])
            powered = sum(
                1 for r in records for s in r.servers.values()
                if s.state != "off"
            )
            stats = result.datagram_stats
            episodes.append({
                "episode": f"{policy}/{script}",
                "offered": result.total_offered,
                "dropped": result.total_dropped,
                "drop_free": policy in DROP_FREE and script == "emergency",
                "peak_cpu_c": float(cpu.max()),
                "powered_machine_s": powered * simulation.dt,
                "adjustments": len(result.adjustments),
                "ec_events": len(result.ec_events),
                "shutdowns": len(result.shutdowns),
                "restarts": len(result.restarts),
                "faults": len(result.fault_log),
                "datagrams": dict(stats),
                "cpu_digest": _digest(cpu),
            })
            counts["datagrams_sent"] += stats.get("sent", 0)
            counts["datagrams_delivered"] += stats.get("delivered", 0)
            counts["kernel_dispatched"] += simulation.kernel.dispatched
            simulated = [_simulated_lines(text) for text in texts]
            counts["telemetry_series"] += sum(
                1 for line in simulated[-1] if not line.startswith("#")
            )
            counts["telemetry_bytes"] += sum(
                len(line) + 1 for lines in simulated for line in lines
            )
            if script == "emergency":
                keep[policy] = (result.times(), {
                    m: result.series(m, "cpu_temperature")
                    for m in simulation.machines
                })
        return Round(ticks, watch.windows, episodes, counts, keep)

    def check(self, first: Round) -> Check:
        """The emergency episodes' first 120 s against the golden traces."""
        worst, failed, notes = 0.0, set(), []
        for policy, filename in self.GOLDEN.items():
            golden = json.loads((GOLDEN_DIR / filename).read_text())
            times, series = first.keep[policy]
            n = len(golden["times"])
            ok = times[:n] == golden["times"] and sorted(series) == sorted(
                golden["series"]
            )
            dev = 0.0
            if ok:
                for machine, expected in golden["series"].items():
                    actual = np.array(series[machine][:n])
                    dev = max(dev, float(
                        np.abs(actual - np.array(expected)).max()
                    ))
            worst = max(worst, dev)
            if not ok or dev > TOLERANCE:
                failed.add(f"{policy}/emergency")
                notes.append(
                    f"{policy}/emergency deviates from {filename} by {dev:.3e} C"
                    if ok else f"{policy}/emergency: times or machines "
                    f"differ from {filename}"
                )
        return Check(failed, worst, notes)


# -- scale-freon-10k / scale-ec-10k ----------------------------------------


class ScaleRoom(Workload):
    """A 10k-machine, 4-zone room under one scale policy."""

    policy = ""
    MACHINES = 10_000
    ZONES = 4
    DAY = 3600.0
    #: Simulated seconds stepped per round: the first 12 minutes of the
    #: day, so the t = 480 s emergency and 240 s of response are inside.
    HORIZON = 720.0

    def _events(self):
        return inlet_events_from_script(emergency_script())

    def setup(self, tracer=None):
        with _span(tracer, "topology.construct"):
            topology = grid_topology(self.MACHINES, zones=self.ZONES)
            return ScaleSimulation(
                topology,
                duration=self.DAY,
                policy=self.policy,
                phase_seed=self.seed,
                inlet_events=self._events(),
            )

    def run_round(self, simulation, calibrator=None) -> Round:
        ticks = int(round(self.HORIZON / simulation.dt))
        solver = simulation.solver
        cpu_node = table1.CPU
        peak = float("-inf")
        powered = 0
        watch = Stopwatch(calibrator)
        # Freon-EC's first wake is one ~30 s step; its thousands of
        # power switches let the host be sampled inside it.
        with _laps_after(FlatStateView, "set_power", watch):
            for _ in range(ticks):
                watch.start()
                simulation.step(1)
                watch.stop()
                hottest = solver.node_column(cpu_node).max()
                if hottest > peak:
                    peak = float(hottest)
                powered += int(np.count_nonzero(simulation.power != POWER_OFF))
        summary = simulation.summary()
        controller = simulation.controller
        episode = {
            "episode": f"{self.policy}/{self.MACHINES}",
            "offered": summary["offered_requests"],
            "dropped": summary["dropped_requests"],
            "drop_free": self.policy in DROP_FREE,
            "peak_cpu_c": peak,
            "powered_machine_s": powered * simulation.dt,
            "throttle_events": summary["throttle_events"],
            "active_machines": summary["active_machines"],
            "adjustments": len(getattr(controller, "adjustments", ())),
            "ec_events": len(getattr(controller, "events", ())),
            "state_digest": _digest(solver.group.T, simulation.weights),
        }
        return Round(ticks, watch.windows, [episode], {})

    def check(self, first: Round) -> Check:
        """The same policy on a small single-zone room, flat vs scalar."""
        report = compare_stacks(
            self.policy, phase_seed=self.seed, inlet_events=self._events()
        )
        dev = float(report["max_temp_delta"])
        notes = []
        if not report["decisions_match"]:
            notes.append(f"{self.policy}: flat and scalar decisions differ")
        if dev > TOLERANCE:
            notes.append(f"{self.policy}: flat vs scalar deviate by {dev:.3e} C")
        failed = {ep["episode"] for ep in first.episodes} if notes else set()
        return Check(failed, dev, notes)


class ScaleFreon10k(ScaleRoom):
    name = "scale-freon-10k"
    policy = "freon"
    #: Its long NumPy passes slow less than the kernel does: 0.62
    #: across runs at host slowdowns from 0.84 to 1.81.
    host_sensitivity = 0.6


class ScaleEC10k(ScaleRoom):
    name = "scale-ec-10k"
    policy = "freon-ec"


# -- sweep-fig11 -----------------------------------------------------------


class SweepFig11(Workload):
    """The 16-run Fig 11 grid through the batch sweep strategy."""

    name = "sweep-fig11"
    setup_repeats = 5
    POLICIES = ("none", "traditional", "freon", "freon-ec")
    DURATION = 2000.0
    SEEDS = 4
    #: Policies whose first-seed runs are re-run on the fork path.
    CHECK_POLICIES = ("traditional", "freon-ec")

    def setup(self, tracer=None):
        grid = fig11_grid(
            duration=self.DURATION, seeds=self.SEEDS, engine="compiled",
            policies=self.POLICIES,
        )
        grid["axes"]["seed"] = [self.seed + s for s in grid["axes"]["seed"]]
        return expand_grid(grid)

    def run_round(self, specs, calibrator=None) -> Round:
        watch = Stopwatch(calibrator)
        with _laps_after(BatchPool, "flush", watch):  # once per tick
            watch.start()
            artifact = sweep_engine.sweep(specs, workers=1, strategy="batch")
            watch.stop()
        episodes = []
        ticks = 0
        for run in artifact["runs"]:
            records = run["records"]
            ticks += len(records)
            cpu = np.array([
                [s["cpu_temperature"] for s in r["servers"].values()]
                for r in records
            ])
            powered = sum(
                1 for r in records for s in r["servers"].values()
                if s["state"] != "off"
            )
            summary = run["summary"]
            episodes.append({
                "episode": run["run_id"],
                "offered": summary["total_offered"],
                "dropped": summary["total_dropped"],
                "drop_free": run["spec"]["policy"] in DROP_FREE,
                "peak_cpu_c": float(cpu.max()),
                "powered_machine_s": powered * self.DURATION / len(records),
                "summary": json.dumps(summary, sort_keys=True),
                "cpu_digest": _digest(cpu),
            })
        return Round(ticks, watch.windows, episodes, {}, artifact)

    def check(self, first: Round) -> Check:
        """A subset re-run on the fork path must be byte-identical."""
        subset = [
            spec for spec in self.setup()
            if spec.seed == self.seed and spec.policy in self.CHECK_POLICIES
        ]
        fork = sweep_engine.sweep(subset, workers=1, strategy="fork")
        batch_runs = {run["run_id"]: run for run in first.keep["runs"]}
        worst, failed, notes = 0.0, set(), []
        for run in fork["runs"]:
            mine = batch_runs[run["run_id"]]
            if json.dumps(mine, sort_keys=True) == json.dumps(run, sort_keys=True):
                continue
            failed.add(run["run_id"])
            dev = _record_deviation(mine["records"], run["records"])
            worst = max(worst, dev)
            notes.append(
                f"{run['run_id']}: batch differs from fork (max {dev:.3e} C)"
            )
        return Check(failed, worst, notes)


def _record_deviation(a: Sequence[dict], b: Sequence[dict]) -> float:
    """Largest temperature gap between two runs' records (inf on shape)."""
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for ra, rb in zip(a, b):
        for name, sa in ra["servers"].items():
            sb = rb["servers"].get(name)
            if sb is None:
                return float("inf")
            for key in ("cpu_temperature", "disk_temperature"):
                worst = max(worst, abs(sa[key] - sb[key]))
    return worst


WORKLOADS = {
    w.name: w for w in (ClusterFig11, ScaleFreon10k, ScaleEC10k, SweepFig11)
}
