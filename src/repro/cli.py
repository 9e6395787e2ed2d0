"""Command-line tools for the Mercury/Freon suite.

The original Mercury shipped as a set of programs (the solver, monitord,
fiddle); this module provides the equivalent entry points over the
library:

``repro solve``
    Offline mode: load machine/cluster graphs from an mdot file and a
    utilization trace from CSV, optionally apply a fiddle script, and
    write "another file containing all the usage and temperature
    information for each component in the system over time".

``repro check``
    Parse and validate an mdot file; print a summary of each machine.

``repro graphviz``
    Export a machine's heat/air graphs as graphviz dot for drawing.

``repro freon``
    Run one of the section 5 cluster experiments (freon / freon-ec /
    traditional / local-dvfs / none) and print the outcome summary.

``repro top``
    Run an experiment with telemetry enabled and render a periodically
    refreshed text dashboard of the live metrics.

``repro sweep``
    Expand a grid spec (or a built-in preset) into a set of runs, fan
    them across a worker pool, and write one deterministic merged
    artifact (JSON + Prometheus snapshot).

``repro scale``
    Simulate a datacenter-scale spatial topology (zones, racks,
    cross-machine recirculation) through the flattened one-array-per-
    tick solver; print per-zone peaks, drops, and throughput.

``repro serve``
    Run a cluster experiment as a live service: an asyncio HTTP plane
    with a streaming dashboard at ``/``, Prometheus metrics at
    ``/metrics``, a JSON API, and threshold alerting — real-time-paced
    or free-running.

``solve``, ``freon`` and ``chaos`` accept ``--telemetry PATH``: the
run's event/metric stream is written to ``PATH`` as JSONL and a
Prometheus text-format snapshot to the sibling ``.prom`` file.

Each subcommand is also importable and unit-testable as a function
taking an argv list.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .cluster.lvs import CloningConfig
from .cluster.scenarios import scenario_names
from .cluster.simulation import (
    MODES,
    POLICIES,
    ClusterSimulation,
    chaos_script,
    emergency_script,
)
from .control import names as _control_names
from .faults.injector import FaultInjector
from .core.solver import ENGINES
from .core.trace import load_traces, run_offline, save_history
from .errors import ReproError
from .fiddle.script import events_from_script
from .mdot.loader import load_file
from .mdot.writer import to_graphviz
from .parallel import (
    expand_grid,
    fig11_grid,
    scenario_grid,
    threshold_grid,
    write_artifact,
)
from .parallel import sweep as run_sweep
from .serve import AlertEngine, ThermalService, http_get, load_rules
from .telemetry import CONTENT_TYPE_LATEST, Telemetry
from .telemetry.exposition import parse_prometheus

#: ``repro freon --experiment`` presets: paper figures plus the workload
#: scenario library.  Each preset names a policy and (for scenarios)
#: the workload bundle the simulation builds its trace/mix/faults from.
EXPERIMENTS = {
    # Base Freon under the section 5 emergencies / Freon-EC regional
    # energy conservation, on the classic diurnal trace.
    "fig11": {"policy": "freon", "scenario": None},
    "fig12": {"policy": "freon-ec", "scenario": None},
    # Adversarial workload scenarios (see repro.cluster.scenarios);
    # every one also has a "<name>-chaos" fault-storm variant.
    **{
        name: {"policy": "freon", "scenario": name}
        for name in scenario_names()
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mercury & Freon: temperature emulation and management",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="offline solver: mdot + trace CSV -> history CSV"
    )
    solve.add_argument("mdot", help="mdot file describing the machines")
    solve.add_argument("trace", help="utilization trace CSV")
    solve.add_argument("output", help="output history CSV")
    solve.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds (default: trace length)",
    )
    solve.add_argument(
        "--dt", type=float, default=1.0, help="solver tick in seconds"
    )
    solve.add_argument(
        "--fiddle", default=None,
        help="fiddle script applying timed emergencies",
    )
    solve.add_argument(
        "--engine", choices=ENGINES, default="python",
        help="solver engine (compiled = vectorized NumPy fast path)",
    )
    solve.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write the run's telemetry as JSONL to PATH (+ .prom snapshot)",
    )

    check = sub.add_parser("check", help="validate an mdot file")
    check.add_argument("mdot", help="mdot file to validate")

    graphviz = sub.add_parser(
        "graphviz", help="export a machine's graphs as graphviz dot"
    )
    graphviz.add_argument("mdot", help="mdot file")
    graphviz.add_argument(
        "--machine", default=None,
        help="machine name (default: the first one)",
    )

    freon = sub.add_parser(
        "freon", help="run a section 5 cluster experiment"
    )
    freon.add_argument(
        "--policy", choices=POLICIES, default="freon",
        help="management policy",
    )
    freon.add_argument(
        "--duration", type=float, default=2000.0,
        help="simulated seconds",
    )
    freon.add_argument(
        "--no-emergency", action="store_true",
        help="skip the inlet-temperature emergencies",
    )
    freon.add_argument(
        "--engine", choices=ENGINES, default="python",
        help="solver engine (compiled = vectorized NumPy fast path)",
    )
    freon.add_argument(
        "--experiment", choices=sorted(EXPERIMENTS), default=None,
        help="preset; overrides --policy (fig11 = base Freon, fig12 = "
             "Freon-EC, others = adversarial workload scenarios; "
             "'-chaos' variants add the fault storm)",
    )
    freon.add_argument(
        "--clones", type=int, default=0, metavar="D",
        help="clone each request to D backends, first response wins "
             "(0 = classic single dispatch)",
    )
    freon.add_argument(
        "--clone-overhead", type=float, default=0.10, metavar="BETA",
        help="cancellation overhead per cloned loser, as a fraction of "
             "its attained service",
    )
    freon.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write the run's telemetry as JSONL to PATH (+ .prom snapshot)",
    )
    freon.add_argument(
        "--mode", choices=MODES, default="legacy",
        help="event scheduling mode (event = real sub-tick datagram latency)",
    )
    freon.add_argument(
        "--fast-forward", action="store_true",
        help="skip solver work while the temperature field is converged "
             "and every input is unchanged (idle fast-forward)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a Freon experiment under injected infrastructure faults",
    )
    chaos.add_argument(
        "--policy", choices=POLICIES, default="freon",
        help="management policy",
    )
    chaos.add_argument(
        "--duration", type=float, default=2000.0,
        help="simulated seconds",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection RNG seed (same seed => identical run)",
    )
    chaos.add_argument(
        "--loss", type=float, default=0.05,
        help="tempd->admd datagram loss probability",
    )
    chaos.add_argument(
        "--script", default=None,
        help="fiddle script with fault statements (default: the built-in "
             "chaos scenario: emergencies + loss + stuck sensor + tempd crash)",
    )
    chaos.add_argument(
        "--engine", choices=ENGINES, default="python",
        help="solver engine (compiled = vectorized NumPy fast path)",
    )
    chaos.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write the run's telemetry as JSONL to PATH (+ .prom snapshot)",
    )
    chaos.add_argument(
        "--mode", choices=MODES, default="legacy",
        help="event scheduling mode (event = real sub-tick datagram latency)",
    )
    chaos.add_argument(
        "--fast-forward", action="store_true",
        help="skip solver work while the temperature field is converged "
             "and every input is unchanged (idle fast-forward)",
    )

    top = sub.add_parser(
        "top",
        help="run an experiment and render a live telemetry dashboard",
    )
    top.add_argument(
        "--policy", choices=POLICIES, default="freon",
        help="management policy",
    )
    top.add_argument(
        "--duration", type=float, default=2000.0,
        help="simulated seconds",
    )
    top.add_argument(
        "--every", type=float, default=60.0,
        help="simulated seconds between dashboard frames",
    )
    top.add_argument(
        "--width", type=int, default=80, help="dashboard width in columns"
    )
    top.add_argument(
        "--plain", action="store_true",
        help="print frames sequentially instead of clearing the screen",
    )
    top.add_argument(
        "--chaos", action="store_true",
        help="use the chaos scenario (faults) instead of the emergencies",
    )
    top.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection RNG seed (with --chaos)",
    )
    top.add_argument(
        "--engine", choices=ENGINES, default="python",
        help="solver engine (compiled = vectorized NumPy fast path)",
    )
    top.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="also write the final telemetry as JSONL to PATH (+ .prom)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a grid of experiments across a worker pool",
    )
    sweep.add_argument(
        "grid", nargs="?", default=None,
        help='grid spec JSON file: {"base": {...}, "axes": {...}}',
    )
    sweep.add_argument(
        "--preset", choices=("fig11", "thresholds", "scenarios"),
        default=None,
        help="built-in grid instead of a file (fig11 = every policy "
             "under the emergencies, thresholds = the section 5.1 "
             "CPU-threshold sweep, scenarios = every workload scenario "
             "and chaos variant, cloning off/on)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = run serially in-process)",
    )
    sweep.add_argument(
        "--strategy", choices=("auto", "batch", "fork"), default="auto",
        help="execution strategy: batch = vectorize compiled runs "
             "through one stacked solver, fork = one worker per run, "
             "auto = batch when NumPy is available (all strategies "
             "produce byte-identical artifacts)",
    )
    sweep.add_argument(
        "--output", default="sweep.json", metavar="PATH",
        help="merged artifact path (+ .prom snapshot sibling)",
    )
    sweep.add_argument(
        "--duration", type=float, default=None,
        help="override every run's simulated seconds",
    )
    sweep.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="simulated seconds between worker checkpoints",
    )

    scale = sub.add_parser(
        "scale",
        help="simulate a datacenter-scale topology with the flattened "
             "solver (1k-10k machines)",
    )
    scale.add_argument(
        "--machines", type=int, default=1000,
        help="machines in the generated grid topology",
    )
    scale.add_argument(
        "--zones", type=int, default=4,
        help="cooling zones in the generated grid topology",
    )
    scale.add_argument(
        "--machines-per-rack", type=int, default=20,
        help="rack height of the generated grid topology",
    )
    scale.add_argument(
        "--duration", type=float, default=3600.0,
        help="simulated seconds (one compressed diurnal cycle)",
    )
    scale.add_argument(
        "--topology", default=None, metavar="FILE",
        help="topology JSON file instead of a generated grid",
    )
    scale.add_argument(
        "--preset", choices=("scale1k",), default=None,
        help="built-in experiment (scale1k = 1000 machines, 4 zones, "
             "one 3600s diurnal cycle)",
    )
    scale.add_argument(
        "--policy", choices=_control_names("scale"), default="freon",
        help="management policy (any scale-capable repro.control name)",
    )
    scale.add_argument(
        "--experiment",
        choices=("emergency", "chaos") + scenario_names(),
        default=None,
        help="scenario preset: the section 5 inlet emergencies, the "
             "chaos fault storm, or an adversarial workload scenario "
             "(traces, faults, and inlet events all route through the "
             "flattened stack)",
    )
    scale.add_argument(
        "--fault-seed", type=int, default=2006,
        help="fault-injection RNG seed for chaos experiments",
    )
    scale.add_argument(
        "--clones", type=int, default=0, metavar="D",
        help="request cloning degree across the room (0 = off)",
    )
    scale.add_argument(
        "--supply", type=float, default=None, metavar="CELSIUS",
        help="override every zone's cold-aisle supply temperature",
    )
    scale.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write the run's telemetry as JSONL to PATH (+ .prom snapshot)",
    )

    serve = sub.add_parser(
        "serve",
        help="run an experiment as a live HTTP service "
             "(dashboard, /metrics, alerts)",
    )
    serve.add_argument(
        "--policy", choices=POLICIES, default="freon",
        help="management policy",
    )
    serve.add_argument(
        "--duration", type=float, default=2000.0,
        help="simulated seconds",
    )
    serve.add_argument(
        "--pace", type=float, default=1.0,
        help="simulated seconds per wall second (0 = free-running)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind address",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="HTTP port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--rules", default=None, metavar="PATH",
        help="alert rule file (TOML or JSON; default: one CPU rule at "
             "the policy's T_h with 2 degrees of hysteresis)",
    )
    serve.add_argument(
        "--frame-every", type=float, default=5.0, metavar="SECONDS",
        help="simulated seconds between dashboard frames",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="use the chaos scenario (faults) instead of the emergencies",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection RNG seed (with --chaos)",
    )
    serve.add_argument(
        "--engine", choices=ENGINES, default="python",
        help="solver engine (compiled = vectorized NumPy fast path)",
    )
    serve.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep serving this many wall seconds after the run completes",
    )
    serve.add_argument(
        "--probe", action="store_true",
        help="after the run, scrape the service's own /metrics and "
             "/api endpoints and verify the round trip (CI smoke mode)",
    )
    return parser


def _make_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """An enabled facade when ``--telemetry`` was given, else ``None``."""
    return Telemetry() if getattr(args, "telemetry", None) else None


def _write_telemetry(telemetry: Optional[Telemetry],
                     args: argparse.Namespace, out) -> None:
    """Dump JSONL + Prometheus snapshot when ``--telemetry PATH`` was given."""
    if telemetry is None or not args.telemetry:
        return
    rows = telemetry.write_jsonl(args.telemetry)
    snapshot = Path(args.telemetry).with_suffix(".prom")
    telemetry.write_snapshot(snapshot)
    print(
        f"telemetry: {rows} rows -> {args.telemetry}; snapshot -> {snapshot}",
        file=out,
    )


def cmd_solve(args: argparse.Namespace, out) -> int:
    machines, cluster = load_file(args.mdot)
    if not machines:
        print("error: mdot file declares no machines", file=out)
        return 2
    traces = load_traces(args.trace)
    events = None
    if args.fiddle:
        with open(args.fiddle) as handle:
            events = events_from_script(handle.read())
    telemetry = _make_telemetry(args)
    history = run_offline(
        machines,
        traces,
        cluster=cluster,
        dt=args.dt,
        duration=args.duration,
        events=events,
        engine=args.engine,
        telemetry=telemetry,
    )
    save_history(history, args.output)
    samples = sum(len(history.samples(m)) for m in history.machines())
    print(
        f"solved {len(machines)} machine(s), {samples} samples "
        f"-> {args.output}",
        file=out,
    )
    _write_telemetry(telemetry, args, out)
    return 0


def cmd_check(args: argparse.Namespace, out) -> int:
    machines, cluster = load_file(args.mdot)
    for machine in machines:
        flows = machine.air_flow_rates()
        print(
            f"machine {machine.name!r}: {len(machine.components)} components, "
            f"{len(machine.air_regions)} air regions, "
            f"{len(machine.heat_edges)} heat edges, "
            f"{len(machine.air_edges)} air edges; "
            f"fan {machine.fan_cfm:g} cfm, inlet "
            f"{machine.inlet_temperature:g} C, exhaust flow "
            f"{flows[machine.exhaust]:.5f} m^3/s",
            file=out,
        )
    if cluster is not None:
        print(
            f"cluster: {len(cluster.machines)} machines, "
            f"{len(cluster.sources)} cooling sources, "
            f"{len(cluster.edges)} air edges",
            file=out,
        )
    print("OK", file=out)
    return 0


def cmd_graphviz(args: argparse.Namespace, out) -> int:
    machines, _ = load_file(args.mdot)
    if not machines:
        print("error: mdot file declares no machines", file=out)
        return 2
    if args.machine is None:
        target = machines[0]
    else:
        matches = [m for m in machines if m.name == args.machine]
        if not matches:
            print(f"error: no machine named {args.machine!r}", file=out)
            return 2
        target = matches[0]
    print(to_graphviz(target), file=out, end="")
    return 0


def cmd_freon(args: argparse.Namespace, out) -> int:
    policy = args.policy
    scenario = None
    if args.experiment is not None:
        preset = EXPERIMENTS[args.experiment]
        policy = preset["policy"]
        scenario = preset["scenario"]
        label = scenario or "classic trace"
        print(
            f"experiment {args.experiment}: policy {policy} ({label})",
            file=out,
        )
    if scenario is not None:
        # A scenario brings its own fault script; --no-emergency strips
        # it (empty string: not-None, so the scenario won't refill it).
        script = "" if args.no_emergency else None
    else:
        script = None if args.no_emergency else emergency_script()
    cloning = None
    if args.clones:
        cloning = CloningConfig(
            clones=args.clones, cancel_overhead=args.clone_overhead
        )
    telemetry = _make_telemetry(args)
    simulation = ClusterSimulation(
        policy=policy, fiddle_script=script, engine=args.engine,
        telemetry=telemetry, mode=args.mode,
        idle_fast_forward=args.fast_forward,
        scenario=scenario, scenario_duration=args.duration,
        cloning=cloning,
    )
    result = simulation.run(args.duration)
    print(f"policy: {policy}  engine: {args.engine}", file=out)
    if args.fast_forward and simulation.solver.coasted_ticks:
        print(
            f"fast-forward: coasted {simulation.solver.coasted_ticks} of "
            f"{len(result.records)} ticks",
            file=out,
        )
    print(
        f"dropped requests: {result.drop_fraction * 100:.2f}% of "
        f"{result.total_offered:.0f}",
        file=out,
    )
    peaks = {
        m: round(result.max_temperature(m), 1) for m in simulation.machines
    }
    print(f"peak CPU temperatures: {peaks}", file=out)
    if result.adjustments:
        print(f"adjustments: {len(result.adjustments)}", file=out)
    if result.shutdowns:
        print(
            f"shutdowns: {[(s.time, s.machine) for s in result.shutdowns]}",
            file=out,
        )
    if result.ec_events:
        print(f"reconfigurations: {len(result.ec_events)}", file=out)
    if result.pstate_changes:
        print(f"P-state changes: {len(result.pstate_changes)}", file=out)
    if scenario is not None or cloning is not None:
        print(
            f"p99 request latency: {result.p99_latency() * 1000:.1f} ms",
            file=out,
        )
    if cloning is not None:
        scales = result.clone_latency_scales
        shed = sum(1 for s in scales if s >= 1.0)
        print(
            f"cloning: d={args.clones}, shed {shed} of "
            f"{len(scales)} tick(s)",
            file=out,
        )
    _write_telemetry(telemetry, args, out)
    return 0


def cmd_chaos(args: argparse.Namespace, out) -> int:
    if args.script is not None:
        with open(args.script) as handle:
            script = handle.read()
    else:
        script = chaos_script(loss=args.loss)
    telemetry = _make_telemetry(args)
    simulation = ClusterSimulation(
        policy=args.policy,
        fiddle_script=script,
        injector=FaultInjector(seed=args.seed),
        engine=args.engine,
        telemetry=telemetry,
        mode=args.mode,
        idle_fast_forward=args.fast_forward,
    )
    result = simulation.run(args.duration)
    print(f"policy: {args.policy}  fault seed: {args.seed}", file=out)
    if args.fast_forward and simulation.solver.coasted_ticks:
        print(
            f"fast-forward: coasted {simulation.solver.coasted_ticks} of "
            f"{len(result.records)} ticks",
            file=out,
        )
    print(
        f"dropped requests: {result.drop_fraction * 100:.2f}% of "
        f"{result.total_offered:.0f}",
        file=out,
    )
    peaks = {
        m: round(result.max_temperature(m), 1) for m in simulation.machines
    }
    print(f"peak CPU temperatures: {peaks}", file=out)
    if result.datagram_stats:
        stats = result.datagram_stats
        print(
            f"datagrams: {stats['sent']} sent, {stats['delivered']} "
            f"delivered, {stats['dropped']} dropped, "
            f"{stats['duplicated']} duplicated, {stats['delayed']} delayed",
            file=out,
        )
    print(f"adjustments: {len(result.adjustments)}", file=out)
    for when, event in result.fault_log:
        print(f"  t={when:7.1f}  {event}", file=out)
    for restart in result.restarts:
        print(
            f"watchdog restarted {restart.machine}/{restart.daemon} "
            f"at t={restart.time:g}",
            file=out,
        )
    controller = simulation.controller
    stale = int(sum(getattr(controller, "stale_wakes", ())))
    conservative = int(sum(getattr(controller, "conservative_wakes", ())))
    if stale or conservative:
        print(
            f"tempd resilience: {stale} stale wake(s), "
            f"{conservative} conservative throttle(s)",
            file=out,
        )
    _write_telemetry(telemetry, args, out)
    return 0


def cmd_top(args: argparse.Namespace, out) -> int:
    if args.chaos:
        script = chaos_script()
        injector = FaultInjector(seed=args.seed)
    else:
        script = emergency_script()
        injector = None
    telemetry = Telemetry()
    simulation = ClusterSimulation(
        policy=args.policy,
        fiddle_script=script,
        injector=injector,
        engine=args.engine,
        telemetry=telemetry,
    )
    ticks = int(round(args.duration / simulation.dt))
    frame_every = max(1, int(round(args.every / simulation.dt)))
    for tick in range(ticks):
        simulation.step()
        if (tick + 1) % frame_every == 0 or tick == ticks - 1:
            if not args.plain:
                print("\x1b[2J\x1b[H", end="", file=out)
            print(telemetry.render(width=args.width), file=out)
    result = simulation.result()
    print(
        f"done: policy {args.policy}, {args.duration:g}s simulated, "
        f"dropped {result.drop_fraction * 100:.2f}% of "
        f"{result.total_offered:.0f} requests",
        file=out,
    )
    _write_telemetry(telemetry, args, out)
    return 0


def cmd_sweep(args: argparse.Namespace, out) -> int:
    if (args.grid is None) == (args.preset is None):
        print("error: pass exactly one of GRID or --preset", file=out)
        return 2
    if args.preset == "fig11":
        grid = fig11_grid()
    elif args.preset == "thresholds":
        grid = threshold_grid()
    elif args.preset == "scenarios":
        grid = scenario_grid()
    else:
        with open(args.grid) as handle:
            grid = json.load(handle)
    if args.duration is not None:
        grid.setdefault("base", {})["duration"] = args.duration
    if args.checkpoint_every is not None:
        grid.setdefault("base", {})["checkpoint_every"] = args.checkpoint_every
    specs = expand_grid(grid)
    print(
        f"sweep: {len(specs)} run(s) across {args.workers} worker(s)",
        file=out,
    )
    artifact = run_sweep(specs, workers=args.workers,
                         strategy=args.strategy)
    for run in artifact["runs"]:
        summary = run["summary"]
        resumed = "  (resumed)" if run["resumed"] else ""
        print(
            f"  {run['run_id']}: dropped "
            f"{summary['drop_fraction'] * 100:.2f}% of "
            f"{summary['total_offered']:.0f}, "
            f"{summary['adjustments']} adjustment(s){resumed}",
            file=out,
        )
    json_path, prom_path = write_artifact(artifact, args.output)
    print(f"artifact -> {json_path}; snapshot -> {prom_path}", file=out)
    return 0


async def _serve_probe(service: ThermalService, out) -> int:
    """Self-scrape for CI: verify /metrics round-trips and alerts ran."""
    host, port = service.address
    status, headers, body = await http_get(host, port, "/metrics")
    families = parse_prometheus(body.decode("utf-8"))
    content_ok = headers.get("content-type") == CONTENT_TYPE_LATEST
    print(
        f"probe: /metrics {status}, {len(families)} series, "
        f"content-type {'ok' if content_ok else headers.get('content-type')}",
        file=out,
    )
    status_api, _, body_api = await http_get(host, port, "/api/status")
    summary = json.loads(body_api)
    print(
        f"probe: /api/status {status_api}, time {summary.get('time')}, "
        f"alerts {summary.get('alerts')}",
        file=out,
    )
    ok = (
        status == 200 and content_ok and len(families) > 0
        and status_api == 200 and summary.get("done") is True
    )
    print(f"probe: {'PASS' if ok else 'FAIL'}", file=out)
    return 0 if ok else 1


async def _serve_run(service: ThermalService, args: argparse.Namespace,
                     out) -> int:
    async with service:
        host, port = service.address
        print(
            f"serving http://{host}:{port}/  "
            f"(policy {args.policy}, pace {args.pace:g}, "
            f"{args.duration:g}s simulated)",
            file=out,
        )
        print(f"  dashboard  http://{host}:{port}/", file=out)
        print(f"  metrics    http://{host}:{port}/metrics", file=out)
        print(f"  stream     http://{host}:{port}/stream", file=out)
        await service.serve(
            duration=args.duration, pace=args.pace,
            frame_every=args.frame_every,
        )
        result = service.simulation.result()
        incidents = service.alerts.incidents
        print(
            f"done: dropped {result.drop_fraction * 100:.2f}% of "
            f"{result.total_offered:.0f} requests, "
            f"{len(incidents)} alert incident(s)",
            file=out,
        )
        code = 0
        if args.probe:
            code = await _serve_probe(service, out)
        if args.linger > 0.0:
            print(f"lingering {args.linger:g}s (ctrl-c to stop)", file=out)
            await asyncio.sleep(args.linger)
        return code


def cmd_scale(args: argparse.Namespace, out) -> int:
    import time

    from .topology import ScaleSimulation, grid_topology, load_topology

    if args.preset == "scale1k":
        args.machines, args.zones, args.duration = 1000, 4, 3600.0
    if args.topology is not None:
        topology = load_topology(args.topology)
    else:
        topology = grid_topology(
            args.machines, zones=args.zones,
            machines_per_rack=args.machines_per_rack,
            zone_supplies=(
                {f"zone{i}": args.supply for i in range(args.zones)}
                if args.supply is not None else None
            ),
        )
    telemetry = _make_telemetry(args)
    cloning = CloningConfig(clones=args.clones) if args.clones else None
    scenario = None
    injector = None
    inlet_events = None
    if args.experiment == "emergency":
        script = emergency_script()
    elif args.experiment == "chaos":
        script = chaos_script()
    else:
        script = None
        if args.experiment is not None:
            from .cluster.scenarios import build_scenario

            scenario = build_scenario(
                args.experiment, duration=args.duration,
                servers=len(topology.machines),
            )
    if script is not None:
        from .faults import FaultSchedule
        from .topology import inlet_events_from_script

        inlet_events = inlet_events_from_script(script)
        schedule = FaultSchedule.from_script(script)
        if len(schedule):
            injector = FaultInjector(schedule, seed=args.fault_seed)
    simulation = ScaleSimulation(
        topology, duration=args.duration, policy=args.policy,
        cloning=cloning, telemetry=telemetry, scenario=scenario,
        injector=injector, inlet_events=inlet_events,
        fault_seed=args.fault_seed,
    )
    start = time.perf_counter()
    summary = simulation.run()
    elapsed = time.perf_counter() - start
    ticks_per_sec = summary["ticks"] / elapsed if elapsed > 0 else 0.0
    print(
        f"scale: {summary['machines']} machines in {summary['zones']} "
        f"zone(s), {summary['ticks']} ticks in {elapsed:.2f}s wall "
        f"({ticks_per_sec:,.0f} ticks/s)",
        file=out,
    )
    print(
        f"  dropped {summary['drop_fraction'] * 100:.2f}% of "
        f"{summary['offered_requests']:.0f} requests, "
        f"{summary['throttle_events']} throttle event(s), "
        f"{summary['throttled_machines']} machine(s) still throttled",
        file=out,
    )
    line = f"  policy {summary['policy']}: {summary['active_machines']} machine(s) active"
    if args.experiment is not None:
        line += f", experiment {args.experiment}"
    if "faults_logged" in summary:
        line += f", {summary['faults_logged']} fault(s) injected"
    print(line, file=out)
    if cloning is not None:
        print(
            f"  cloning d={args.clones}: {summary['clone_ticks']} cloned "
            f"tick(s), {summary['shed_ticks']} shed tick(s)",
            file=out,
        )
    for zone in sorted(summary["zone_cpu_max"]):
        print(
            f"  {zone}: CPU max {summary['zone_cpu_max'][zone]:.2f}C, "
            f"mean {summary['zone_cpu_mean'][zone]:.2f}C",
            file=out,
        )
    _write_telemetry(telemetry, args, out)
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    if args.chaos:
        script = chaos_script()
        injector = FaultInjector(seed=args.seed)
    else:
        script = emergency_script()
        injector = None
    simulation = ClusterSimulation(
        policy=args.policy,
        fiddle_script=script,
        injector=injector,
        engine=args.engine,
        telemetry=Telemetry(),
    )
    alerts = None
    if args.rules is not None:
        alerts = AlertEngine(
            load_rules(args.rules), telemetry=simulation.telemetry
        )
    service = ThermalService(
        simulation, alerts=alerts, host=args.host, port=args.port,
    )
    try:
        return asyncio.run(_serve_run(service, args, out))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=out)
        return 130


_COMMANDS = {
    "solve": cmd_solve,
    "check": cmd_check,
    "graphviz": cmd_graphviz,
    "freon": cmd_freon,
    "chaos": cmd_chaos,
    "top": cmd_top,
    "sweep": cmd_sweep,
    "scale": cmd_scale,
    "serve": cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    if out is None:
        out = sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
