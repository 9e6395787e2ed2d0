"""Repository benchmark: the paper's section 5 experiments, timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster-fig11 --seed 1 \\
        --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in
its own process, and ends with one JSON line holding all four results.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: it
runs whole rounds of the workload's episodes until ``--seconds`` of
timed stepping have passed (at least one round).  ``--trace 1`` runs one
untraced round and then one round with every layer of
:data:`tracer.LAYERS` wrapped, checks that both rounds produced
bit-identical simulated outcomes and counts, and reports the per-layer
table.  Either way the workload's output checks run afterwards, outside
the timed region.

The metric names and units come from ``BENCHMARK.json`` at the
repository root.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it stamps the host.  The exit code is 1 when an output
check failed and 2 when the program under test cannot be found.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, before NumPy is imported anywhere: on a small shared
# host a multi-threaded 10k x 14 matmul is an order of magnitude slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (metric, unit) printed beside the end-to-end metrics.  They are 0
#: when all is well, so they gate the run (``failed``/``correct``)
#: instead of being compared against a parent's median.
QUALITY = (
    ("ref_dev_c", "degC"),
    ("failed_frac", "1"),
)

#: Where each per-layer metric of the traced run comes from:
#: (source, key).  Sources: "self" = summed self time of a tracer
#: layer, "calls" = its call count, "outer" = calls not nested in the
#: same layer, "count" = a tracer counter, "program" = a count the
#: program itself reports, "harness" = the tracer's own health.
PER_LAYER = {
    "compiled.tick_group_s": ("self", "compiled.tick_group"),
    "tracegen.offered_s": ("self", "tracegen.offered"),
    "topology.recirc_s": ("self", "topology.recirc"),
    "lvs.allocate_s": ("self", "lvs.allocate"),
    "topology.step_self_s": ("self", "topology.step"),
    "control.evaluate_s": ("self", "control.evaluate"),
    "control.wake_self_s": ("self", "control.wake"),
    "control.sample_s": ("self", "control.sample"),
    "control.wakes": ("outer", "control.wake"),
    "control.set_power_calls": ("count", "control.set_power_calls"),
    "control.set_weight_calls": ("count", "control.set_weight_calls"),
    "control.set_cap_calls": ("count", "control.set_cap_calls"),
    "core.solve_s": ("self", "core.solve"),
    "core.feed_s": ("self", "core.feed"),
    "kernel.dispatch_self_s": ("self", "kernel.dispatch"),
    "kernel.events": ("calls", "kernel.dispatch"),
    "webserver.step_s": ("self", "webserver.step"),
    "daemons.tempd_wake_s": ("self", "daemons.tempd_wake"),
    "freon.admd_s": ("self", "freon.admd"),
    "daemons.flush_s": ("self", "daemons.flush"),
    "daemons.datagrams_sent": ("program", "datagrams_sent"),
    "daemons.delivered_ratio": ("program", "delivered_ratio"),
    "faults.advance_s": ("self", "faults.advance"),
    "serve.alerts_s": ("self", "serve.alerts"),
    "serve.advance_self_s": ("self", "serve.advance"),
    "telemetry.render_s": ("self", "telemetry.render"),
    "telemetry.series": ("program", "telemetry_series"),
    "telemetry.bytes": ("program", "telemetry_bytes"),
    "batch.flush_self_s": ("self", "batch.flush"),
    "batch.pooled_runs": ("count", "batch.pooled_runs"),
    "batch.evictions": ("count", "batch.evictions"),
    "parallel.build_s": ("self", "parallel.build"),
    "parallel.collect_s": ("self", "parallel.collect"),
    "topology.construct_s": ("self", "topology.construct"),
    "cluster.construct_s": ("self", "cluster.construct"),
    "trace.overhead": ("harness", "overhead"),
    "trace.unattributed_s": ("harness", "unattributed"),
}

#: Calibration samples taken right before and right after each round,
#: and before each import probe and set-up: several, so that a short
#: stretch still gets a steady reading of the host.
BOUNDARY_SAMPLES = 3

#: Child processes that each repeat the imports, so that ``setup_s``
#: rests on a median of import times rather than on one sample.
IMPORT_PROBES = 4

#: What a probe runs: the program's imports, timed from its first line
#: as this process's own imports are.
_PROBE = (
    "import time; began = time.perf_counter(); import sys; "
    "sys.path[:0] = sys.argv[1:]; import workloads; "
    "print(time.perf_counter() - began)"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha():
    """HEAD's commit read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _host(args):
    import numpy as np

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}
    ).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _catalogue():
    """{section: {metric: unit}} for BENCHMARK.json's metric lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def _import_seconds(own, calibrator):
    """Median seconds the program's imports take: this process's own
    figure and those of IMPORT_PROBES child processes, run one by one
    with the host sampled before each."""
    samples = [own]
    for _ in range(IMPORT_PROBES):
        calibrator.sample(BOUNDARY_SAMPLES)
        probe = subprocess.run(
            [sys.executable, "-c", _PROBE, str(HERE), str(SRC)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def _end_to_end(rounds, first, setup_s, calibrator):
    offered = sum(ep["offered"] for ep in first.episodes)
    dropped = sum(ep["dropped"] for ep in first.episodes)
    return {
        "ticks_per_ref_s": statistics.median(
            r.ticks / calibrator.reference_seconds(r.windows) for r in rounds
        ),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "served_fraction": (offered - dropped) / offered,
        "peak_cpu_c": max(ep["peak_cpu_c"] for ep in first.episodes),
        "powered_machine_h": sum(
            ep["powered_machine_s"] for ep in first.episodes
        ) / 3600.0,
    }


def _per_layer(units, tracer, base, traced):
    table, unattributed = tracer.layer_table(traced.windows)
    counts = dict(traced.counts)
    sent = counts.get("datagrams_sent", 0)
    counts["delivered_ratio"] = (
        counts.get("datagrams_delivered", 0) / sent if sent else 0.0
    )
    harness = {
        "overhead": traced.wall / base.wall - 1.0,
        "unattributed": unattributed,
    }
    columns = {"self": "self_s", "calls": "calls", "outer": "outer_calls"}
    metrics = {}
    for metric, unit in units.items():
        source, key = PER_LAYER[metric]
        if source == "count":
            value = tracer.counts.get(key, 0)
        elif source == "program":
            value = counts.get(key, 0)
        elif source == "harness":
            value = harness[key]
        elif key in table:
            value = table[key][columns[source]]
        else:  # the workload never entered this layer
            value = 0.0 if source == "self" else 0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def _mismatches(first, other):
    """Episodes of ``other`` whose simulated outcome differs from ``first``."""
    return sum(1 for a, b in zip(first.episodes, other.episodes) if a != b)


def _checked(workload, first):
    """The workload's output checks plus the drop check on ``first``:
    (failed episodes, ref_dev_c, notes)."""
    check = workload.check(first)
    failed, notes = set(check.failed), list(check.notes)
    for ep in first.episodes:
        if ep["drop_free"] and ep["dropped"]:
            failed.add(ep["episode"])
            notes.append(
                f"{ep['episode']}: dropped {ep['dropped']:.6g} requests "
                "with no fault injected"
            )
    return failed, check.ref_dev_c, notes


def _timed_round(workload, prepared, calibrator=None):
    """One round, started with no garbage and with everything alive
    frozen out of the collector's view, so a round's collector passes
    do not depend on what earlier rounds left behind.  With a
    calibrator, the host is also sampled right before and after it."""
    gc.collect()
    gc.freeze()
    try:
        if calibrator is None:
            return workload.run_round(prepared)
        calibrator.sample(BOUNDARY_SAMPLES)
        current = workload.run_round(prepared, calibrator)
        calibrator.sample(BOUNDARY_SAMPLES)
        return current
    finally:
        # Frozen objects are never collected: thaw them, so what this
        # round leaves behind is freed before the next one.
        gc.unfreeze()


def _run(workload, prepared, args, setup_s, calibrator, units, out):
    """Timed rounds (and the traced round) from a prepared set-up;
    returns the result dict.  ``setup_s`` and ``calibrator`` are None
    in a traced run."""
    attempted = failed = 0
    notes = []
    if args.trace:
        from tracer import Tracer

        base = _timed_round(workload, prepared)
        tracer = Tracer()
        with tracer:
            traced = _timed_round(workload, workload.setup(tracer))
        attempted = len(base.episodes) + len(traced.episodes)
        if base.episodes != traced.episodes or base.counts != traced.counts:
            failed += _mismatches(base, traced) or len(traced.episodes)
            notes.append("traced round differs from the untraced round")
        if tracer.missing:
            print("  not wrapped: " + ", ".join(tracer.missing), file=out)
        first, rounds = base, [base]
    else:
        first, rounds, timed = None, [], 0.0
        while True:
            current = _timed_round(workload, prepared, calibrator)
            attempted += len(current.episodes)
            if first is None:
                first = current
            else:
                bad = _mismatches(first, current)
                if bad:
                    failed += bad
                    notes.append("a repeated round differs from the first")
                current.keep = None
            rounds.append(current)
            timed += current.wall
            if timed >= args.seconds:
                break
            prepared = workload.setup()
    bad, ref_dev_c, check_notes = _checked(workload, first)
    failed += len(bad)
    notes.extend(check_notes)
    quality = {"ref_dev_c": ref_dev_c, "failed_frac": failed / attempted}
    if args.trace:
        metrics = _per_layer(units["per_layer"], tracer, base, traced)
    else:
        values = _end_to_end(rounds, first, setup_s, calibrator)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units["end_to_end"].items()
        }
        print(
            f"  wall clock: {statistics.median(r.ticks / r.wall for r in rounds):.6g}"
            f" ticks/s; host slowdown {calibrator.slowdown():.4g} (median of "
            f"{len(calibrator.samples)} calibration samples)",
            file=out,
        )
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(rounds)} round(s), {attempted} episode(s), "
        f"{sum(r.wall for r in rounds):.2f} s timed",
        file=out,
    )
    shown = dict(metrics)
    shown.update(
        {name: {"value": quality[name], "unit": unit} for name, unit in QUALITY}
    )
    for name, entry in shown.items():
        print(f"  {name:<26} {entry['value']:>16.6g} {entry['unit']}", file=out)
    for note in notes:
        print(f"  FAILED: {note}", file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _run_all(names, args) -> int:
    """Run every workload, each in its own process (so peak memory and
    set-up time stay per workload), and print one line of all results."""
    results = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        last = lines.pop() if lines else ""
        result = json.loads(last) if last.startswith('{"correct"') else None
        if result is None and last:
            lines.append(last)
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps({"workloads": results}))
    ok = all(r is not None and r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        from calibrate import Calibrator
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; pick one of "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    imported = time.perf_counter() - START
    units = _catalogue()
    if set(units["per_layer"]) != set(PER_LAYER):
        print("perfbench: BENCHMARK.json's per_layer metrics do not match "
              "PER_LAYER", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = calibrator = None
    if args.trace:
        prepared = workload.setup()
    else:  # set-up time is an end-to-end metric only
        calibrator = Calibrator(workload.host_sensitivity)
        imported = _import_seconds(imported, calibrator)
        setups = []
        for _ in range(workload.setup_repeats):
            calibrator.sample(BOUNDARY_SAMPLES)
            began = time.perf_counter()
            prepared = workload.setup()
            setups.append(time.perf_counter() - began)
        calibrator.sample(BOUNDARY_SAMPLES)
        # In reference seconds, at the host speed sampled between the
        # probes and set-ups (the rounds' samples come later, and a
        # sweep round leaves the host's caches and heap in another
        # state).
        slowdown = calibrator.slowdown()
        setup_wall = imported + statistics.median(setups)
        setup_s = setup_wall / slowdown
        print(
            f"  set-up: {imported:.4g} s imports + "
            f"{statistics.median(setups):.4g} s construction on the wall "
            f"clock; host slowdown {slowdown:.4g}",
        )
    out = sys.stdout
    try:
        result = _run(
            workload, prepared, args, setup_s, calibrator, units, out
        )
    except Exception:  # the boundary: report, never print a result
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    print(json.dumps({"host": _host(args)}), file=out)
    print(json.dumps(result), file=out)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
