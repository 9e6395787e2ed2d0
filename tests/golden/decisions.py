"""The decisions golden: full-length management runs pinned by digest.

The first-120 s traces stop before the t=480 s emergency, and the
thresholds sweep never adjusts a weight, so neither golden sees a
single management decision.  This one does: each case runs a whole
1990 s cluster experiment on the reference ``python`` engine with
telemetry enabled, through the emergency and (for the chaos cases)
a datagram-loss / stuck-sensor / tempd-crash storm, and pins

* the decision logs in the clear: weight adjustments, releases,
  red-line reports, Freon-EC reconfigurations, traditional shutdowns,
  local-DVFS P-state changes, watchdog restarts, and the tempd -> admd
  datagram counts;
* the SHA-256 of the per-tick records, of the ``dump_registry``
  payload (minus the host-timing families, which differ between runs),
  of the telemetry event log (wall-clock stamps left out) and of the
  fault audit log.

One case runs the two-tier pipeline of :mod:`repro.cluster.multitier`
instead (no telemetry there; its records and per-tier adjustments are
pinned).

Regenerate with ``PYTHONPATH=src python -m tests.golden.decisions``
only after an *intentional* change to the management behaviour.
"""

import hashlib
import json
from dataclasses import asdict
from typing import Callable, Dict

from repro.cluster.multitier import MultiTierSimulation
from repro.cluster.simulation import (
    ClusterSimulation,
    chaos_script,
    emergency_script,
)
from repro.parallel.engine import HOST_METRICS
from repro.telemetry import Telemetry, dump_registry

from .traces import GOLDEN_DIR

GOLDEN_DECISIONS_FILE = "cluster_decisions.json"

#: Network faults layered on the emergency: a fixed 2.5 s transit delay
#: (longer than a tick, so datagrams cross tick boundaries) plus 20%
#: reordering.
NET_FAULTS = "fault net delay 2.5\nfault net reorder 0.2\n"

#: Sensor trouble layered on the emergency and a lossy network: noisy
#: CPU readings on machine 2 (their draws interleave with the datagram
#: fates on one RNG stream), and a CPU sensor on machine 1 that stops
#: answering for longer than the staleness limit.
SENSOR_FAULTS = (
    "fault net loss 0.05\n"
    "fault machine2 sensor noise cpu 0.3\n"
    + emergency_script()
    + "sleep 520\n"
    "fault machine1 sensor dropout cpu for 400\n"
)

#: The same sensor trouble for the local DVFS governors, minus the
#: dropout: noisy CPU readings on machine 2 under a lossy network.
DVFS_SENSOR_NOISE = (
    "fault net loss 0.05\n"
    "fault machine2 sensor noise cpu 0.3\n"
    + emergency_script()
)

#: The multi-tier emergency: the app tier's first machine heats up.
MULTITIER_EMERGENCY = "sleep 100\nfiddle app1 temperature inlet 38.6\n"


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cluster_case(policy: str, script: str, **kwargs) -> Callable[[], Dict]:
    def run() -> Dict:
        telemetry = Telemetry()
        sim = ClusterSimulation(
            policy=policy, fiddle_script=script, engine="python",
            telemetry=telemetry, **kwargs,
        )
        result = sim.run()
        events = [
            [e.kind, e.name, e.component, e.sim_time, e.attrs]
            for e in telemetry.events.events
        ]
        payload = {
            "ticks": len(result.records),
            "drop_fraction": result.drop_fraction,
            "adjustments": [list(a) for a in result.adjustments],
            "releases": [list(r) for r in result.releases],
            "redlined": [list(r) for r in result.redlined],
            "ec_events": [asdict(e) for e in result.ec_events],
            "shutdowns": [asdict(s) for s in result.shutdowns],
            "restarts": [asdict(r) for r in result.restarts],
            "datagram_stats": dict(result.datagram_stats),
            "records_sha256": _sha(
                [sim._record_to_dict(r) for r in result.records]
            ),
            "registry_sha256": _sha([
                family for family in dump_registry(telemetry.registry)
                if family["name"] not in HOST_METRICS
            ]),
            "events_sha256": _sha(events),
            "fault_log_sha256": _sha([list(e) for e in result.fault_log]),
        }
        if result.pstate_changes:
            # Only local-DVFS runs change P-states; the key stays absent
            # elsewhere so those cases keep their pinned payload.
            payload["pstate_changes"] = [
                asdict(c) for c in result.pstate_changes
            ]
        return payload

    return run


def _multitier_case() -> Dict:
    sim = MultiTierSimulation(
        policy="freon", fiddle_script=MULTITIER_EMERGENCY,
    )
    result = sim.run(2000)
    return {
        "ticks": len(result.records),
        "end_to_end_drop_fraction": result.end_to_end_drop_fraction,
        "adjustments": {
            tier: [list(a) for a in log]
            for tier, log in sorted(result.adjustments.items())
        },
        "records_sha256": _sha([asdict(r) for r in result.records]),
    }


#: Case name -> generator.  Each generator returns the JSON-able payload
#: the golden file stores under that name.
CASES: Dict[str, Callable[[], Dict]] = {
    "freon-emergency": _cluster_case("freon", emergency_script()),
    "freon-ec-emergency": _cluster_case("freon-ec", emergency_script()),
    "traditional-emergency": _cluster_case("traditional", emergency_script()),
    **{
        f"{policy}-chaos-seed{seed}": _cluster_case(
            policy, chaos_script(), fault_seed=seed
        )
        for policy in ("freon", "freon-ec")
        for seed in (0, 1, 2)
    },
    "freon-emergency-event-mode": _cluster_case(
        "freon", emergency_script(), mode="event"
    ),
    **{
        f"{policy}-net-delay-reorder": _cluster_case(
            policy, NET_FAULTS + emergency_script()
        )
        for policy in ("freon", "freon-ec")
    },
    **{
        f"{policy}-sensor-faults": _cluster_case(policy, SENSOR_FAULTS)
        for policy in ("freon", "freon-ec")
    },
    "local-dvfs-emergency": _cluster_case("local-dvfs", emergency_script()),
    **{
        f"local-dvfs-chaos-seed{seed}": _cluster_case(
            "local-dvfs", chaos_script(), fault_seed=seed
        )
        for seed in (0, 1, 2)
    },
    "local-dvfs-sensor-noise": _cluster_case("local-dvfs", DVFS_SENSOR_NOISE),
    "multitier-freon": _multitier_case,
}


def generate(name: str) -> Dict:
    """One case's payload, normalised through a JSON round trip."""
    return json.loads(json.dumps(CASES[name]()))


def regenerate() -> None:
    payload = {name: generate(name) for name in CASES}
    path = GOLDEN_DIR / GOLDEN_DECISIONS_FILE
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(payload)} cases)")


if __name__ == "__main__":
    regenerate()
