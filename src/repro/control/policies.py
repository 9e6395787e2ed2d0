"""Stack-agnostic management policies driving a :class:`MachineStateView`.

Each policy here is the paper's daemon logic (tempd + admd, Freon-EC's
Figure 10 loop, the traditional red-line shutdown) written once against
the :class:`~repro.control.view.MachineStateView` seam, so the identical
object manages a 4-machine :class:`ClusterSimulation` (through the
scalar view) or a 10k-machine :class:`ScaleSimulation` (through the
vectorized view).  ``tests/golden/cluster_decisions.json`` pins the
cluster stack's decisions, and the scalar-vs-flat parity harness shows
both views yield the same decisions and temperatures within 1e-9 °C.

One Freon monitor period has two halves:

1. **tempd** (:meth:`FreonPolicy.wake`, vectorized) — read every awake
   machine's component temperatures through the view (one array per
   component class; ``NaN`` marks a failed read), run the PD-controller
   arithmetic on whole columns, and derive per-machine messages
   (REDLINE / ADJUST / RELEASE / STATUS) with the exact tempd state
   machine: last-known-good staleness holds, the conservative fallback,
   derivative resets on release and on a watchdog restart, restriction
   clearing on reboot.  On a ``sequential`` view (the cluster's, while
   a fault is active) this runs machine by machine, so each machine's
   sensor reads and datagram sends happen before the next machine
   reads, as with one tempd per server.
2. **admd** (:meth:`FreonPolicy.deliver`, sequential) — act on each
   message in arrival order, applying the paper's weight/cap/power
   actuations through the view.  Messages travel as
   :class:`~repro.daemons.tempd.TempdMessage` values through the
   ``send`` callable given to :meth:`FreonPolicy.attach` (the cluster
   passes its fault-injectable ``LossyChannel``, which hands them back
   to :meth:`deliver`); with no ``send`` attached they are handled in
   place, in send order.

Freon-EC adds a third step, :meth:`FreonECPolicy.evaluate`, the grow /
shrink pass the host runs after the period's datagrams are delivered.

The sums inside the share-reduction and utilization-averaging arithmetic
deliberately run as Python left-folds in canonical machine order — not
``np.sum`` — so results are bit-identical to builtin ``sum()`` over
insertion-ordered dicts.

Registration happens at the bottom of this module; importing
:mod:`repro.control` populates the registry.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

try:  # NumPy is required for the unified policies; imports stay gated
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on minimal installs
    np = None

from ..config import table1
from ..daemons.tempd import (
    MSG_ADJUST,
    MSG_REDLINE,
    MSG_RELEASE,
    MSG_STATUS,
    TempdMessage,
)
from ..errors import ControlError
from ..freon.policy import FreonConfig, weight_for_share_reduction
from ..freon.regions import RegionMap
from ..telemetry import ensure as _ensure_telemetry
from .registry import PolicySpec, register
from .view import POWER_ACTIVE, POWER_OFF, MachineStateView


@dataclass(frozen=True)
class EcEvent:
    """One Freon-EC reconfiguration decision, for experiment records."""

    time: float
    action: str  # "on" | "off"
    machine: str
    reason: str


@dataclass(frozen=True)
class Shutdown:
    """One traditional red-line shutdown, for experiment records."""

    time: float
    machine: str
    component: str
    temperature: float


def _ordered_sum(values) -> float:
    """Left-fold sum in iteration order, matching builtin ``sum()``.

    Reproducing float totals exactly requires the association order of
    a ``sum()`` over insertion-ordered dicts, which ``np.sum`` does not
    guarantee.
    """
    total = 0.0
    for value in values:
        total += float(value)
    return total


class ControlPolicy:
    """Base class: the surface a simulation harness drives.

    Every monitor period the host calls ``wake``, then delivers any
    datagrams it sent (``datagrams`` policies only), then calls
    ``evaluate``; ``sample`` runs on the stats-period grid (admd's LVS
    polling).  ``checkpoint``/``restore`` round-trip all decision state,
    decision logs included, through plain JSON so host simulations
    resume bit-exactly.
    """

    name = "base"
    #: Whether ``wake`` sends tempd -> admd datagrams through the
    #: ``send`` given to :meth:`attach`; the host hands each one back to
    #: ``deliver``.
    datagrams = False

    def attach(self, view: MachineStateView, telemetry=None,
               send: Optional[Callable[[TempdMessage], None]] = None) -> None:
        """Wire the policy to a host: its telemetry and datagram path."""

    def sample(self, view: MachineStateView, now: float) -> None:
        """Record periodic statistics (no actuation)."""

    def wake(self, view: MachineStateView, now: float) -> None:
        """One monitor-period pass: observe, decide, actuate or send."""

    def evaluate(self, view: MachineStateView, now: float) -> None:
        """Periodic pass after the period's datagrams are delivered."""

    def restart(self, index: int) -> None:
        """A watchdog restarted machine ``index``'s monitoring daemon."""

    def checkpoint(self) -> Dict[str, object]:
        """Decision-relevant state as plain JSON-able data."""
        return {}

    def restore(self, data: Dict[str, object]) -> None:
        """Restore a :meth:`checkpoint`."""


class FreonPolicy(ControlPolicy):
    """Base Freon (section 4.1): tempd on every machine, admd at the LVS.

    State lives in per-machine arrays mirroring each tempd's fields
    (``restricted``, the PD controllers' last temperatures, the last
    good reading and its time, the last ADJUST output, resilience
    counters) plus admd's rolling connection-sample window.
    """

    name = "freon"
    datagrams = True
    #: Subclasses flip this to generate STATUS messages (Freon-EC mode).
    _ec_mode = False

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        if np is None:
            raise ControlError("unified policies require NumPy")
        self.config = config or FreonConfig()
        #: Component classes, in the config's (dict) order: the rows of
        #: every per-class array below.
        self.classes: Tuple[str, ...] = tuple(self.config.thresholds)
        thresholds = [self.config.thresholds[c] for c in self.classes]
        self._high = np.array([[t.high] for t in thresholds])
        self._low = np.array([[t.low] for t in thresholds])
        self._red = np.array([[t.red] for t in thresholds])
        self._n: Optional[int] = None
        self._row: Optional[Dict[str, int]] = None
        self.telemetry = _ensure_telemetry(None)
        #: Datagram path (None: handle every message in place).
        self._send: Optional[Callable[[TempdMessage], None]] = None
        #: admd's decision records.
        self.adjustments: List[Tuple[float, str, float]] = []
        self.releases: List[Tuple[float, str]] = []
        self.redlined: List[Tuple[float, str]] = []
        #: Count of ADJUST actuations (the scale stack's summary metric).
        self.throttle_events = 0

    # -- sizing and wiring -------------------------------------------------

    def _ensure(self, view: MachineStateView) -> None:
        n = len(view.machines)
        if self._n != n:
            if self._n is not None:
                raise ControlError(
                    f"policy sized for {self._n} machines, view has {n}"
                )
            self._size(n)
        if self._row is None:
            self._row = {name: i for i, name in enumerate(view.machines)}

    def _size(self, n: int) -> None:
        self._n = n
        self.restricted = np.zeros(n, dtype=bool)
        k = len(self.classes)
        #: PD controllers' last temperature, class x machine (NaN = no
        #: derivative state: a fresh or reset controller).
        self._last_T = np.full((k, n), np.nan)
        #: Last good reading, class x machine (NaN = none since start or
        #: restart).
        self._good_T = np.full((k, n), np.nan)
        #: Time of the last good reading (NaN = none).
        self._last_good = np.full(n, np.nan)
        #: NaN = no prior ADJUST output.
        self._last_output = np.full(n, np.nan)
        #: Machines seen active last wake: a False->True edge is a
        #: finished (re)boot, which clears the restriction flag.
        self._was_active = np.ones(n, dtype=bool)
        #: Failed-read wake-ups: all, stale holds, conservative fallbacks.
        self.read_failures = np.zeros(n, dtype=np.int64)
        self.stale_wakes = np.zeros(n, dtype=np.int64)
        self.conservative_wakes = np.zeros(n, dtype=np.int64)
        #: admd's rolling (time, connections-array) sample window.
        self._windows: Deque[Tuple[float, "np.ndarray"]] = deque()
        self._average: Optional["np.ndarray"] = None

    def attach(self, view, telemetry=None, send=None) -> None:
        self._ensure(view)
        self._send = send
        self.telemetry = telemetry = _ensure_telemetry(telemetry)
        if not telemetry.enabled:
            return
        self._tel_actions = {
            action: telemetry.counter(
                "freon_actuations_total", {"action": action},
                help="admd actuations on the load balancer, by action.",
            )
            for action in ("adjust", "release", "redline")
        }
        #: Per machine: (wakes, read failures, stale, conservative, output).
        self._tel_tempd = []
        for name in view.machines:
            labels = {"machine": name}
            self._tel_tempd.append((
                telemetry.counter(
                    "tempd_wakes_total", labels,
                    help="tempd monitor-period wake-ups.",
                ),
                telemetry.counter(
                    "tempd_read_failures_total", labels,
                    help="Wake-ups whose sensor read failed.",
                ),
                telemetry.counter(
                    "tempd_stale_wakes_total", labels,
                    help="Failed-read wake-ups holding the last-known-good "
                         "posture.",
                ),
                telemetry.counter(
                    "tempd_conservative_wakes_total", labels,
                    help="Failed-read wake-ups falling back to conservative "
                         "throttling.",
                ),
                telemetry.gauge(
                    "tempd_pd_output", labels,
                    help="Most recent PD-controller output sent to admd.",
                ),
            ))

    def restart(self, index: int) -> None:
        """The restarted tempd starts with fresh PD controllers and no
        last good reading or ADJUST output; ``restricted`` survives (a
        supervisor hands it over from admd on reconnect)."""
        self._last_T[:, index] = np.nan
        self._good_T[:, index] = np.nan
        self._last_good[index] = np.nan
        self._last_output[index] = np.nan

    # -- admd statistics ---------------------------------------------------

    def sample(self, view: MachineStateView, now: float) -> None:
        self._ensure(view)
        self._windows.append((now, view.connections()))
        horizon = now - self.config.monitor_period
        while self._windows and self._windows[0][0] < horizon:
            self._windows.popleft()
        self._average = None

    def _connection_cap(self, view: MachineStateView, i: int) -> float:
        """Mean connections over the window (admd's LVS statistic); the
        current count before the first sample."""
        if not self._windows:
            return float(view.connections()[i])
        if self._average is None:
            total = None
            for _, connections in self._windows:
                # Left-fold, matching a per-machine builtin sum().
                total = (
                    connections.copy() if total is None
                    else total + connections
                )
            self._average = total / len(self._windows)
        return float(self._average[i])

    # -- tempd: the monitor-period wake ------------------------------------

    def wake(self, view: MachineStateView, now: float) -> None:
        self._ensure(view)
        active = view.power_states() == POWER_ACTIVE
        newly_active = active & ~self._was_active
        if newly_active.any():
            self.restricted[newly_active] = False
        self._was_active = active
        awake = active & view.daemons_up()
        if not awake.any():
            return
        utilizations = (
            view.read_utilizations(self.classes) if self._ec_mode else None
        )
        if not view.sequential:
            self._tempd(view, now, awake, utilizations)
            return
        for i in np.flatnonzero(awake):
            one = np.zeros(self._n, dtype=bool)
            one[i] = True
            self._tempd(view, now, one, utilizations)

    def _tempd(self, view, now, awake, utilizations) -> None:
        """The tempd state machine for the machines in ``awake``."""
        config = self.config
        readings = view.read_temperatures(self.classes, mask=awake)
        T = np.array([readings[c] for c in self.classes])
        failed = awake & np.isnan(T).any(axis=0)
        ok = awake & ~failed

        last_T = self._last_T
        # First observation: the derivative term contributes nothing.
        prev = np.where(np.isnan(last_T), T, last_T)
        pd = np.maximum(
            config.kp * (T - self._high) + config.kd * (T - prev), 0.0
        )
        hot = ok & (T > self._high)
        outputs = np.where(hot, pd, 0.0).max(axis=0)
        adjust = hot.any(axis=0)
        red = ok & (T >= self._red).any(axis=0)
        release = ok & (T < self._low).all(axis=0) & self.restricted
        # The controllers record every observed temperature, hot or not.
        np.copyto(last_T, T, where=ok)
        np.copyto(self._good_T, T, where=ok)
        self._last_good[ok] = now

        # Failed-read resilience: hold the last-known-good posture within
        # the staleness limit, fail conservative past it.
        fresh = failed & (
            now - self._last_good <= config.sensor_staleness_limit + 1e-9
        )
        stale_hold = fresh & self.restricted & ~np.isnan(self._last_output)
        conservative = failed & ~fresh
        self.read_failures += failed
        self.stale_wakes += fresh
        self.conservative_wakes += conservative

        message_output = np.where(
            conservative, config.conservative_output,
            np.where(stale_hold, self._last_output, outputs),
        )
        if self.telemetry.enabled:
            self._publish_wake(
                view, awake, failed, fresh, adjust | conservative,
                message_output,
            )

        self.restricted = (self.restricted & ~release) | adjust | conservative
        self._last_output = np.where(
            adjust | conservative, message_output, self._last_output
        )
        np.copyto(last_T, np.nan, where=release)  # controllers reset

        # Per-machine message order: REDLINE, then ADJUST or RELEASE,
        # then STATUS.
        send_adjust = adjust | stale_hold | conservative
        status = ok if self._ec_mode else np.zeros_like(ok)
        for i in np.flatnonzero(red | send_adjust | release | status):
            i = int(i)
            if red[i]:
                self._post(view, now, MSG_REDLINE, i)
            if send_adjust[i]:
                self._post(
                    view, now, MSG_ADJUST, i, float(message_output[i])
                )
            elif release[i]:
                self._post(view, now, MSG_RELEASE, i)
            if status[i]:
                self._post(
                    view, now, MSG_STATUS, i,
                    utilizations={
                        c: float(utilizations[c][i]) for c in self.classes
                    },
                )

    def _publish_wake(self, view, awake, failed, fresh, set_output,
                      message_output) -> None:
        """tempd's per-machine wake telemetry (series and events)."""
        telemetry = self.telemetry
        for i in np.flatnonzero(awake):
            i = int(i)
            wakes, failures, stale, conservative, output = self._tel_tempd[i]
            wakes.inc()
            if failed[i]:
                failures.inc()
                machine = view.machines[i]
                if fresh[i]:
                    stale.inc()
                    telemetry.event(
                        "tempd_stale_hold", "tempd", machine=machine,
                        restricted=bool(self.restricted[i]),
                    )
                else:
                    conservative.inc()
                    telemetry.event(
                        "tempd_conservative_fallback", "tempd",
                        machine=machine,
                        output=self.config.conservative_output,
                    )
            if set_output[i]:
                output.set(float(message_output[i]))

    def _post(self, view, now, kind, i, output=0.0, utilizations=None) -> None:
        """Send one tempd -> admd datagram (or handle it in place)."""
        machine = view.machines[i]
        if self.telemetry.enabled:
            self.telemetry.counter(
                "tempd_messages_total", {"machine": machine, "type": kind},
                help="tempd messages sent to admd, by type.",
            ).inc()
        if self._send is None:
            self._handle(view, kind, now, i, output, utilizations)
            return
        good = self._good_T[:, i]
        temperatures = (
            {} if math.isnan(good[0])
            else dict(zip(self.classes, good.tolist()))
        )
        self._send(TempdMessage(
            type=kind, machine=machine, time=now, output=output,
            temperatures=temperatures, utilizations=utilizations or {},
        ))

    # -- admd: message delivery --------------------------------------------

    def deliver(self, view: MachineStateView, message: TempdMessage) -> None:
        """admd's end of the datagram path: act on one tempd message."""
        self._ensure(view)
        self._handle(
            view, message.type, message.time, self._row[message.machine],
            message.output, message.utilizations,
        )

    def _handle(self, view, kind, now, i, output, utilizations) -> None:
        if kind == MSG_ADJUST:
            self._on_adjust(view, now, i, output)
        elif kind == MSG_RELEASE:
            self._on_release(view, now, i)
        elif kind == MSG_REDLINE:
            self._on_redline(view, now, i)
        elif kind == MSG_STATUS:
            self._on_status(i, utilizations)

    def _active_weights(self, view: MachineStateView) -> Dict[str, float]:
        """Weights of currently active machines, in canonical order —
        admd's "accounting for the weights of all servers" dict."""
        power = view.power_states()
        weights = view.weights()
        return {
            view.machines[int(j)]: float(weights[int(j)])
            for j in np.flatnonzero(power == POWER_ACTIVE)
        }

    def _on_adjust(self, view, now, i, output) -> None:
        if view.power_state(i) != POWER_ACTIVE:
            return  # drained/booting machines take no load to shift
        machine = view.machines[i]
        new_weight = weight_for_share_reduction(
            self._active_weights(view), machine, output,
            telemetry=self.telemetry,
        )
        view.set_weight(i, new_weight)
        view.set_connection_cap(i, self._connection_cap(view, i))
        self.adjustments.append((now, machine, output))
        self.throttle_events += 1
        if self.telemetry.enabled:
            self._tel_actions["adjust"].inc()
            self._publish_weight(machine, new_weight)
            self.telemetry.event(
                "freon_adjust", "admd", machine=machine,
                output=output, weight=new_weight,
            )

    def _on_release(self, view, now, i) -> None:
        machine = view.machines[i]
        view.set_weight(i, self.config.base_weight)
        view.set_connection_cap(i, None)
        self.releases.append((now, machine))
        if self.telemetry.enabled:
            self._tel_actions["release"].inc()
            self._publish_weight(machine, self.config.base_weight)
            self.telemetry.event("freon_release", "admd", machine=machine)

    def _on_redline(self, view, now, i) -> None:
        machine = view.machines[i]
        self.redlined.append((now, machine))
        if self.telemetry.enabled:
            self._tel_actions["redline"].inc()
            self.telemetry.event("freon_redline", "admd", machine=machine)
        view.set_power(i, False)

    def _on_status(self, i, utilizations) -> None:
        """Base Freon ignores STATUS; Freon-EC overrides this."""

    def _publish_weight(self, machine: str, weight: float) -> None:
        self.telemetry.gauge(
            "freon_weight", {"machine": machine},
            help="Current LVS weight set by Freon.",
        ).set(weight)

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        if self._n is None:
            return {"sized": False}
        return {
            "sized": True,
            "restricted": self.restricted.tolist(),
            "last_T": dict(zip(self.classes, self._last_T.tolist())),
            "good_T": dict(zip(self.classes, self._good_T.tolist())),
            "last_output": self._last_output.tolist(),
            "last_good": self._last_good.tolist(),
            "was_active": self._was_active.tolist(),
            "read_failures": self.read_failures.tolist(),
            "stale_wakes": self.stale_wakes.tolist(),
            "conservative_wakes": self.conservative_wakes.tolist(),
            "windows": [
                [t, connections.tolist()] for t, connections in self._windows
            ],
            "throttle_events": self.throttle_events,
            "adjustments": [list(a) for a in self.adjustments],
            "releases": [list(r) for r in self.releases],
            "redlined": [list(r) for r in self.redlined],
        }

    def restore(self, data: Dict[str, object]) -> None:
        if not data.get("sized"):
            return
        restricted = np.array(data["restricted"], dtype=bool)
        if self._n is None:
            self._size(len(restricted))
        elif self._n != len(restricted):
            raise ControlError(
                f"checkpoint holds {len(restricted)} machines, policy "
                f"is sized for {self._n}"
            )
        self.restricted = restricted
        self._last_T = np.array(
            [data["last_T"][c] for c in self.classes], dtype=float
        )
        self._good_T = np.array(
            [data["good_T"][c] for c in self.classes], dtype=float
        )
        self._last_output = np.array(data["last_output"], dtype=float)
        self._last_good = np.array(data["last_good"], dtype=float)
        self._was_active = np.array(data["was_active"], dtype=bool)
        for name in ("read_failures", "stale_wakes", "conservative_wakes"):
            setattr(self, name, np.array(data[name], dtype=np.int64))
        self._windows = deque(
            (float(t), np.array(connections, dtype=float))
            for t, connections in data["windows"]
        )
        self._average = None
        self.throttle_events = int(data["throttle_events"])
        self.adjustments = [
            (float(t), str(m), float(o)) for t, m, o in data["adjustments"]
        ]
        self.releases = [(float(t), str(m)) for t, m in data["releases"]]
        self.redlined = [(float(t), str(m)) for t, m in data["redlined"]]


class FreonECPolicy(FreonPolicy):
    """Freon-EC (section 4.2, Figure 10).

    Inherits the full tempd/admd loop and adds the energy-conservation
    side: STATUS bookkeeping, per-region emergency counting, hot-server
    replacement, and the periodic grow/shrink :meth:`evaluate`,
    actuated through the view's power switch.
    """

    name = "freon-ec"
    _ec_mode = True

    def __init__(
        self,
        config: Optional[FreonConfig] = None,
        util_high: float = table1.EC_UTIL_HIGH,
        util_low: float = table1.EC_UTIL_LOW,
        min_active: int = 1,
    ) -> None:
        super().__init__(config)
        self.util_high = util_high
        self.util_low = util_low
        self.min_active = min_active
        #: Region map (built from the view on first use).
        self.regions: Optional[RegionMap] = None
        #: Machines currently known hot (sticky across power-off: only a
        #: RELEASE clears the flag).
        self._hot: Dict[str, bool] = {}
        self._previous_average: Optional[Dict[str, float]] = None
        self.events: List[EcEvent] = []
        #: rr cursor restored before the region map is (re)built lazily.
        self._pending_rr: Optional[int] = None

    def _size(self, n: int) -> None:
        super()._size(n)
        #: Latest STATUS payload per machine, one column per class.
        self._util_store = {c: np.zeros(n) for c in self.classes}
        self._util_known = np.zeros(n, dtype=bool)

    def _ensure(self, view: MachineStateView) -> None:
        super()._ensure(view)
        if self.regions is not None:
            return
        self.regions = RegionMap({
            name: view.region_of(i) for i, name in enumerate(view.machines)
        })
        # Region emergency counts are derivable from the sticky hot set
        # (one note per newly-hot machine, one clear per release).
        for name, hot in self._hot.items():
            if hot:
                self.regions.note_emergency(name)
        if self._pending_rr is not None:
            self.regions.rr_index = self._pending_rr
            self._pending_rr = None

    # -- message handling ---------------------------------------------------

    def _on_status(self, i, utilizations) -> None:
        for c in self.classes:
            self._util_store[c][i] = utilizations[c]
        self._util_known[i] = True

    def _on_adjust(self, view, now, i, output) -> None:
        machine = view.machines[i]
        newly_hot = not self._hot.get(machine, False)
        self._hot[machine] = True
        if newly_hot:
            self.regions.note_emergency(machine)
            self._respond_to_emergency(view, now, i, output)
        elif view.power_state(i) == POWER_ACTIVE:
            # Ongoing emergency on a server we decided to keep: base policy.
            super()._on_adjust(view, now, i, output)

    def _on_release(self, view, now, i) -> None:
        machine = view.machines[i]
        if self._hot.get(machine, False):
            self._hot[machine] = False
            self.regions.clear_emergency(machine)
        super()._on_release(view, now, i)

    def _respond_to_emergency(self, view, now, i, output) -> None:
        """Figure 10's hot-component branch."""
        needed = self._servers_needed(view)
        if needed >= self._n:
            # All servers in the cluster need to be active.
            FreonPolicy._on_adjust(self, view, now, i, output)
            return
        active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
        if needed >= len(active):
            # Cannot remove a server without replacing it first.
            replacement = self._pick_off_server(view)
            if replacement is None:
                FreonPolicy._on_adjust(self, view, now, i, output)
                return
            view.set_power(replacement, True)
            self._log(now, "on", view.machines[replacement],
                      "replace hot server")
        view.set_power(i, False)
        self._log(now, "off", view.machines[i], "hot server replaced/retired")

    # -- periodic reconfiguration -------------------------------------------

    def evaluate(self, view: MachineStateView, now: float) -> None:
        """One Figure 10 grow/shrink pass, after the period's deliveries."""
        self._ensure(view)
        average = self._average_utilizations(view)
        projected = self._project(average)
        self._previous_average = average
        if self.telemetry.enabled:
            for component, value in projected.items():
                self.telemetry.gauge(
                    "freon_ec_projected_utilization", {"component": component},
                    help="Two-interval projected cluster-average utilization.",
                ).set(value)
            self.telemetry.gauge(
                "freon_ec_active_servers",
                help="Servers currently accepting load.",
            ).set(int((view.power_states() == POWER_ACTIVE).sum()))

        # Grow when projected demand exceeds the high threshold.
        if projected and max(projected.values()) > self.util_high:
            candidate = self._pick_off_server(view)
            if candidate is not None:
                view.set_power(candidate, True)
                self._log(now, "on", view.machines[candidate],
                          f"projected util {max(projected.values()):.2f} > "
                          f"{self.util_high:.2f}")

        # Shrink while the remaining servers would stay under U_l.
        while True:
            active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
            if len(active) <= self.min_active:
                break
            if not self._can_remove(average, len(active)):
                break
            victim = self._pick_removal_victim(view, active)
            if victim is None:
                break
            view.set_power(victim, False)
            self._log(now, "off", view.machines[victim], "energy conservation")
            # Recompute the average as if the load spread over one fewer
            # server, so "as many as possible" stops at the right count.
            scale = len(active) / max(len(active) - 1, 1)
            average = {c: u * scale for c, u in average.items()}

    # -- arithmetic helpers --------------------------------------------------

    def _average_utilizations(self, view) -> Dict[str, float]:
        """Per-component utilization averaged across active servers."""
        active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
        if len(active) == 0:
            return {}
        known = active[self._util_known[active]]
        if len(known) == 0:
            return {}
        return {
            c: _ordered_sum(self._util_store[c][known]) / len(active)
            for c in self.classes
        }

    def _project(self, average: Dict[str, float]) -> Dict[str, float]:
        """Two-interval linear projection when load is increasing."""
        if self._previous_average is None:
            return dict(average)
        projected: Dict[str, float] = {}
        for component, value in average.items():
            previous = self._previous_average.get(component, value)
            delta = value - previous
            projected[component] = (
                value + 2.0 * delta if delta > 0.0 else value
            )
        return projected

    def _servers_needed(self, view) -> int:
        """How many servers current demand requires at U_h per server."""
        average = self._average_utilizations(view)
        active = int((view.power_states() == POWER_ACTIVE).sum())
        if not average or active == 0:
            return self.min_active
        demand = max(average.values()) * active
        return max(self.min_active, math.ceil(demand / self.util_high - 1e-9))

    def _can_remove(self, average: Dict[str, float], active_count: int) -> bool:
        """Would one removal keep every component average below U_l?"""
        if not average:
            return True
        scale = active_count / max(active_count - 1, 1)
        return all(u * scale < self.util_low for u in average.values())

    def _pick_off_server(self, view) -> Optional[int]:
        """Round-robin region pick of a powered-off server (row index)."""
        power = view.power_states()
        off = {
            view.machines[int(j)] for j in np.flatnonzero(power == POWER_OFF)
        }
        if not off:
            return None
        regions = self.regions
        region = regions.pick_region(
            lambda r: any(s in off for s in regions.servers_in(r))
        )
        if region is None:
            return None
        for server in regions.servers_in(region):
            if server in off:
                return self._row[server]
        return None

    def _pick_removal_victim(self, view, active) -> Optional[int]:
        """Lowest-capacity active server ("increasing order of current
        processing capacity"): restricted (low-weight) servers go first."""
        if len(active) == 0:
            return None
        weights = view.weights()
        return int(min(
            active,
            key=lambda j: (float(weights[int(j)]), view.machines[int(j)]),
        ))

    def _log(self, time: float, action: str, machine: str, reason: str) -> None:
        self.events.append(
            EcEvent(time=time, action=action, machine=machine, reason=reason)
        )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "freon_ec_events_total", {"action": action},
                help="Freon-EC reconfiguration decisions, by action.",
            ).inc()
            self.telemetry.event(
                f"freon_ec_{action}", "freon-ec", machine=machine,
                reason=reason,
            )

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        state = super().checkpoint()
        if not state.get("sized"):
            return state
        state["ec"] = {
            "hot": dict(self._hot),
            "util_store": {
                c: a.tolist() for c, a in self._util_store.items()
            },
            "util_known": self._util_known.tolist(),
            "previous_average": self._previous_average,
            "rr_index": (
                self.regions.rr_index if self.regions is not None
                else (self._pending_rr or 0)
            ),
            "events": [
                [e.time, e.action, e.machine, e.reason] for e in self.events
            ],
        }
        return state

    def restore(self, data: Dict[str, object]) -> None:
        super().restore(data)
        if not data.get("sized"):
            return
        ec = data["ec"]
        self._hot = {str(k): bool(v) for k, v in ec["hot"].items()}
        self._util_store = {
            c: np.array(ec["util_store"][c], dtype=float)
            for c in self.classes
        }
        self._util_known = np.array(ec["util_known"], dtype=bool)
        previous = ec["previous_average"]
        self._previous_average = (
            None if previous is None
            else {str(k): float(v) for k, v in previous.items()}
        )
        self.regions = None  # rebuilt (with emergencies) on next use
        self._pending_rr = int(ec["rr_index"])
        self.events = [
            EcEvent(float(t), str(a), str(m), str(r))
            for t, a, m, r in ec["events"]
        ]


class TraditionalControlPolicy(ControlPolicy):
    """The traditional comparison point (section 5.1): "we turned servers
    off when the temperature of their CPUs crossed T_r".

    Machines stay dead for the rest of the run; if the survivors cannot
    carry the load, requests are dropped.  Failed (``NaN``) reads are
    skipped — a blind traditional controller takes no action, which is
    exactly its weakness under sensor faults.
    """

    name = "traditional"

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        if np is None:
            raise ControlError("unified policies require NumPy")
        self.config = config or FreonConfig()
        self.classes: Tuple[str, ...] = tuple(self.config.thresholds)
        self.shutdowns: List[Shutdown] = []
        self._dead: set = set()

    def wake(self, view: MachineStateView, now: float) -> None:
        n = len(view.machines)
        live = view.power_states() != POWER_OFF
        if self._dead:
            for name in self._dead:
                live[view.machines.index(name)] = False
        if not live.any():
            return
        temps = view.read_temperatures(self.classes, mask=live)
        fired = np.zeros(n, dtype=bool)
        for c in self.classes:
            fired |= live & (temps[c] >= self.config.red(c))
        for i in np.flatnonzero(fired):
            i = int(i)
            machine = view.machines[i]
            # Attribute the shutdown to the first red class in reader
            # (dict) order, like the scalar policy's first-match break.
            for c in self.classes:
                temperature = float(temps[c][i])
                if not math.isnan(temperature) and (
                    temperature >= self.config.red(c)
                ):
                    view.set_power(i, False)
                    self._dead.add(machine)
                    self.shutdowns.append(Shutdown(
                        time=now, machine=machine, component=c,
                        temperature=temperature,
                    ))
                    break

    def checkpoint(self) -> Dict[str, object]:
        return {
            "dead": sorted(self._dead),
            "shutdowns": [
                [s.time, s.machine, s.component, s.temperature]
                for s in self.shutdowns
            ],
        }

    def restore(self, data: Dict[str, object]) -> None:
        self._dead = set(data["dead"])
        self.shutdowns = [
            Shutdown(float(t), str(m), str(c), float(temperature))
            for t, m, c, temperature in data["shutdowns"]
        ]


class EmergencyPolicy(ControlPolicy):
    """Red-line guard with recovery: cut power at T_r, reboot once cool.

    The paper's red-line semantics ("modern CPUs and disks turn
    themselves off when these temperatures are reached") as a standalone
    policy: any component at/above its red line powers the machine off;
    a machine this policy turned off reboots once every component has
    cooled below its low threshold.  Unlike the traditional policy the
    fleet self-heals, so it is usable as a safety net at datacenter
    scale.
    """

    name = "emergency"

    def __init__(self, config: Optional[FreonConfig] = None) -> None:
        if np is None:
            raise ControlError("unified policies require NumPy")
        self.config = config or FreonConfig()
        self.classes: Tuple[str, ...] = tuple(self.config.thresholds)
        #: Rows this policy powered off (candidates for recovery).
        self._down: set = set()
        self.events: List[Tuple[float, str, str]] = []

    def wake(self, view: MachineStateView, now: float) -> None:
        n = len(view.machines)
        temps = view.read_temperatures(self.classes)
        power = view.power_states()
        red = np.zeros(n, dtype=bool)
        cool = np.ones(n, dtype=bool)
        for c in self.classes:
            red |= temps[c] >= self.config.red(c)
            cool &= temps[c] < self.config.low(c)
        for i in np.flatnonzero((power == POWER_ACTIVE) & red):
            i = int(i)
            view.set_power(i, False)
            self._down.add(i)
            self.events.append((now, "off", view.machines[i]))
        for i in sorted(self._down):
            if power[i] == POWER_OFF and cool[i]:
                view.set_power(i, True)
                self._down.discard(i)
                self.events.append((now, "on", view.machines[i]))

    def checkpoint(self) -> Dict[str, object]:
        return {
            "down": sorted(self._down),
            "events": [list(e) for e in self.events],
        }

    def restore(self, data: Dict[str, object]) -> None:
        self._down = {int(i) for i in data["down"]}
        self.events = [
            (float(t), str(action), str(m)) for t, action, m in data["events"]
        ]


# -- registrations -----------------------------------------------------------
# Insertion order is canonical: the cluster slice must keep the
# historical POLICIES order (none, freon, freon-ec, traditional,
# local-dvfs); scale-only policies register after it.

register(PolicySpec(
    name="none",
    description="no thermal management (baseline)",
    stacks=("cluster", "scale"),
))
register(PolicySpec(
    name="freon",
    description="Freon weight/cap throttling (section 4.1)",
    stacks=("cluster", "scale"),
    factory=FreonPolicy,
))
register(PolicySpec(
    name="freon-ec",
    description="Freon-EC energy + thermal management (section 4.2)",
    stacks=("cluster", "scale"),
    factory=FreonECPolicy,
))
register(PolicySpec(
    name="traditional",
    description="traditional red-line shutdown (section 5.1)",
    stacks=("cluster", "scale"),
    factory=TraditionalControlPolicy,
))
register(PolicySpec(
    name="local-dvfs",
    description="per-CPU DVFS with no cluster coordination (section 4.3)",
    stacks=("cluster",),
))
register(PolicySpec(
    name="emergency",
    description="red-line power-off with cool-down recovery",
    stacks=("scale",),
    factory=EmergencyPolicy,
))
