"""Freon-EC's batched passes against their one-at-a-time definitions.

Freon-EC's grow/shrink pass sorts the active servers once instead of
rescanning the room per removal, picks powered-off servers from
precomputed per-region name orders, and (handled in place with no
telemetry) stores each run of STATUS rows in one slice assignment.
Each test here keeps the straightforward loop the batched code replaced
and requires identical decisions from both.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulation import ClusterSimulation, emergency_script
from repro.control import POWER_ACTIVE, POWER_OFF, FreonECPolicy
from repro.control.policies import _ordered_sum
from repro.daemons.tempd import MSG_ADJUST, TempdMessage
from repro.topology import (
    ScaleSimulation,
    Topology,
    grid_topology,
    inlet_events_from_script,
)
from repro.topology.model import Position, Zone


class OneAtATimeEC(FreonECPolicy):
    """Freon-EC with the grow/shrink pass written the direct way: a full
    rescan and a Python ``min`` per removal, and a fresh name sort of
    every region for each powered-off pick."""

    def evaluate(self, view, now):
        self._ensure(view)
        average = self._average_utilizations(view)
        projected = self._project(average)
        self._previous_average = average
        if projected and max(projected.values()) > self.util_high:
            candidate = self._pick_off_server(view)
            if candidate is not None:
                view.set_power(candidate, True)
                self._log(now, "on", view.machines[candidate],
                          f"projected util {max(projected.values()):.2f} > "
                          f"{self.util_high:.2f}")
        while True:
            active = np.flatnonzero(view.power_states() == POWER_ACTIVE)
            if len(active) <= self.min_active:
                break
            if not self._can_remove(average, len(active)):
                break
            weights = view.weights()
            victim = int(min(
                active,
                key=lambda j: (float(weights[int(j)]), view.machines[int(j)]),
            ))
            view.set_power(victim, False)
            self._log(now, "off", view.machines[victim], "energy conservation")
            scale = len(active) / max(len(active) - 1, 1)
            average = {c: u * scale for c, u in average.items()}

    def _pick_off_server(self, view):
        power = view.power_states()
        off = {
            view.machines[int(j)] for j in np.flatnonzero(power == POWER_OFF)
        }
        if not off:
            return None

        def members(region):
            return sorted(
                name for i, name in enumerate(view.machines)
                if view.region_of(i) == region
            )

        region = self.regions.pick_region(
            lambda r: any(s in off for s in members(r))
        )
        if region is None:
            return None
        for server in members(region):
            if server in off:
                return self._row[server]
        return None


# -- hosts ------------------------------------------------------------------


def _cluster_host(names, off):
    sim = ClusterSimulation(policy="none", machines=names)
    for name, down in zip(names, off):
        if down:
            sim.request_off(name)
    if any(off):
        sim.step()  # one tick drains a quiesced server
    return sim.state_view()


def _flat_host(names, off):
    topology = Topology(
        names,
        [Zone("z0", 21.6), Zone("z1", 21.6), Zone("z2", 21.6)],
        {
            name: Position(f"z{i % 3}", i // 10, i % 10)
            for i, name in enumerate(names)
        },
    )
    sim = ScaleSimulation(topology, policy="none")
    for i, down in enumerate(off):
        if down:
            sim.set_power(i, False)
    return sim.state_view()


HOSTS = {"cluster": _cluster_host, "flat": _flat_host}


@st.composite
def rooms(draw):
    n = draw(st.integers(2, 200))
    return {
        "n": n,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "off_fraction": draw(st.sampled_from([0.0, 0.2, 0.6])),
        "known_fraction": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "peak": draw(st.sampled_from([0.05, 0.3, 0.9])),
        "min_active": draw(st.integers(0, n)),
        "util_low": draw(st.sampled_from([0.3, 0.6, 0.95])),
        "previous": draw(st.sampled_from([None, 0.0, 0.2])),
        "hot": draw(st.none() | st.integers(0, n - 1)),
    }


def _run(policy_cls, host, room):
    rng = np.random.default_rng(room["seed"])
    n = room["n"]
    # Unpadded names in shuffled rows: name order is not row order.
    names = tuple(f"m{k}" for k in rng.permutation(n))
    off = rng.random(n) < room["off_fraction"]
    view = HOSTS[host](names, off)
    # Few distinct weights, so the name tie-break decides often.
    for i, weight in enumerate(rng.choice([0.1, 0.5, 1.0], size=n)):
        view.set_weight(i, float(weight))
    policy = policy_cls(
        util_high=0.7, util_low=room["util_low"],
        min_active=room["min_active"],
    )
    policy.attach(view)
    for c in policy.classes:
        policy._util_store[c][:] = rng.random(n) * room["peak"]
    policy._util_known[:] = rng.random(n) < room["known_fraction"]
    if room["previous"] is not None:
        policy._previous_average = {
            c: room["previous"] for c in policy.classes
        }
    if room["hot"] is not None:
        policy.deliver(view, TempdMessage(
            type=MSG_ADJUST, machine=names[room["hot"]], time=56.0,
            output=0.3,
        ))
    policy.evaluate(view, 60.0)
    policy.evaluate(view, 64.0)
    return {
        "events": list(policy.events),
        "power": view.power_states().tolist(),
        "weights": view.weights().tolist(),
        "rr_index": policy.regions.rr_index,
    }


class TestShrinkMatchesOneAtATime:
    @pytest.mark.parametrize("host", sorted(HOSTS))
    @settings(max_examples=40, deadline=None)
    @given(room=rooms())
    def test_same_events_and_power_states(self, host, room):
        assert _run(FreonECPolicy, host, room) == _run(OneAtATimeEC, host, room)

    def test_a_large_shrink_is_exercised(self):
        room = {
            "n": 200, "seed": 7, "off_fraction": 0.0, "known_fraction": 1.0,
            "peak": 0.05, "min_active": 3, "util_low": 0.6,
            "previous": None, "hot": None,
        }
        batched = _run(FreonECPolicy, "flat", room)
        assert len(batched["events"]) > 150
        assert batched == _run(OneAtATimeEC, "flat", room)


# -- batched STATUS handling -----------------------------------------------


def _emergency_room():
    """60 machines through the t = 480 s emergency, with every third
    machine's inlet also pushed to 38.6 C so hot servers are replaced
    mid-wake, between other machines' STATUS rows."""
    events = inlet_events_from_script(emergency_script()) + [
        (480.0, f"machine{i}", 38.6) for i in range(4, 61, 3)
    ]
    return ScaleSimulation(
        grid_topology(60, zones=2), duration=2000.0, policy="freon-ec",
        phase_seed=1, inlet_events=events,
    )


def _first_wake_room():
    """Half the machines already past T_h at the first wake, under full
    load: every hot server's response counts the utilizations reported
    so far, so STATUS rows stored early or late change the decision."""
    events = [(0.0, f"machine{i}", 60.0) for i in range(2, 61, 2)]
    return ScaleSimulation(
        grid_topology(60, zones=2), duration=2000.0, policy="freon-ec",
        peak_utilization=0.95, valley_fraction=1.0, phase_seed=1,
        inlet_events=events, cpu_high=22.7, cpu_low=20.0,
    )


def _run_room(build, send_through):
    sim = build()
    policy = sim.controller
    if send_through:
        view = sim.state_view()
        policy.attach(
            view, send=lambda message: policy.deliver(view, message)
        )
    sim.step(900)
    return {
        "events": list(policy.events),
        "adjustments": list(policy.adjustments),
        "releases": list(policy.releases),
        "redlined": list(policy.redlined),
        "util_store": {c: a.tolist() for c, a in policy._util_store.items()},
        "util_known": policy._util_known.tolist(),
        "power": sim.power.tolist(),
        "weights": sim.weights.tolist(),
        "T": sim.solver.group.T.tolist(),
    }


class TestBulkStatus:
    """In place, STATUS rows are stored in runs; a pass-through ``send``
    handles every message singly, in send order."""

    @pytest.mark.parametrize("build", [_emergency_room, _first_wake_room])
    def test_matches_one_message_at_a_time(self, build):
        bulk = _run_room(build, send_through=False)
        assert any("hot server" in e.reason for e in bulk["events"])
        assert bulk == _run_room(build, send_through=True)


# -- the ordered sum ---------------------------------------------------------


def _fold(values):
    total = 0.0
    for value in values:
        total += float(value)
    return total


def _bits(x):
    return struct.pack("<d", x)


class TestOrderedSum:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        # Bounded so that no partial sum overflows.
        st.floats(min_value=-1e200, max_value=1e200, width=64),
        max_size=300,
    ))
    def test_bit_identical_to_a_left_fold(self, values):
        assert _bits(_ordered_sum(np.array(values))) == _bits(_fold(values))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20_000))
    def test_long_columns(self, seed, n):
        values = np.random.default_rng(seed).random(n) * 1e3 - 1.0
        assert _bits(_ordered_sum(values)) == _bits(_fold(values.tolist()))

    def test_edge_cases(self):
        assert _bits(_ordered_sum(np.array([]))) == _bits(0.0)
        assert _bits(_ordered_sum(np.array([-0.0, -0.0]))) == _bits(0.0)
