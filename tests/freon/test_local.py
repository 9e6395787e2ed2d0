"""Tests for the CPU-local DVFS thermal governor (section 4.3)."""

from repro.cluster.simulation import ClusterSimulation
from repro.control import DEFAULT_PSTATES, LocalDvfsPolicy

from ..control.fake_view import FakeView


def make(temperature=50.0, machines=("m1",)):
    view = FakeView(machines)
    for name in machines:
        view.temperatures[name]["cpu"] = temperature
    policy = LocalDvfsPolicy()
    policy.attach(view)
    return view, policy


def decide(view, policy, now=5.0):
    """One wake; True when it changed a P-state."""
    before = len(policy.pstate_changes)
    policy.wake(view, now)
    return len(policy.pstate_changes) > before


class TestConstruction:
    def test_defaults(self):
        view, policy = make()
        assert policy.pstate == [0]
        assert policy.high == 67.0
        assert policy.low == 64.0
        assert decide(view, policy) is False
        assert view.dvfs_calls == []


class TestThermostat:
    def test_steps_down_when_hot(self):
        view, policy = make(temperature=70.0)
        assert decide(view, policy) is True
        assert policy.pstate == [1]
        assert view.dvfs_calls == [("m1", *DEFAULT_PSTATES[1])]

    def test_one_step_per_decision(self):
        view, policy = make(temperature=90.0)
        decide(view, policy)
        decide(view, policy)
        assert policy.pstate == [2]  # not slammed to the bottom at once

    def test_clamps_at_lowest_pstate(self):
        view, policy = make(temperature=90.0)
        for _ in range(10):
            decide(view, policy)
        assert policy.pstate == [len(DEFAULT_PSTATES) - 1]
        assert len(view.dvfs_calls) == len(DEFAULT_PSTATES) - 1

    def test_steps_back_up_when_cool(self):
        view, policy = make(temperature=70.0)
        decide(view, policy)
        view.temperatures["m1"]["cpu"] = 60.0
        assert decide(view, policy) is True
        assert policy.pstate == [0]
        assert view.dvfs_calls[-1] == ("m1", *DEFAULT_PSTATES[0])

    def test_hysteresis_band_is_quiet(self):
        view, policy = make(temperature=70.0)
        decide(view, policy)
        view.temperatures["m1"]["cpu"] = 65.5  # between low (64) and high (67)
        assert decide(view, policy) is False
        assert policy.pstate == [1]

    def test_never_above_top_pstate(self):
        view, policy = make(temperature=50.0)
        assert decide(view, policy) is False
        assert policy.pstate == [0]

    def test_changes_recorded(self):
        view, policy = make(temperature=70.0)
        decide(view, policy, now=35.0)
        change = policy.pstate_changes[0]
        assert change.time == 35.0
        assert change.index == 1
        assert change.temperature == 70.0
        assert change.frequency_ratio == DEFAULT_PSTATES[1][0]
        assert change.power_ratio == DEFAULT_PSTATES[1][1]

    def test_failed_read_holds(self):
        view, policy = make(temperature=70.0)
        decide(view, policy)
        view.failing.add("m1")
        view.temperatures["m1"]["cpu"] = 90.0
        assert decide(view, policy) is False
        view.temperatures["m1"]["cpu"] = 50.0
        assert decide(view, policy) is False
        assert policy.pstate == [1]

    def test_machines_decide_independently(self):
        view, policy = make(machines=("m1", "m2", "m3"))
        view.temperatures["m1"]["cpu"] = 70.0
        view.temperatures["m3"]["cpu"] = 70.0
        decide(view, policy)
        assert policy.pstate == [1, 0, 1]
        assert [m for m, _, _ in view.dvfs_calls] == ["m1", "m3"]

    def test_checkpoint_round_trip(self):
        view, policy = make(temperature=70.0, machines=("m1", "m2"))
        decide(view, policy)
        restored = LocalDvfsPolicy()
        restored.restore(policy.checkpoint())
        assert restored.pstate == policy.pstate
        assert restored.pstate_changes == policy.pstate_changes


class TestTickCadence:
    def test_respects_period(self):
        # The host wakes the policy on its own 5 s clock.
        sim = ClusterSimulation(policy="local-dvfs")
        assert sim.kernel.next_of("wake").time == 5.0
        sim.run(6)
        assert sim.kernel.next_of("wake").time == 10.0

    def test_throttled_property(self):
        # Throttling shows in the view: a sub-nominal frequency.
        view, policy = make(temperature=70.0)
        decide(view, policy)
        machine, frequency, power = view.dvfs_calls[-1]
        assert machine == "m1"
        assert frequency < 1.0 and power < 1.0
