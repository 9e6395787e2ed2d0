"""Tests for the traditional red-line-shutdown policy."""

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.cluster.tracegen import constant_trace
from repro.control import POWER_ACTIVE, TraditionalControlPolicy
from repro.freon.policy import FreonConfig

from ..control.fake_view import FakeView


#: Drives machine 1's CPU past its red line just before the first wake.
OVERHEAT_MACHINE1 = "sleep 50\nfiddle machine1 temperature CPU 80\n"


class Harness:
    """Two machines, their readings, and the machines switched off."""

    def __init__(self, off=()):
        self.view = FakeView(("m1", "m2"), off=off)
        self.temps = self.view.temperatures
        self.killed = self.view.off_requests
        self.policy = TraditionalControlPolicy(FreonConfig())

    def check(self, now):
        before = len(self.policy.shutdowns)
        self.policy.wake(self.view, now)
        return self.policy.shutdowns[before:]


@pytest.fixture
def harness():
    return Harness()


class TestRedlineShutdown:
    def test_quiet_below_redline(self, harness):
        harness.temps["m1"]["cpu"] = 68.9  # above high, below red (69)
        assert harness.check(60.0) == []
        assert harness.killed == []

    def test_shutdown_at_redline(self, harness):
        harness.temps["m1"]["cpu"] = 69.0
        events = harness.check(60.0)
        assert harness.killed == ["m1"]
        assert events[0].machine == "m1"
        assert events[0].component == "cpu"
        assert events[0].temperature == 69.0

    def test_disk_redline_also_triggers(self, harness):
        harness.temps["m2"]["disk"] = 67.5  # disk red line is 67
        harness.check(60.0)
        assert harness.killed == ["m2"]

    def test_dead_servers_not_rechecked(self, harness):
        harness.temps["m1"]["cpu"] = 70.0
        harness.check(60.0)
        harness.view.power["m1"] = POWER_ACTIVE  # even if it came back on
        harness.check(120.0)
        assert harness.killed == ["m1"]
        assert len(harness.policy.shutdowns) == 1

    def test_multiple_servers_can_die(self, harness):
        harness.temps["m1"]["cpu"] = 70.0
        harness.temps["m2"]["cpu"] = 71.0
        harness.check(60.0)
        assert sorted(harness.killed) == ["m1", "m2"]

    def test_off_servers_skipped(self):
        harness = Harness(off=("m1",))
        harness.temps["m1"]["cpu"] = 80.0
        harness.check(60.0)
        assert harness.killed == []

    def test_tick_cadence(self):
        # The cluster's kernel runs the check once per monitor period.
        sim = ClusterSimulation(
            policy="traditional", trace=constant_trace(120.0, 400.0),
            fiddle_script=OVERHEAT_MACHINE1,
        )
        sim.run(59)
        assert sim.controller.shutdowns == []
        sim.run(1)
        assert [s.time for s in sim.controller.shutdowns] == [60.0]


class TestSensorDropout:
    """A failed read blinds the traditional policy; it must not crash."""

    @pytest.fixture(scope="class")
    def run(self):
        sim = ClusterSimulation(
            policy="traditional",
            trace=constant_trace(120.0, 400.0),
            fiddle_script=(
                "fault machine2 sensor dropout cpu\n" + OVERHEAT_MACHINE1
                + "fiddle machine2 temperature CPU 80\n"
            ),
        )
        return sim, sim.run(130)

    def test_run_completes(self, run):
        sim, result = run
        assert len(result.records) == 130

    def test_blind_machine_stays_up(self, run):
        sim, result = run
        assert result.records[-1].servers["machine2"].state != "off"
        assert "machine2" not in [s.machine for s in result.shutdowns]

    def test_others_still_protected(self, run):
        sim, result = run
        assert [s.machine for s in result.shutdowns] == ["machine1"]
        assert result.records[-1].servers["machine1"].state == "off"
