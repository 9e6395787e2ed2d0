"""Tests for tempd's behaviour: the monitor-period half of the Freon policy.

Each test drives :class:`~repro.control.FreonPolicy` over a one-machine
fake view and inspects the tempd -> admd messages it sends.
"""

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.control import FreonECPolicy, FreonPolicy
from repro.daemons.tempd import (
    MSG_ADJUST,
    MSG_REDLINE,
    MSG_RELEASE,
    MSG_STATUS,
)
from repro.freon.policy import ComponentThresholds, FreonConfig
from repro.telemetry import Telemetry

from ..control.fake_view import FakeView


def make_config(period=60.0):
    return FreonConfig(
        thresholds={
            "cpu": ComponentThresholds(high=67.0, low=64.0, red=69.0),
            "disk": ComponentThresholds(high=65.0, low=62.0, red=67.0),
        },
        monitor_period=period,
    )


class Harness:
    """One machine "m1", its readings, and the messages its tempd sent."""

    def __init__(self, policy_class=FreonPolicy):
        self.view = FakeView(("m1",))
        self.sensor = self.view.temperatures["m1"]
        self.messages = []
        self.policy = policy_class(make_config())
        self.policy.attach(self.view, send=self.messages.append)

    def wake(self, now):
        self.policy.wake(self.view, now)

    @property
    def restricted(self):
        return bool(self.policy.restricted[0])


@pytest.fixture
def harness():
    return Harness()


class TestQuietOperation:
    def test_no_messages_below_thresholds(self, harness):
        harness.wake(60.0)
        assert harness.messages == []
        assert not harness.restricted

    def test_no_release_without_prior_restriction(self, harness):
        harness.sensor["cpu"] = 50.0  # below low threshold
        harness.wake(60.0)
        assert harness.messages == []


class TestAdjustPath:
    def test_adjust_sent_above_high(self, harness):
        harness.sensor["cpu"] = 68.5
        harness.wake(60.0)
        assert len(harness.messages) == 1
        msg = harness.messages[0]
        assert msg.type == MSG_ADJUST
        assert msg.machine == "m1"
        # First observation: derivative contributes nothing; kp*(68.5-67).
        assert msg.output == pytest.approx(0.15)

    def test_derivative_term_on_second_wake(self, harness):
        harness.sensor["cpu"] = 68.0
        harness.wake(60.0)
        harness.sensor["cpu"] = 68.8
        harness.wake(120.0)
        # kp*(68.8-67) + kd*(68.8-68.0) = 0.18 + 0.16
        assert harness.messages[1].output == pytest.approx(0.34)

    def test_repeated_while_hot(self, harness):
        harness.sensor["cpu"] = 68.5
        for i in range(3):
            harness.wake(60.0 * (i + 1))
        assert [m.type for m in harness.messages] == [MSG_ADJUST] * 3

    def test_max_over_components(self, harness):
        harness.sensor["cpu"] = 68.0   # output 0.1
        harness.sensor["disk"] = 66.5  # output 0.15 over its own 65 threshold
        harness.wake(60.0)
        assert harness.messages[0].output == pytest.approx(0.15)

    def test_between_thresholds_is_silent(self, harness):
        # "For temperatures between T_h and T_l, Freon does not adjust
        # the load distribution as there is no communication".
        harness.sensor["cpu"] = 68.5
        harness.wake(60.0)
        harness.sensor["cpu"] = 65.5  # between low (64) and high (67)
        harness.wake(120.0)
        assert [m.type for m in harness.messages] == [MSG_ADJUST]
        assert harness.restricted


class TestReleasePath:
    def test_release_when_all_below_low(self, harness):
        harness.sensor["cpu"] = 68.5
        harness.wake(60.0)
        harness.sensor["cpu"] = 63.0
        harness.wake(120.0)
        assert [m.type for m in harness.messages] == [MSG_ADJUST, MSG_RELEASE]
        assert not harness.restricted

    def test_release_requires_all_components_cool(self, harness):
        harness.sensor["cpu"] = 68.5
        harness.wake(60.0)
        harness.sensor["cpu"] = 63.0
        harness.sensor["disk"] = 63.0  # still above the disk low threshold (62)
        harness.wake(120.0)
        assert [m.type for m in harness.messages] == [MSG_ADJUST]

    def test_release_sent_once(self, harness):
        harness.sensor["cpu"] = 68.5
        harness.wake(60.0)
        harness.sensor["cpu"] = 60.0
        harness.wake(120.0)
        harness.wake(180.0)
        assert [m.type for m in harness.messages] == [MSG_ADJUST, MSG_RELEASE]


class TestRedline:
    def test_redline_message(self, harness):
        harness.sensor["cpu"] = 69.5
        harness.wake(60.0)
        types = [m.type for m in harness.messages]
        assert types == [MSG_REDLINE, MSG_ADJUST]  # still above high too

    def test_redline_carries_temperatures(self, harness):
        harness.sensor["cpu"] = 70.0
        harness.sensor["disk"] = 68.0
        harness.wake(60.0)
        red = [m for m in harness.messages if m.type == MSG_REDLINE][0]
        assert red.temperatures == {"cpu": 70.0, "disk": 68.0}


class TestStatusMode:
    def test_status_sent_with_utilization_reader(self):
        harness = Harness(FreonECPolicy)
        harness.view.utilizations["m1"] = {"cpu": 0.42, "disk": 0.1}
        harness.wake(60.0)
        assert [m.type for m in harness.messages] == [MSG_STATUS]
        assert harness.messages[0].utilizations == {"cpu": 0.42, "disk": 0.1}


def _wakes(telemetry):
    return telemetry.registry.total("tempd_wakes_total")


class TestTickCadence:
    """The wake cadence lives in the cluster's event kernel."""

    def test_tick_respects_period(self):
        telemetry = Telemetry()
        sim = ClusterSimulation(policy="freon", telemetry=telemetry)
        sim.run(59)
        assert _wakes(telemetry) == 0
        sim.run(1)
        assert _wakes(telemetry) == len(sim.machines)  # one per tempd

    def test_single_large_dt_fires_once(self):
        telemetry = Telemetry()
        sim = ClusterSimulation(policy="freon", telemetry=telemetry, dt=60.0)
        sim.step()
        assert _wakes(telemetry) == len(sim.machines)
