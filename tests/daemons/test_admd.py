"""Tests for admd's behaviour: the delivery half of the Freon policy.

Each test hands tempd messages to :meth:`FreonPolicy.deliver` over a
four-machine fake view backed by a real load balancer.
"""

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.control import FreonPolicy
from repro.daemons.tempd import (
    MSG_ADJUST,
    MSG_REDLINE,
    MSG_RELEASE,
    TempdMessage,
)
from repro.freon.policy import FreonConfig

from ..control.fake_view import FakeView


@pytest.fixture
def view():
    return FakeView(("m1", "m2", "m3", "m4"))


@pytest.fixture
def balancer(view):
    return view.balancer


@pytest.fixture
def admd(view):
    policy = FreonPolicy(FreonConfig())
    policy.attach(view)
    return Admd(policy, view)


class Admd:
    """The policy's admd entry points bound to one view."""

    def __init__(self, policy, view):
        self.policy = policy
        self.view = view

    def deliver(self, message):
        self.policy.deliver(self.view, message)

    def sample(self, now):
        self.policy.sample(self.view, now)


def adjust(machine, output, time=60.0):
    return TempdMessage(type=MSG_ADJUST, machine=machine, time=time, output=output)


class TestAdjust:
    def test_weight_reduced_for_target_share(self, balancer, admd):
        # output=1 -> target share = (1/4)/2 = 1/8; with W_rest=3 the new
        # weight is (1/8*3)/(7/8) = 3/7.
        admd.deliver(adjust("m1", 1.0))
        assert balancer.server("m1").weight == pytest.approx(3.0 / 7.0)

    def test_resulting_share_is_half_for_output_one(self, balancer, admd):
        admd.deliver(adjust("m1", 1.0))
        weights = {s.name: s.weight for s in balancer.active_servers()}
        share = weights["m1"] / sum(weights.values())
        assert share == pytest.approx(0.125)

    def test_zero_output_keeps_weight(self, balancer, admd):
        admd.deliver(adjust("m1", 0.0))
        assert balancer.server("m1").weight == pytest.approx(1.0)

    def test_connection_cap_set_from_average(self, balancer, admd):
        balancer.server("m1").active_connections = 10.0
        admd.sample(55.0)
        balancer.server("m1").active_connections = 20.0
        admd.sample(60.0)
        admd.deliver(adjust("m1", 0.5))
        assert balancer.server("m1").connection_limit == pytest.approx(15.0)

    def test_cap_falls_back_to_current_connections(self, balancer, admd):
        balancer.server("m1").active_connections = 7.0
        admd.deliver(adjust("m1", 0.5))
        assert balancer.server("m1").connection_limit == pytest.approx(7.0)

    def test_adjustment_recorded(self, admd):
        admd.deliver(adjust("m1", 0.4, time=120.0))
        assert admd.policy.adjustments == [(120.0, "m1", 0.4)]

    def test_adjust_on_inactive_server_ignored(self, balancer, admd):
        balancer.quiesce("m1")
        admd.deliver(adjust("m1", 1.0))
        assert balancer.server("m1").weight == pytest.approx(1.0)

    def test_consecutive_adjustments_compound(self, balancer, admd):
        admd.deliver(adjust("m1", 1.0))
        first = balancer.server("m1").weight
        admd.deliver(adjust("m1", 1.0))
        assert balancer.server("m1").weight < first


class TestRelease:
    def test_release_restores_defaults(self, balancer, admd):
        admd.deliver(adjust("m1", 2.0))
        admd.deliver(
            TempdMessage(type=MSG_RELEASE, machine="m1", time=300.0)
        )
        server = balancer.server("m1")
        assert server.weight == pytest.approx(1.0)
        assert server.connection_limit is None
        assert admd.policy.releases == [(300.0, "m1")]


class TestRedline:
    def test_redline_invokes_turn_off(self, view, admd):
        admd.deliver(TempdMessage(type=MSG_REDLINE, machine="m2", time=60.0))
        assert view.off_requests == ["m2"]
        assert admd.policy.redlined == [(60.0, "m2")]

    def test_redline_without_hook_is_recorded_only(self, admd):
        # A host without power control (e.g. a multi-tier tier) ignores
        # the switch; the report is still on record.
        admd.view.set_power = lambda index, on: None
        admd.deliver(TempdMessage(type=MSG_REDLINE, machine="m2", time=60.0))
        assert admd.policy.redlined == [(60.0, "m2")]


class TestStatsSampling:
    def test_tick_samples_every_stats_period(self):
        # The cluster's kernel drives sample() on the stats-period grid.
        sim = ClusterSimulation(policy="freon")
        sim.run(60)
        samples = [t for t, _ in sim.controller._windows]
        assert samples == [float(t) for t in range(5, 61, 5)]

    def test_window_limited_to_monitor_period(self, balancer, admd):
        # Old samples beyond the monitor period fall out of the average.
        balancer.server("m1").active_connections = 100.0
        admd.sample(0.0)
        balancer.server("m1").active_connections = 10.0
        for t in range(5, 70, 5):
            admd.sample(float(t))
        admd.deliver(adjust("m1", 0.5))
        assert balancer.server("m1").connection_limit == pytest.approx(10.0)
