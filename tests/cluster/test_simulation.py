"""Tests for the full cluster simulation harness (short runs)."""

import pytest

from repro.cluster.simulation import (
    ClusterSimulation,
    emergency_script,
)
from repro.cluster.tracegen import constant_trace, diurnal_trace
from repro.cluster.webserver import PowerState
from repro.config import table1
from repro.errors import ClusterError


def short_trace(rate=120.0, duration=400.0):
    return constant_trace(rate, duration)


class TestConstruction:
    def test_unknown_policy(self):
        with pytest.raises(ClusterError):
            ClusterSimulation(policy="cryogenics")

    def test_policy_wiring(self):
        from repro.control import (
            FreonECPolicy,
            FreonPolicy,
            TraditionalControlPolicy,
        )

        assert ClusterSimulation(policy="none").controller is None
        assert ClusterSimulation(policy="local-dvfs").controller is None
        freon = ClusterSimulation(policy="freon")
        assert type(freon.controller) is FreonPolicy
        assert freon.channel is not None
        assert isinstance(
            ClusterSimulation(policy="freon-ec").controller, FreonECPolicy
        )
        traditional = ClusterSimulation(policy="traditional")
        assert isinstance(traditional.controller, TraditionalControlPolicy)
        assert traditional.channel is None  # no tempd -> admd traffic

    def test_default_trace_attached(self):
        sim = ClusterSimulation(policy="none")
        assert sim.trace.duration > 0


class TestBasicRun:
    def test_load_spreads_evenly(self):
        sim = ClusterSimulation(policy="none", trace=short_trace())
        result = sim.run(100)
        record = result.records[-1]
        utils = [record.servers[m].cpu_utilization for m in sim.machines]
        assert max(utils) - min(utils) < 1e-6
        assert utils[0] == pytest.approx(30.0 * sim.webservers["machine1"].mix.cpu_demand)

    def test_temperatures_rise_with_load(self):
        sim = ClusterSimulation(policy="none", trace=short_trace(rate=300.0))
        result = sim.run(400)
        start = result.records[10].servers["machine1"].cpu_temperature
        end = result.records[-1].servers["machine1"].cpu_temperature
        assert end > start + 5.0

    def test_no_drops_under_light_load(self):
        sim = ClusterSimulation(policy="none", trace=short_trace(rate=50.0))
        result = sim.run(200)
        assert result.drop_fraction == 0.0

    def test_overload_drops(self):
        # 4 servers x ~112 req/s capacity; offer 600/s.
        sim = ClusterSimulation(policy="none", trace=short_trace(rate=600.0))
        result = sim.run(200)
        assert result.drop_fraction > 0.2

    def test_records_per_tick(self):
        sim = ClusterSimulation(policy="none", trace=short_trace())
        result = sim.run(50)
        assert len(result.records) == 50
        assert result.times() == [float(t) for t in range(50)]

    def test_result_series_accessors(self):
        sim = ClusterSimulation(policy="none", trace=short_trace())
        result = sim.run(20)
        assert len(result.series("machine2", "cpu_utilization")) == 20
        assert result.active_series() == [4] * 20


class TestFiddleIntegration:
    def test_emergency_script_raises_inlet(self):
        sim = ClusterSimulation(
            policy="none",
            trace=short_trace(duration=700.0),
            fiddle_script=emergency_script(time=100.0),
        )
        result = sim.run(600)
        hot = result.records[-1].servers["machine1"].cpu_temperature
        cool = result.records[-1].servers["machine2"].cpu_temperature
        assert hot > cool + 8.0
        assert len(result.fiddle_log) == 2

    def test_emergency_script_contents(self):
        script = emergency_script()
        assert "sleep 480" in script
        assert "machine1 temperature inlet 38.6" in script
        assert "machine3 temperature inlet 35.6" in script


class TestPowerControl:
    def test_request_off_drains_then_off(self):
        sim = ClusterSimulation(policy="none", trace=short_trace())
        sim.run(10)
        sim.request_off("machine2")
        sim.run(5)
        assert sim.webservers["machine2"].state is PowerState.OFF
        record = sim.records[-1]
        assert record.servers["machine2"].state == "off"
        assert record.active_servers == 3

    def test_off_machine_cools_to_inlet(self):
        sim = ClusterSimulation(policy="none", trace=short_trace(rate=250.0, duration=3000.0))
        sim.run(300)
        sim.request_off("machine2")
        sim.run(2500)
        temp = sim.records[-1].servers["machine2"].cpu_temperature
        assert temp == pytest.approx(table1.INLET_TEMPERATURE, abs=1.0)

    def test_load_shifts_to_survivors(self):
        sim = ClusterSimulation(policy="none", trace=short_trace(rate=120.0, duration=1000.0))
        sim.run(10)
        before = sim.records[-1].servers["machine1"].cpu_utilization
        sim.request_off("machine4")
        sim.run(20)
        after = sim.records[-1].servers["machine1"].cpu_utilization
        assert after == pytest.approx(before * 4.0 / 3.0, rel=0.05)

    def test_request_on_boots_and_rejoins(self):
        sim = ClusterSimulation(policy="none", trace=short_trace(duration=1000.0), boot_time=5.0)
        sim.run(10)
        sim.request_off("machine3")
        sim.run(10)
        sim.request_on("machine3")
        sim.run(3)
        assert sim.records[-1].servers["machine3"].state == "booting"
        sim.run(10)
        assert sim.records[-1].servers["machine3"].state == "active"
        assert sim.records[-1].servers["machine3"].cpu_utilization > 0.0

    def test_boot_spike_visible_in_utilization(self):
        sim = ClusterSimulation(policy="none", trace=short_trace(duration=1000.0), boot_time=10.0)
        sim.run(5)
        sim.request_off("machine1")
        sim.run(5)
        sim.request_on("machine1")
        sim.run(5)
        assert sim.records[-1].servers["machine1"].cpu_utilization == 1.0

    def test_redundant_requests_ignored(self):
        sim = ClusterSimulation(policy="none", trace=short_trace())
        sim.run(5)
        sim.request_on("machine1")  # already on: no-op
        sim.request_off("machine2")
        sim.run(3)
        sim.request_off("machine2")  # already off: no-op
        assert sim.records[-1].active_servers == 3
