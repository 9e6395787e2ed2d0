"""Tests for the datacenter-scale simulation harness."""

import json

import pytest

np = pytest.importorskip("numpy")

from repro.cluster.simulation import emergency_script
from repro.errors import TopologyError
from repro.telemetry import Telemetry, parse_prometheus
from repro.topology import (
    ScaleSimulation,
    grid_topology,
    inlet_events_from_script,
)


def room(n=60, zones=3):
    return grid_topology(n, zones=zones, machines_per_rack=5)


class TestWorkload:
    def test_phase_offsets_decorrelate(self):
        sim = ScaleSimulation(room(), duration=1000.0, phase_spread=0.3)
        rates = sim.offered_rates(600.0)
        # Machines peak at different times, so instantaneous rates vary.
        assert rates.max() - rates.min() > 0.0
        zero_spread = ScaleSimulation(room(), duration=1000.0,
                                      phase_spread=0.0)
        flat_rates = zero_spread.offered_rates(600.0)
        assert flat_rates.max() == flat_rates.min()

    def test_run_summary(self):
        sim = ScaleSimulation(room(), duration=300.0)
        summary = sim.run()
        assert summary["machines"] == 60
        assert summary["zones"] == 3
        assert summary["ticks"] == 300
        assert summary["offered_requests"] > 0.0
        assert set(summary["zone_cpu_max"]) == {"zone0", "zone1", "zone2"}
        for zone, peak in summary["zone_cpu_max"].items():
            assert peak >= summary["zone_cpu_mean"][zone]

    def test_policy_throttles_hot_room(self):
        # A hot supply pushes CPUs over the threshold; the vectorized
        # policy must bite (weights drop) where the no-op policy doesn't.
        hot = grid_topology(20, zones=1, machines_per_rack=5,
                            supply_temperature=55.0)
        managed = ScaleSimulation(hot, duration=900.0, policy="freon")
        managed.step(900)
        unmanaged = ScaleSimulation(hot, duration=900.0, policy="none")
        unmanaged.step(900)
        assert managed.throttle_events > 0
        assert (managed.weights < 1.0).any()
        assert unmanaged.throttle_events == 0
        assert (unmanaged.weights == 1.0).all()

    def test_rejects_bad_args(self):
        with pytest.raises(TopologyError, match="policy"):
            ScaleSimulation(room(), policy="overclock")
        with pytest.raises(TopologyError, match="duration"):
            ScaleSimulation(room(), duration=0.0)


class TestTelemetry:
    def test_zone_labels_round_trip(self):
        telemetry = Telemetry()
        sim = ScaleSimulation(room(), duration=240.0, telemetry=telemetry)
        sim.run()
        parsed = parse_prometheus(telemetry.to_prometheus())
        # One labelled series per zone, surviving the text round trip.
        for zone in ("zone0", "zone1", "zone2"):
            key = ("scale_zone_cpu_max_celsius", (("zone", zone),))
            assert key in parsed
            assert parsed[key] > 0.0
        assert parsed[("sim_machines", ())] == 60.0
        assert parsed[("sim_zones", ())] == 3.0

    def test_null_telemetry_costs_nothing(self):
        sim = ScaleSimulation(room(), duration=120.0, telemetry=None)
        sim.run()
        assert not sim.telemetry.enabled


class TestCheckpoint:
    def test_bit_exact_resume(self):
        topo = room()
        sim = ScaleSimulation(topo, duration=600.0)
        sim.step(250)
        data = json.loads(json.dumps(sim.checkpoint()))
        clone = ScaleSimulation(topo, duration=600.0)
        clone.restore(data)
        sim.step(150)
        clone.step(150)
        assert np.array_equal(sim.solver.group.T, clone.solver.group.T)
        assert np.array_equal(sim.weights, clone.weights)
        assert sim.offered_total == clone.offered_total
        assert sim.dropped_total == clone.dropped_total
        assert sim.throttle_events == clone.throttle_events

    def test_resume_keeps_decision_logs(self):
        # Freon-EC through the t=480 emergency: the resumed controller
        # holds the whole run's EC events, not just its own half's.
        topo = room()
        events = inlet_events_from_script(emergency_script())

        def build():
            return ScaleSimulation(
                topo, duration=900.0, policy="freon-ec", inlet_events=events
            )

        whole = build()
        whole.run(900.0)
        first = build()
        first.run(450.0)
        data = json.loads(json.dumps(first.checkpoint()))
        resumed = build()
        resumed.restore(data)
        resumed.run(450.0)
        assert len(whole.controller.events) > 0
        assert resumed.controller.events == whole.controller.events
        assert resumed.controller.adjustments == whole.controller.adjustments
        assert json.dumps(resumed.controller.checkpoint()) == json.dumps(
            whole.controller.checkpoint()
        )

    def test_version_gate(self):
        sim = ScaleSimulation(room(), duration=60.0)
        data = sim.checkpoint()
        data["version"] = 99
        with pytest.raises(TopologyError, match="version"):
            sim.restore(data)


class TestOfferedRatesShape:
    def test_matches_scalar_diurnal_shape(self):
        from repro.cluster.tracegen import diurnal_shape

        sim = ScaleSimulation(room(), duration=1000.0, phase_spread=0.0)
        valley = sim._valley_rate
        peak = sim._peak_rate
        for t in (0.0, 137.0, 480.0, 600.0, 777.0, 950.0, 999.9):
            rates = sim.offered_rates(t)
            expected = valley + (peak - valley) * diurnal_shape(t, 1000.0)
            assert rates[0] == pytest.approx(expected)

    def test_continuous_at_day_boundary(self):
        # The descent reaches the valley exactly at t=duration, so the
        # phase-wrapped curve has no cliff at the seam.
        sim = ScaleSimulation(room(), duration=1000.0, phase_spread=0.3)
        eps = 1e-9
        before = sim.offered_rates(1000.0 - eps)
        after = sim.offered_rates(0.0)
        assert np.allclose(before, after, rtol=1e-5, atol=1e-5)


class TestCloning:
    def cfg(self, **kw):
        from repro.cluster.lvs import CloningConfig

        return CloningConfig(**kw)

    def test_summary_gains_clone_keys_only_when_configured(self):
        plain = ScaleSimulation(room(), duration=120.0)
        summary = plain.run()
        assert "clone_ticks" not in summary
        assert "shed_ticks" not in summary

        cloned = ScaleSimulation(
            room(), duration=120.0, cloning=self.cfg(clones=2)
        )
        summary = cloned.run()
        assert summary["clone_ticks"] + summary["shed_ticks"] == 120
        assert summary["clone_latency_scale"] == pytest.approx(0.5)

    def test_low_load_room_clones_every_tick(self):
        sim = ScaleSimulation(
            room(), duration=120.0, cloning=self.cfg(clones=2)
        )
        sim.step(120)
        # The diurnal valley sits far below the shed ceiling.
        assert sim.clone_ticks > 0

    def test_checkpoint_roundtrip_preserves_clone_counters(self):
        topo = room()
        cfg = self.cfg(clones=2)
        sim = ScaleSimulation(topo, duration=600.0, cloning=cfg)
        sim.step(200)
        data = json.loads(json.dumps(sim.checkpoint()))
        assert "clone_ticks" in data
        clone = ScaleSimulation(topo, duration=600.0, cloning=cfg)
        clone.restore(data)
        sim.step(100)
        clone.step(100)
        assert sim.clone_ticks == clone.clone_ticks
        assert sim.shed_ticks == clone.shed_ticks
        assert sim.offered_total == clone.offered_total

    def test_classic_checkpoint_has_no_clone_keys(self):
        sim = ScaleSimulation(room(), duration=120.0)
        sim.step(50)
        data = sim.checkpoint()
        assert "clone_ticks" not in data
        assert "shed_ticks" not in data
