"""Tests for the LVS-style weighted least-connections balancer model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster.lvs import LoadBalancer, ServerState
from repro.errors import ClusterError, ServerStateError


@pytest.fixture
def balancer():
    return LoadBalancer(["m1", "m2", "m3", "m4"])


def uniform(names, value):
    return {name: value for name in names}


NAMES = ["m1", "m2", "m3", "m4"]
CAP = uniform(NAMES, 100.0)
RT = uniform(NAMES, 0.05)


class TestConstruction:
    def test_requires_servers(self):
        with pytest.raises(ClusterError):
            LoadBalancer([])

    def test_unknown_server(self, balancer):
        with pytest.raises(ClusterError):
            balancer.server("nope")


class TestWeightedAllocation:
    def test_equal_weights_split_evenly(self, balancer):
        allocation = balancer.allocate(80.0, CAP, RT)
        for name in NAMES:
            assert allocation.rates[name] == pytest.approx(20.0)
        assert allocation.dropped_rate == 0.0

    def test_weights_shift_load(self, balancer):
        balancer.set_weight("m1", 3.0)
        allocation = balancer.allocate(60.0, CAP, RT)
        assert allocation.rates["m1"] == pytest.approx(30.0)
        assert allocation.rates["m2"] == pytest.approx(10.0)

    def test_zero_offered(self, balancer):
        allocation = balancer.allocate(0.0, CAP, RT)
        assert all(rate == 0.0 for rate in allocation.rates.values())

    def test_negative_offered_rejected(self, balancer):
        with pytest.raises(ClusterError):
            balancer.allocate(-1.0, CAP, RT)

    def test_minimum_weight_floor(self, balancer):
        balancer.set_weight("m1", 0.0)
        assert balancer.server("m1").weight > 0.0

    @given(offered=st.floats(min_value=0.0, max_value=350.0))
    def test_conservation(self, offered):
        balancer = LoadBalancer(NAMES)
        allocation = balancer.allocate(offered, CAP, RT)
        total = sum(allocation.rates.values()) + allocation.dropped_rate
        assert total == pytest.approx(offered, abs=1e-6)

    @given(
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=4, max_size=4
        )
    )
    def test_rates_proportional_to_weights(self, weights):
        balancer = LoadBalancer(NAMES)
        for name, weight in zip(NAMES, weights):
            balancer.set_weight(name, weight)
        allocation = balancer.allocate(50.0, CAP, RT)
        total_weight = sum(weights)
        for name, weight in zip(NAMES, weights):
            assert allocation.rates[name] == pytest.approx(
                50.0 * weight / total_weight, rel=1e-6
            )


class TestCapsAndCapacity:
    def test_capacity_ceiling_respected(self, balancer):
        capacity = dict(CAP)
        capacity["m1"] = 10.0
        allocation = balancer.allocate(200.0, capacity, RT)
        assert allocation.rates["m1"] == pytest.approx(10.0)
        # The other three absorb the remainder.
        assert sum(allocation.rates.values()) == pytest.approx(200.0)

    def test_connection_limit_caps_rate(self, balancer):
        # Little's law: cap 2 connections at 0.05 s response time -> 40/s.
        balancer.set_connection_limit("m1", 2.0)
        allocation = balancer.allocate(400.0, CAP, RT)
        assert allocation.rates["m1"] == pytest.approx(40.0)

    def test_drops_when_everything_saturated(self, balancer):
        allocation = balancer.allocate(500.0, CAP, RT)
        assert allocation.dropped_rate == pytest.approx(100.0)
        assert balancer.total_dropped == pytest.approx(100.0)

    def test_drop_fraction_accumulates(self, balancer):
        balancer.allocate(500.0, CAP, RT)
        balancer.allocate(300.0, CAP, RT)
        assert balancer.drop_fraction() == pytest.approx(100.0 / 800.0)

    def test_unlimited_when_no_cap(self, balancer):
        balancer.set_connection_limit("m1", None)
        allocation = balancer.allocate(100.0, CAP, RT)
        assert allocation.rates["m1"] == pytest.approx(25.0)

    def test_negative_limit_rejected(self, balancer):
        with pytest.raises(ClusterError):
            balancer.set_connection_limit("m1", -1.0)


class TestMembership:
    def test_quiesced_server_gets_nothing(self, balancer):
        balancer.quiesce("m1")
        allocation = balancer.allocate(90.0, CAP, RT)
        assert allocation.rates["m1"] == 0.0
        assert sum(allocation.rates.values()) == pytest.approx(90.0)

    def test_mark_off_requires_drained(self, balancer):
        balancer.quiesce("m1")
        balancer.server("m1").active_connections = 3.0
        with pytest.raises(ServerStateError):
            balancer.mark_off("m1")
        balancer.server("m1").active_connections = 0.0
        balancer.mark_off("m1")
        assert balancer.server("m1").state is ServerState.OFF

    def test_quiesce_off_server_rejected(self, balancer):
        balancer.quiesce("m1")
        balancer.server("m1").active_connections = 0.0
        balancer.mark_off("m1")
        with pytest.raises(ServerStateError):
            balancer.quiesce("m1")

    def test_activate_restores_scheduling(self, balancer):
        balancer.quiesce("m1")
        balancer.activate("m1")
        allocation = balancer.allocate(40.0, CAP, RT)
        assert allocation.rates["m1"] == pytest.approx(10.0)

    def test_no_active_servers_drops_everything(self):
        balancer = LoadBalancer(["only"])
        balancer.quiesce("only")
        allocation = balancer.allocate(10.0, {"only": 100.0}, {"only": 0.05})
        assert allocation.dropped_rate == pytest.approx(10.0)

    def test_connection_stats(self, balancer):
        balancer.server("m2").active_connections = 5.5
        stats = balancer.connection_stats()
        assert stats["m2"] == 5.5
        assert stats["m1"] == 0.0


class TestActiveCacheInvalidation:
    """Every state transition must drop the cached active-server list.

    The regression mode: ``allocate`` caches (active servers, weight
    sum); a later ``quiesce``/``mark_off``/``activate``/``set_weight``
    that forgot to invalidate would keep scheduling to stale membership.
    """

    def test_quiesce_after_cached_allocate(self, balancer):
        balancer.allocate(80.0, CAP, RT)  # populates _active_cache
        balancer.quiesce("m1")
        allocation = balancer.allocate(80.0, CAP, RT)
        assert allocation.rates["m1"] == 0.0
        assert sum(allocation.rates.values()) == pytest.approx(80.0)

    def test_mark_off_after_cached_allocate(self, balancer):
        balancer.allocate(80.0, CAP, RT)
        balancer.quiesce("m1")
        balancer.allocate(80.0, CAP, RT)
        balancer.mark_off("m1")
        assert balancer.server("m1") not in balancer.active_servers()

    def test_activate_after_cached_allocate(self, balancer):
        balancer.quiesce("m1")
        balancer.allocate(80.0, CAP, RT)  # cache excludes m1
        balancer.activate("m1")
        allocation = balancer.allocate(80.0, CAP, RT)
        assert allocation.rates["m1"] == pytest.approx(20.0)

    def test_set_weight_after_cached_allocate(self, balancer):
        balancer.allocate(80.0, CAP, RT)
        balancer.set_weight("m1", 3.0)
        allocation = balancer.allocate(60.0, CAP, RT)
        assert allocation.rates["m1"] == pytest.approx(30.0)


class TestVectorizedAllocate:
    def test_infinite_ceilings_place_everything(self):
        from repro.cluster.lvs import allocate_rates

        rates, dropped = allocate_rates(
            1000.0, np.ones(8), np.full(8, np.inf)
        )
        assert dropped == 0.0
        assert rates.sum() == pytest.approx(1000.0)
        assert rates == pytest.approx(np.full(8, 125.0))

    def test_all_saturated_drops_excess(self):
        from repro.cluster.lvs import allocate_rates

        rates, dropped = allocate_rates(
            500.0, np.ones(4), np.full(4, 100.0)
        )
        assert rates == pytest.approx(np.full(4, 100.0))
        assert dropped == pytest.approx(100.0)

    def test_zero_weight_servers_get_nothing(self):
        from repro.cluster.lvs import allocate_rates

        weights = np.array([1.0, 0.0, 1.0])
        rates, dropped = allocate_rates(90.0, weights, np.full(3, 100.0))
        assert rates[1] == 0.0
        assert rates.sum() + dropped == pytest.approx(90.0)


class TestCloning:
    def cfg(self, **kw):
        from repro.cluster.lvs import CloningConfig

        return CloningConfig(**kw)

    def test_work_multiplier_and_latency_scale(self):
        cfg = self.cfg(clones=2, cancel_overhead=0.10)
        assert cfg.work_multiplier == pytest.approx(1.05)
        assert cfg.latency_scale == pytest.approx(0.5)
        assert self.cfg(clones=1).work_multiplier == 1.0

    def test_rejects_bad_config(self):
        with pytest.raises(ClusterError):
            self.cfg(clones=0)
        with pytest.raises(ClusterError):
            self.cfg(cancel_overhead=1.5)
        with pytest.raises(ClusterError):
            self.cfg(utilization_ceiling=0.0)

    def test_low_load_clones(self, balancer):
        cfg = self.cfg(clones=2)
        allocation = balancer.allocate_cloned(100.0, CAP, RT, cfg)
        assert allocation.cloned
        assert allocation.latency_scale == pytest.approx(0.5)
        # Backends see the inflated work rate...
        assert sum(allocation.rates.values()) == pytest.approx(105.0)
        # ...but the counters stay in request units.
        assert balancer.total_offered == pytest.approx(100.0)
        assert balancer.total_dropped == 0.0

    def test_high_load_sheds_to_single_dispatch(self, balancer):
        cfg = self.cfg(clones=2, utilization_ceiling=0.75)
        allocation = balancer.allocate_cloned(350.0, CAP, RT, cfg)
        assert not allocation.cloned
        assert allocation.latency_scale == 1.0
        assert sum(allocation.rates.values()) == pytest.approx(350.0)

    def test_graceful_degradation_no_throughput_collapse(self, balancer):
        # Overload: cloned throughput must equal uncloned throughput.
        cfg = self.cfg(clones=3)
        cloned = balancer.allocate_cloned(500.0, CAP, RT, cfg)
        other = LoadBalancer(NAMES)
        plain = other.allocate(500.0, CAP, RT)
        assert sum(cloned.rates.values()) == pytest.approx(
            sum(plain.rates.values())
        )
        assert cloned.dropped_rate == pytest.approx(plain.dropped_rate)

    def test_drop_fraction_in_request_units(self, balancer):
        cfg = self.cfg(clones=2)
        balancer.allocate_cloned(100.0, CAP, RT, cfg)   # clones
        balancer.allocate_cloned(500.0, CAP, RT, cfg)   # sheds, drops 100
        assert balancer.drop_fraction() == pytest.approx(100.0 / 600.0)

    def test_clones_one_is_identity(self, balancer):
        cfg = self.cfg(clones=1)
        allocation = balancer.allocate_cloned(100.0, CAP, RT, cfg)
        assert not allocation.cloned
        assert sum(allocation.rates.values()) == pytest.approx(100.0)


class TestVectorizedCloning:
    def test_matches_scalar_semantics(self):
        from repro.cluster.lvs import CloningConfig, allocate_rates_cloned

        cfg = CloningConfig(clones=2)
        rates, dropped, scale, cloned = allocate_rates_cloned(
            100.0, np.ones(4), np.full(4, 100.0), cfg
        )
        assert cloned and scale == pytest.approx(0.5)
        assert rates.sum() == pytest.approx(105.0)
        assert dropped == 0.0

    def test_sheds_above_ceiling(self):
        from repro.cluster.lvs import CloningConfig, allocate_rates_cloned

        cfg = CloningConfig(clones=2, utilization_ceiling=0.75)
        rates, dropped, scale, cloned = allocate_rates_cloned(
            350.0, np.ones(4), np.full(4, 100.0), cfg
        )
        assert not cloned and scale == 1.0
        assert rates.sum() == pytest.approx(350.0)

    def test_infinite_ceilings_never_shed(self):
        from repro.cluster.lvs import CloningConfig, allocate_rates_cloned

        cfg = CloningConfig(clones=2)
        rates, dropped, scale, cloned = allocate_rates_cloned(
            1e6, np.ones(4), np.full(4, np.inf), cfg
        )
        assert cloned and dropped == 0.0

    def test_dropped_reported_in_request_units(self):
        from repro.cluster.lvs import CloningConfig, allocate_rates_cloned

        # Force cloning to persist into saturation with a ceiling of 1.0
        # so the drop conversion (work -> requests) is visible.
        cfg = CloningConfig(clones=2, utilization_ceiling=1.0)
        rates, dropped, scale, cloned = allocate_rates_cloned(
            400.0, np.ones(4), np.full(4, 100.0), cfg
        )
        assert not cloned  # 400 * 1.05 = 420 > 1.0 * 400: sheds
        rates, dropped, scale, cloned = allocate_rates_cloned(
            380.0, np.ones(4), np.full(4, 100.0), cfg
        )
        assert cloned  # 380 * 1.05 = 399 <= 400
        # 399 work offered, 400 capacity: nothing dropped.
        assert dropped == 0.0
