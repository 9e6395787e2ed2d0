"""Unit and property tests for the five core equations."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import physics

finite = st.floats(min_value=-100.0, max_value=200.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)
conductance = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestNewtonCooling:
    def test_heat_flows_hot_to_cold(self):
        q = physics.newton_cooling_heat(k=2.0, t_hot=50.0, t_cold=20.0, dt=1.0)
        assert q == pytest.approx(60.0)

    def test_zero_difference_means_no_heat(self):
        assert physics.newton_cooling_heat(5.0, 30.0, 30.0, 10.0) == 0.0

    def test_sign_flips_with_direction(self):
        forward = physics.newton_cooling_heat(1.0, 40.0, 20.0, 2.0)
        backward = physics.newton_cooling_heat(1.0, 20.0, 40.0, 2.0)
        assert forward == -backward

    def test_scales_linearly_with_time(self):
        one = physics.newton_cooling_heat(1.5, 35.0, 25.0, 1.0)
        ten = physics.newton_cooling_heat(1.5, 35.0, 25.0, 10.0)
        assert ten == pytest.approx(10.0 * one)

    @given(k=conductance, t1=finite, t2=finite, dt=positive)
    def test_antisymmetry_property(self, k, t1, t2, dt):
        q12 = physics.newton_cooling_heat(k, t1, t2, dt)
        q21 = physics.newton_cooling_heat(k, t2, t1, dt)
        assert q12 == pytest.approx(-q21, abs=1e-9)


class TestTemperatureDelta:
    def test_basic(self):
        # 896 J into 1 kg of aluminium raises it by 1 K.
        assert physics.temperature_delta(896.0, 1.0, 896.0) == pytest.approx(1.0)

    def test_negative_heat_cools(self):
        assert physics.temperature_delta(-100.0, 1.0, 100.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("mass,c", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_rejects_nonpositive_mass_or_heat_capacity(self, mass, c):
        with pytest.raises(ValueError):
            physics.temperature_delta(1.0, mass, c)

    @given(q=st.floats(min_value=-1e5, max_value=1e5), m=positive, c=positive)
    def test_proportional_to_heat(self, q, m, c):
        assert physics.temperature_delta(q, m, c) == pytest.approx(
            q / (m * c), rel=1e-12
        )


class TestConductionHeat:
    def test_matches_explicit_form_for_small_steps(self):
        # k dt << C_eff: the analytic form reduces to k (T1 - T2) dt.
        q = physics.conduction_heat(0.1, 40.0, 20.0, 1.0, mc_1=500.0, mc_2=800.0)
        assert q == pytest.approx(0.1 * 20.0 * 1.0, rel=1e-3)

    def test_never_overshoots_equilibrium(self):
        # Even an absurdly large k dt cannot push past equalization.
        mc_1, mc_2 = 10.0, 10.0
        t1, t2 = 100.0, 0.0
        q = physics.conduction_heat(1e6, t1, t2, 1.0, mc_1, mc_2)
        t1_after = t1 - q / mc_1
        t2_after = t2 + q / mc_2
        assert t1_after == pytest.approx(t2_after, abs=1e-6)
        assert t1_after == pytest.approx(50.0, abs=1e-6)

    def test_zero_k_moves_no_heat(self):
        assert physics.conduction_heat(0.0, 50.0, 10.0, 1.0, 10.0, 10.0) == 0.0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            physics.conduction_heat(-1.0, 30.0, 20.0, 1.0, 10.0, 10.0)

    def test_rejects_nonpositive_heat_capacity(self):
        with pytest.raises(ValueError):
            physics.conduction_heat(1.0, 30.0, 20.0, 1.0, 0.0, 10.0)

    @given(
        k=st.floats(min_value=0.0, max_value=1e4),
        t1=finite,
        t2=finite,
        dt=positive,
        mc_1=positive,
        mc_2=positive,
    )
    def test_energy_conserving_and_bounded(self, k, t1, t2, dt, mc_1, mc_2):
        q = physics.conduction_heat(k, t1, t2, dt, mc_1, mc_2)
        t1_after = t1 - q / mc_1
        t2_after = t2 + q / mc_2
        # Heat flows downhill and never past the equilibrium point.
        if t1 > t2:
            assert q >= 0.0
            assert t1_after >= t2_after - 1e-6
        elif t1 < t2:
            assert q <= 0.0
            assert t1_after <= t2_after + 1e-6
        else:
            assert q == pytest.approx(0.0, abs=1e-9)


class TestStreamExchange:
    def test_outlet_approaches_body_with_large_k(self):
        result = physics.stream_exchange(
            k=1e6, t_body=60.0, t_stream_in=20.0, capacity_rate=5.0, dt=1.0
        )
        assert result.t_out == pytest.approx(60.0, abs=1e-3)

    def test_no_flow_means_no_exchange(self):
        result = physics.stream_exchange(
            k=2.0, t_body=60.0, t_stream_in=20.0, capacity_rate=0.0, dt=1.0
        )
        assert result.t_out == 20.0
        assert result.heat_to_stream == 0.0

    def test_heat_balance(self):
        # Heat gained by the stream equals capacity_rate * dt * (T_out - T_in).
        result = physics.stream_exchange(
            k=1.0, t_body=50.0, t_stream_in=20.0, capacity_rate=3.0, dt=2.0
        )
        assert result.heat_to_stream == pytest.approx(
            3.0 * 2.0 * (result.t_out - 20.0)
        )

    def test_small_ntu_matches_newton(self):
        # For k << capacity_rate, Q -> k (T_body - T_in) dt.
        k, c, dt = 0.01, 100.0, 1.0
        result = physics.stream_exchange(k, 50.0, 20.0, c, dt)
        assert result.heat_to_stream == pytest.approx(k * 30.0 * dt, rel=1e-3)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            physics.stream_exchange(-1.0, 50.0, 20.0, 1.0, 1.0)

    @given(
        k=st.floats(min_value=0.0, max_value=1e3),
        t_body=finite,
        t_in=finite,
        c=positive,
        dt=positive,
    )
    def test_outlet_between_inlet_and_body(self, k, t_body, t_in, c, dt):
        result = physics.stream_exchange(k, t_body, t_in, c, dt)
        low, high = min(t_body, t_in), max(t_body, t_in)
        assert low - 1e-9 <= result.t_out <= high + 1e-9

    @given(
        k=st.floats(min_value=0.0, max_value=1e3),
        t_body=finite,
        t_in=finite,
        c=positive,
        dt=positive,
    )
    def test_heat_sign_follows_gradient(self, k, t_body, t_in, c, dt):
        result = physics.stream_exchange(k, t_body, t_in, c, dt)
        # Tolerance scales with c*dt: the heat is c*dt*(t_out - t_in) and
        # t_out carries float rounding of order 1e-16 * |temperatures|.
        tol = 1e-9 + 1e-12 * c * dt
        if t_body > t_in:
            assert result.heat_to_stream >= -tol
        elif t_body < t_in:
            assert result.heat_to_stream <= tol


class TestMixStreams:
    def test_equal_weights_average(self):
        assert physics.mix_streams([10.0, 30.0], [1.0, 1.0]) == pytest.approx(20.0)

    def test_weighting(self):
        assert physics.mix_streams([10.0, 30.0], [3.0, 1.0]) == pytest.approx(15.0)

    def test_single_stream_is_identity(self):
        assert physics.mix_streams([42.0], [0.7]) == pytest.approx(42.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            physics.mix_streams([1.0, 2.0], [1.0])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValueError):
            physics.mix_streams([1.0], [0.0])

    def test_sums_are_naive_left_folds(self):
        # A compensated sum (builtin sum() from Python 3.12 on) keeps
        # the 1.0 and yields 1/3; the naive fold loses it to 1e16.
        temps = [1e16, 1.0, -1e16]
        num = 0.0
        for t in temps:
            num += t * 1.0
        assert num == 0.0
        assert physics.mix_streams(temps, [1.0, 1.0, 1.0]) == num / 3.0

    @given(
        temps=st.lists(finite, min_size=1, max_size=8),
        data=st.data(),
    )
    def test_mix_within_input_range(self, temps, data):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=len(temps),
                max_size=len(temps),
            )
        )
        mixed = physics.mix_streams(temps, weights)
        assert min(temps) - 1e-6 <= mixed <= max(temps) + 1e-6
