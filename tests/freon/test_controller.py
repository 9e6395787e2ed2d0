"""Tests for Freon's PD feedback controller (paper section 4.1).

"output_c = max(kp (T_curr - T_h) + kd (T_curr - T_last), 0)" per
component, and tempd sends admd the maximum over components.  The
controller lives in :class:`~repro.control.FreonPolicy`'s tempd state;
each test feeds one machine's readings wake by wake and reads the
output of the ADJUST message it sends.
"""

import pytest

from repro.control import FreonPolicy
from repro.daemons.tempd import MSG_ADJUST
from repro.freon.policy import ComponentThresholds, FreonConfig

from ..control.fake_view import FakeView

THRESHOLDS = {
    "cpu": ComponentThresholds(high=67.0, low=64.0, red=90.0),
    "disk": ComponentThresholds(high=65.0, low=62.0, red=90.0),
}


class Controller:
    """One machine's tempd, fed readings one wake at a time."""

    def __init__(self, **gains):
        self.view = FakeView(("m1",))
        self.messages = []
        self.policy = FreonPolicy(FreonConfig(thresholds=THRESHOLDS, **gains))
        self.policy.attach(self.view, send=self.messages.append)
        self.now = 0.0

    def update(self, cpu, disk=40.0):
        """One wake; the ADJUST output sent (0.0 when none was sent)."""
        self.now += 60.0
        self.view.temperatures["m1"] = {"cpu": cpu, "disk": disk}
        before = len(self.messages)
        self.policy.wake(self.view, self.now)
        outputs = [
            m.output for m in self.messages[before:] if m.type == MSG_ADJUST
        ]
        return outputs[0] if outputs else 0.0


class TestPDController:
    def test_proportional_only_on_first_update(self):
        assert Controller().update(70.0) == pytest.approx(0.3)

    def test_derivative_on_rising_temperature(self):
        controller = Controller()
        controller.update(68.0)
        # kp*(70-67) + kd*(70-68)
        assert controller.update(70.0) == pytest.approx(0.7)

    def test_falling_temperature_damps_output(self):
        controller = Controller()
        controller.update(72.0)
        # kp*(68-67) + kd*(68-72) = 0.1 - 0.8 -> clamped at 0.
        assert controller.update(68.0) == 0.0

    def test_output_never_negative(self):
        controller = Controller()
        controller.update(80.0)
        assert controller.update(67.5) == 0.0

    def test_observe_feeds_derivative_without_output(self):
        controller = Controller()
        assert controller.update(66.0) == 0.0  # below T_h: observed only
        # The first hot wake already has a meaningful last temperature.
        assert controller.update(70.0) == pytest.approx(0.3 + 0.2 * 4.0)

    def test_reset_clears_state(self):
        # A watchdog restart gives tempd fresh controllers.
        controller = Controller()
        controller.update(68.0)
        controller.policy.restart(0)
        assert controller.update(70.0) == pytest.approx(0.3)

    def test_paper_gains_are_default(self):
        config = FreonConfig()
        assert config.kp == 0.1
        assert config.kd == 0.2


class TestControllerBank:
    def test_max_across_components(self):
        # cpu: 0.1*3 = 0.3; disk: 0.1*1 = 0.1.
        assert Controller().update(70.0, disk=66.0) == pytest.approx(0.3)

    def test_cool_components_contribute_zero(self):
        controller = Controller()
        assert controller.update(60.0, disk=55.0) == 0.0
        assert controller.messages == []

    def test_observation_keeps_derivative_fresh(self):
        controller = Controller()
        controller.update(66.0)  # observes only
        # kp*2 + kd*(69-66)
        assert controller.update(69.0) == pytest.approx(0.2 + 0.6)

    def test_per_component_state_isolated(self):
        controller = Controller()
        controller.update(70.0, disk=50.0)
        # disk's first crossing still knows its last reading (50):
        # 0.1*1 + 0.2*16 = 3.3 > cpu's 0.3.
        assert controller.update(70.0, disk=66.0) == pytest.approx(3.3)

    def test_reset_all(self):
        # A RELEASE (every component below its low threshold) resets
        # every controller.
        controller = Controller()
        controller.update(70.0, disk=63.0)
        controller.update(60.0, disk=50.0)  # release
        assert controller.update(70.0, disk=40.0) == pytest.approx(0.3)

    def test_custom_gains_propagate(self):
        assert Controller(kp=1.0, kd=0.0).update(70.0) == pytest.approx(3.0)
