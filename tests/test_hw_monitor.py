"""Tests for the dual-threshold voltage monitor and its interrupt semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.monitor import (
    MONITOR_POWER_W,
    ThresholdChannel,
    ThresholdCrossing,
    VoltageMonitor,
)


class TestThresholdChannel:
    def test_set_threshold_quantised_near_50mv(self):
        channel = ThresholdChannel(quantised=True)
        achieved = channel.set_threshold(5.3)
        # The MCP4131 resolution near 5.3 V is roughly 40-60 mV.
        assert abs(achieved - 5.3) < 0.06

    def test_ideal_channel_is_exact(self):
        channel = ThresholdChannel(quantised=False)
        assert channel.set_threshold(5.3) == pytest.approx(5.3)

    def test_threshold_resistance_round_trip(self):
        channel = ThresholdChannel()
        r = channel.resistance_for_threshold(5.0)
        assert channel.threshold_for_resistance(r) == pytest.approx(5.0)

    def test_threshold_must_exceed_reference(self):
        channel = ThresholdChannel()
        with pytest.raises(ValueError):
            channel.resistance_for_threshold(0.2)

    def test_minimum_threshold_below_operating_window(self):
        channel = ThresholdChannel()
        assert channel.minimum_threshold < 4.1

    def test_above_threshold(self):
        channel = ThresholdChannel(quantised=False)
        channel.set_threshold(5.0)
        assert channel.above_threshold(5.2)
        assert not channel.above_threshold(4.8)

    @given(target=st.floats(min_value=4.2, max_value=5.7))
    @settings(max_examples=50, deadline=None)
    def test_quantisation_error_bounded(self, target):
        channel = ThresholdChannel(quantised=True)
        achieved = channel.set_threshold(target)
        assert abs(achieved - target) < 0.08


class TestVoltageMonitor:
    def test_paper_monitor_power(self):
        assert MONITOR_POWER_W == pytest.approx(1.61e-3)
        assert VoltageMonitor().power_w == pytest.approx(1.61e-3)

    def test_thresholds_must_be_ordered(self):
        monitor = VoltageMonitor(quantised=False)
        with pytest.raises(ValueError):
            monitor.set_thresholds(5.5, 5.0)

    def test_low_crossing_generates_low_interrupt(self):
        monitor = VoltageMonitor(quantised=False)
        monitor.set_thresholds(5.0, 5.4)
        monitor.prime(5.2)
        assert monitor.sample(5.1) == []
        assert monitor.sample(4.95) == [ThresholdCrossing.LOW]

    def test_high_crossing_generates_high_interrupt(self):
        monitor = VoltageMonitor(quantised=False)
        monitor.set_thresholds(5.0, 5.4)
        monitor.prime(5.2)
        assert monitor.sample(5.45) == [ThresholdCrossing.HIGH]

    def test_level_rearm_refires_while_outside_window(self):
        """After prime(), a supply still beyond the threshold fires again
        (the Fig. 5 keep-responding-while-beyond-threshold loop)."""
        monitor = VoltageMonitor(quantised=False)
        monitor.set_thresholds(5.0, 5.4)
        monitor.prime(5.2)
        assert monitor.sample(4.9) == [ThresholdCrossing.LOW]
        monitor.prime(4.9)
        assert monitor.sample(4.89) == [ThresholdCrossing.LOW]

    def test_acknowledge_suppresses_refire_until_recross(self):
        monitor = VoltageMonitor(quantised=False)
        monitor.set_thresholds(5.0, 5.4)
        monitor.prime(5.2)
        assert monitor.sample(4.9) == [ThresholdCrossing.LOW]
        monitor.acknowledge(4.9)
        assert monitor.sample(4.85) == []
        assert monitor.sample(5.1) == []
        assert monitor.sample(4.95) == [ThresholdCrossing.LOW]

    def test_first_sample_without_prime_is_quiet(self):
        monitor = VoltageMonitor(quantised=False)
        monitor.set_thresholds(5.0, 5.4)
        assert monitor.sample(4.0) == []

    def test_interrupt_counter(self):
        monitor = VoltageMonitor(quantised=False)
        monitor.set_thresholds(5.0, 5.4)
        monitor.prime(5.2)
        monitor.sample(4.9)
        monitor.prime(4.9)
        monitor.sample(5.5)
        assert monitor.interrupt_count == 2

    def test_spi_write_count_tracks_threshold_programming(self):
        monitor = VoltageMonitor(quantised=True)
        monitor.set_thresholds(5.0, 5.4)
        monitor.set_thresholds(4.9, 5.3)
        assert monitor.spi_write_count == 4

    @pytest.mark.parametrize("quantised", [True, False])
    def test_thresholds_read_what_the_channels_realised(self, quantised):
        monitor = VoltageMonitor(quantised=quantised)
        assert (monitor.v_low, monitor.v_high) == (
            monitor.low_channel.threshold,
            monitor.high_channel.threshold,
        )
        for request in ((5.1, 5.4), (4.37, 4.91), (5.62, 5.93)):
            realised = monitor.set_thresholds(*request)
            assert realised == (monitor.v_low, monitor.v_high)
            assert monitor.v_low == monitor.low_channel.threshold
            assert monitor.v_high == monitor.high_channel.threshold

    def test_quantised_monitor_keeps_ordering(self):
        monitor = VoltageMonitor(quantised=True)
        low, high = monitor.set_thresholds(5.25, 5.35)
        assert low < high
