"""Tests for the voltage-monitoring hardware building blocks (Fig. 9)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.comparator import Comparator, LT6703_REFERENCE_V
from repro.hw.potentiometer import (
    DigitalPotentiometer,
    MCP4131_FULL_SCALE_OHM,
    MCP4131_TAPS,
)


class TestDigitalPotentiometer:
    def test_mcp4131_defaults(self):
        pot = DigitalPotentiometer()
        assert pot.taps == MCP4131_TAPS == 129
        assert pot.full_scale_ohm == MCP4131_FULL_SCALE_OHM

    def test_tap_zero_is_wiper_resistance_only(self):
        pot = DigitalPotentiometer()
        pot.set_tap(0)
        assert pot.resistance_ohm == pytest.approx(pot.wiper_resistance_ohm)

    def test_full_scale_tap(self):
        pot = DigitalPotentiometer()
        pot.set_tap(pot.taps - 1)
        assert pot.resistance_ohm == pytest.approx(
            pot.full_scale_ohm + pot.wiper_resistance_ohm
        )

    def test_set_resistance_quantises_to_resolution(self):
        pot = DigitalPotentiometer()
        achieved = pot.set_resistance(50_000.0)
        assert abs(achieved - 50_000.0) <= pot.resolution_ohm

    def test_out_of_range_tap_rejected(self):
        pot = DigitalPotentiometer()
        with pytest.raises(ValueError):
            pot.set_tap(pot.taps)
        with pytest.raises(ValueError):
            pot.set_tap(-1)

    def test_write_counter_increments(self):
        pot = DigitalPotentiometer()
        pot.set_tap(5)
        pot.set_resistance(20_000.0)
        assert pot.write_count == 2

    @given(target=st.floats(min_value=0.0, max_value=MCP4131_FULL_SCALE_OHM))
    @settings(max_examples=50, deadline=None)
    def test_quantisation_error_bounded_by_half_step(self, target):
        pot = DigitalPotentiometer()
        achieved = pot.set_resistance(target)
        assert abs(achieved - target) <= pot.resolution_ohm / 2 + pot.wiper_resistance_ohm


class TestComparator:
    def test_trips_high_above_reference(self):
        comparator = Comparator()
        assert comparator.update(0.5) is True
        assert comparator.output is True

    def test_trips_low_below_reference(self):
        comparator = Comparator(output=True)
        assert comparator.update(0.3) is False

    def test_hysteresis_prevents_chatter(self):
        comparator = Comparator(hysteresis_v=0.02)
        comparator.update(0.5)  # high
        # A value just below the reference but inside the hysteresis band
        # does not clear the output.
        assert comparator.update(LT6703_REFERENCE_V - 0.005) is True
        assert comparator.update(LT6703_REFERENCE_V - 0.05) is False

    def test_would_trip_helpers(self):
        comparator = Comparator()
        assert comparator.would_trip_high(0.45)
        assert comparator.would_trip_low(0.35)
        assert not comparator.would_trip_high(0.40)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Comparator(reference_v=0.0)
        with pytest.raises(ValueError):
            Comparator(hysteresis_v=-0.1)
