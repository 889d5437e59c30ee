"""Tests for the buffer capacitor model."""

import pytest

from repro.energy.supercapacitor import (
    PAPER_BUFFER_CAPACITANCE_F,
    PAPER_MINIMUM_CAPACITANCE_F,
    Supercapacitor,
)


class TestConstants:
    def test_paper_buffer_is_47mf(self):
        assert PAPER_BUFFER_CAPACITANCE_F == pytest.approx(47e-3)

    def test_paper_minimum_is_15_4mf(self):
        assert PAPER_MINIMUM_CAPACITANCE_F == pytest.approx(15.4e-3)


class TestValidation:
    def test_rejects_non_positive_capacitance(self):
        with pytest.raises(ValueError):
            Supercapacitor(0.0)

    def test_rejects_negative_esr(self):
        with pytest.raises(ValueError):
            Supercapacitor(1e-3, esr_ohm=-1.0)

    def test_rejects_voltage_outside_rating(self):
        with pytest.raises(ValueError):
            Supercapacitor(1e-3, voltage=20.0, max_voltage=10.0)


class TestEnergyBookkeeping:
    def test_charge_and_energy(self):
        cap = Supercapacitor(47e-3, voltage=5.0)
        assert cap.charge_coulombs == pytest.approx(0.235)
        assert cap.energy_joules == pytest.approx(0.5 * 47e-3 * 25.0)

    def test_leakage_current_proportional_to_voltage(self):
        cap = Supercapacitor(47e-3, leakage_conductance_s=1e-4, voltage=5.0)
        assert cap.leakage_current() == pytest.approx(5e-4)
        assert cap.leakage_current(2.0) == pytest.approx(2e-4)


class TestDynamics:
    def test_reset(self):
        cap = Supercapacitor(0.047)
        cap.reset(5.3)
        assert cap.voltage == pytest.approx(5.3)
        with pytest.raises(ValueError):
            cap.reset(50.0)
