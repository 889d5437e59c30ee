"""Unit and property tests for the single-diode solar-cell model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw, wrightomega

from repro.energy.pv_array import fig1_small_cell, paper_pv_array
from repro.energy.solar_cell import (
    MPPResult,
    SolarCell,
    SolarCellParameters,
    thermal_voltage,
)


@pytest.fixture()
def cell() -> SolarCell:
    return SolarCell(
        SolarCellParameters(
            photo_current_stc=1.25,
            saturation_current=2e-9,
            series_resistance=0.06,
            shunt_resistance=8.0,
            ideality_factor=1.3,
        )
    )


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_scales_linearly_with_temperature(self):
        assert thermal_voltage(600.0) == pytest.approx(2 * thermal_voltage(300.0))

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            thermal_voltage(0.0)


class TestParameterValidation:
    def test_rejects_negative_photo_current(self):
        with pytest.raises(ValueError):
            SolarCellParameters(photo_current_stc=-1.0)

    def test_rejects_zero_saturation_current(self):
        with pytest.raises(ValueError):
            SolarCellParameters(photo_current_stc=1.0, saturation_current=0.0)

    def test_rejects_negative_series_resistance(self):
        with pytest.raises(ValueError):
            SolarCellParameters(photo_current_stc=1.0, series_resistance=-0.1)

    def test_rejects_zero_shunt_resistance(self):
        with pytest.raises(ValueError):
            SolarCellParameters(photo_current_stc=1.0, shunt_resistance=0.0)

    def test_with_temperature_returns_new_instance(self):
        params = SolarCellParameters(photo_current_stc=1.0)
        hot = params.with_temperature(330.0)
        assert hot.temperature_k == 330.0
        assert params.temperature_k == 300.0

    def test_modified_thermal_voltage_is_computed_once_per_instance(self):
        params = SolarCellParameters(photo_current_stc=1.0, ideality_factor=1.3)
        nvt = params.modified_thermal_voltage
        assert nvt == 1.3 * thermal_voltage(300.0)
        assert params.__dict__["modified_thermal_voltage"] == nvt
        hot = params.with_temperature(330.0)
        assert hot.modified_thermal_voltage == 1.3 * thermal_voltage(330.0)
        assert params.modified_thermal_voltage == nvt
        assert hot == params.with_temperature(330.0)  # equality ignores the cache


class TestIVCurve:
    def test_short_circuit_current_close_to_photo_current(self, cell):
        isc = cell.short_circuit_current()
        assert isc == pytest.approx(cell.parameters.photo_current_stc, rel=0.05)

    def test_current_scales_with_irradiance(self, cell):
        full = cell.short_circuit_current(1000.0)
        half = cell.short_circuit_current(500.0)
        assert half == pytest.approx(0.5 * full, rel=0.05)

    def test_zero_irradiance_produces_no_current(self, cell):
        assert cell.current(0.3, 0.0) == 0.0
        assert cell.short_circuit_current(0.0) == 0.0

    def test_current_monotonically_decreasing_in_voltage(self, cell):
        voltages = np.linspace(0.0, cell.open_circuit_voltage(), 50)
        currents = cell.current_array(voltages)
        assert np.all(np.diff(currents) <= 1e-9)

    def test_open_circuit_voltage_has_zero_net_current(self, cell):
        voc = cell.open_circuit_voltage()
        assert cell._current_unclipped(voc, 1000.0) == pytest.approx(0.0, abs=1e-3)

    def test_current_clipped_at_zero_beyond_voc(self, cell):
        voc = cell.open_circuit_voltage()
        assert cell.current(voc * 1.2) == 0.0

    def test_iv_curve_shapes(self, cell):
        voltages, currents = cell.iv_curve(points=100)
        assert len(voltages) == len(currents) == 100
        assert currents[0] == pytest.approx(cell.short_circuit_current(), rel=1e-3)
        assert currents[-1] == pytest.approx(0.0, abs=5e-3)

    def test_iv_curve_rejects_too_few_points(self, cell):
        with pytest.raises(ValueError):
            cell.iv_curve(points=1)

    def test_no_series_resistance_branch(self):
        cell = SolarCell(SolarCellParameters(photo_current_stc=1.0, series_resistance=0.0))
        assert cell.current(0.0) == pytest.approx(1.0, rel=1e-3)
        assert cell.current(0.3) < 1.0


class TestMaximumPowerPoint:
    def test_mpp_lies_between_zero_and_voc(self, cell):
        mpp = cell.maximum_power_point()
        assert 0.0 < mpp.voltage < cell.open_circuit_voltage()
        assert mpp.power > 0.0

    def test_mpp_is_actually_maximal(self, cell):
        mpp = cell.maximum_power_point()
        voltages = np.linspace(0.0, cell.open_circuit_voltage(), 200)
        powers = voltages * cell.current_array(voltages)
        assert mpp.power >= np.max(powers) - 1e-3

    def test_mpp_power_scales_with_irradiance(self, cell):
        full = cell.maximum_power_point(1000.0).power
        low = cell.maximum_power_point(300.0).power
        assert 0.0 < low < full

    def test_zero_irradiance_mpp_is_zero(self, cell):
        mpp = cell.maximum_power_point(0.0)
        assert mpp == MPPResult(0.0, 0.0, 0.0)

    def test_power_consistent_with_current(self, cell):
        assert cell.power(0.4) == pytest.approx(0.4 * cell.current(0.4))


def _current_bisection(cell: SolarCell, voltage: float, i_l: float) -> float:
    """Bisection on the implicit diode equation: the solver's oracle."""
    p = cell.parameters
    nvt = p.modified_thermal_voltage

    def residual(i: float) -> float:
        vd = voltage + p.series_resistance * i
        # Guard the exponential so the bracket search itself cannot
        # overflow; residual sign is all bisection needs.
        arg = min(vd / nvt, 700.0)
        return i_l - p.saturation_current * (math.exp(arg) - 1.0) - vd / p.shunt_resistance - i

    lo, hi = -1.0, i_l + 1.0
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo * r_hi > 0:
        # No sign change in the expected bracket -- the cell is far into
        # reverse breakdown territory; report zero current.
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if abs(r_mid) < 1e-12:
            return mid
        if r_lo * r_mid <= 0:
            hi, r_hi = mid, r_mid
        else:
            lo, r_lo = mid, r_mid
    return 0.5 * (lo + hi)


def _lambertw_current(params: SolarCellParameters, v, g):
    """Unclipped current from the complex Lambert-W closed form, and the mask
    of elements where its ``exp`` does not overflow (exponent <= 690)."""
    v = np.asarray(v, dtype=float)
    i_l = params.photo_current_stc * np.clip(np.asarray(g, dtype=float), 0.0, None) / 1000.0
    rs, rp = params.series_resistance, params.shunt_resistance
    i0, nvt = params.saturation_current, params.modified_thermal_voltage
    denom = nvt * (rs + rp)
    exponent = rp * (rs * i_l + rs * i0 + v) / denom
    safe = exponent <= 690.0
    x = (rs * rp * i0) / denom * np.exp(np.where(safe, exponent, 0.0))
    w = lambertw(x).real
    return (rp * (i_l + i0) - v) / (rs + rp) - (nvt / rs) * w, safe


def _voc_bisection(params: SolarCellParameters, irradiance: float) -> float:
    """Bracket doubling plus 100 bisection steps on the Lambert-W current."""
    lo = 0.0
    hi = 1.0
    while _lambertw_current(params, hi, irradiance)[0] > 0 and hi < 1e4:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _lambertw_current(params, mid, irradiance)[0] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: The paper's validation array cell, the Fig. 1 cell and the default
#: parameters (Rp = 50 ohm).
SOLVER_CELLS = {
    "paper-array": paper_pv_array().cell.parameters,
    "fig1-cell": fig1_small_cell().cell.parameters,
    "default": SolarCellParameters(photo_current_stc=1.25),
}


class TestLambertWAgainstBisection:
    def test_lambert_w_matches_bisection(self, cell):
        for v in np.linspace(0.05, cell.open_circuit_voltage() * 0.98, 15):
            exact = cell._current_unclipped(float(v), 1000.0)
            bisected = _current_bisection(cell, float(v), cell.photo_current(1000.0))
            assert exact == pytest.approx(bisected, abs=2e-3)


class TestWrightOmegaSolver:
    def test_scipy_ships_the_real_wrightomega_loop(self):
        assert "d->d" in wrightomega.types

    @pytest.mark.parametrize("name", sorted(SOLVER_CELLS))
    def test_matches_complex_lambertw_formula(self, name):
        params = SOLVER_CELLS[name]
        cell = SolarCell(params)
        voltages = np.linspace(-0.1, 1.5 * cell.open_circuit_voltage(1200.0), 121)
        irradiances = np.linspace(0.0, 1200.0, 49)
        reference, safe = _lambertw_current(params, voltages[:, None], irradiances[None, :])
        assert safe.all()
        vectorised = cell._current_unclipped_vec(voltages[:, None], irradiances[None, :])
        # abs: near Voc the closed form cancels two ~I_l terms, so both
        # formulas carry a few ulps of I_l there.
        np.testing.assert_allclose(vectorised, reference, rtol=1e-12, atol=1e-14)
        for i in range(0, len(voltages), 6):
            for j in range(1, len(irradiances), 4):
                scalar = cell._current_unclipped(float(voltages[i]), float(irradiances[j]))
                assert scalar == pytest.approx(reference[i, j], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("name", sorted(SOLVER_CELLS))
    def test_finite_past_the_old_overflow_cutover(self, name):
        params = SOLVER_CELLS[name]
        cell = SolarCell(params)
        voltages = np.array([25.0, 40.0, 100.0])
        _, safe = _lambertw_current(params, voltages, 1000.0)
        assert not safe.any()
        unclipped = cell._current_unclipped_vec(voltages, 1000.0)
        assert np.all(np.isfinite(unclipped)) and np.all(unclipped < 0.0)
        # The unclipped current solves the implicit equation.
        vd = voltages + params.series_resistance * unclipped
        diode = params.saturation_current * np.expm1(vd / params.modified_thermal_voltage)
        residual = cell.photo_current(1000.0) - diode - vd / params.shunt_resistance - unclipped
        assert np.all(np.abs(residual) <= 1e-9 * np.abs(unclipped))
        i_l = cell.photo_current(1000.0)
        for v, vec in zip(voltages, cell.current_array(voltages, 1000.0)):
            oracle = max(_current_bisection(cell, float(v), i_l), 0.0)
            assert cell.current(float(v), 1000.0) == vec == oracle == 0.0

    def test_bisection_oracle_past_the_old_cutover(self):
        # A large series drop (Rs * I_l = 25 V) puts the exponent past the
        # old 690 cut-over even at short circuit, while the current stays
        # inside the oracle's bracket.
        cell = SolarCell(
            SolarCellParameters(photo_current_stc=25.0, series_resistance=1.0)
        )
        params = cell.parameters
        i_l = cell.photo_current(1000.0)
        voltages = np.linspace(0.0, 0.6, 7)
        _, safe = _lambertw_current(params, voltages, 1000.0)
        assert not safe.any()
        vectorised = cell._current_unclipped_vec(voltages, 1000.0)
        for v, vec in zip(voltages, vectorised):
            scalar = cell._current_unclipped(float(v), 1000.0)
            assert np.isfinite(scalar) and scalar == pytest.approx(vec, rel=1e-12)
            assert scalar == pytest.approx(_current_bisection(cell, float(v), i_l), abs=1e-9)


class TestClosedFormOpenCircuitVoltage:
    @pytest.mark.parametrize("name", sorted(SOLVER_CELLS))
    def test_closed_form_matches_bisection_and_zeroes_current(self, name):
        params = SOLVER_CELLS[name]
        cell = SolarCell(params)
        irradiances = np.linspace(0.0, 1200.0, 41)[1:]
        vectorised = cell.open_circuit_voltage_array(irradiances)
        for g, voc_vec in zip(irradiances, vectorised):
            voc = cell.open_circuit_voltage(float(g))
            assert voc == voc_vec
            assert abs(cell._current_unclipped(voc, float(g))) <= 1e-12
            assert voc == pytest.approx(_voc_bisection(params, float(g)), rel=0.0, abs=1e-12)

    def test_dark_cell_has_zero_voc(self, cell):
        assert cell.open_circuit_voltage(0.0) == 0.0
        np.testing.assert_array_equal(
            cell.open_circuit_voltage_array(np.array([-5.0, 0.0])), [0.0, 0.0]
        )


class TestProperties:
    @given(
        voltage=st.floats(min_value=0.0, max_value=0.75),
        irradiance=st.floats(min_value=0.0, max_value=1200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_current_bounded_by_photo_current(self, voltage, irradiance):
        cell = SolarCell(SolarCellParameters(photo_current_stc=1.25))
        current = cell.current(voltage, irradiance)
        assert 0.0 <= current <= cell.photo_current(irradiance) + 1e-9

    @given(irradiance=st.floats(min_value=1.0, max_value=1200.0))
    @settings(max_examples=30, deadline=None)
    def test_voc_increases_with_irradiance_and_stays_bounded(self, irradiance):
        cell = SolarCell(SolarCellParameters(photo_current_stc=1.25))
        voc = cell.open_circuit_voltage(irradiance)
        assert 0.0 < voc < 1.0
