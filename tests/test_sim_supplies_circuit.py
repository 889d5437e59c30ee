"""Tests for the supply models and the node under a fixed load on the system simulator."""

import pytest

from repro.energy.irradiance import constant_irradiance
from repro.energy.pv_array import paper_pv_array
from repro.energy.supercapacitor import Supercapacitor
from repro.energy.traces import Trace
from repro.governors.static import StaticGovernor
from repro.sim.simulator import EnergyHarvestingSimulation, SimulationConfig
from repro.sim.supplies import ConstantPowerSupply, ControlledVoltageSupply, PVArraySupply
from repro.soc.cores import CoreConfig
from repro.soc.exynos5422 import (
    build_exynos5422_platform,
    exynos5422_opp_table,
    exynos5422_power_model,
)
from repro.soc.opp import GHZ, OperatingPoint


@pytest.fixture(scope="module")
def pv_supply():
    return PVArraySupply(paper_pv_array(), constant_irradiance(1000.0, duration=60.0, dt=1.0))


class TestPVArraySupply:
    def test_current_matches_array_model(self, pv_supply):
        # The default (tabulated) supply matches the exact solve within the
        # table's declared full-scale tolerance ...
        array = paper_pv_array()
        exact = array.current(5.0, 1000.0)
        full_scale = array.short_circuit_current(1000.0)
        tol = pv_supply.iv_table.max_rel_error * full_scale
        assert abs(pv_supply.current(5.0, t=10.0) - exact) <= tol

    def test_exact_supply_matches_array_model_exactly(self):
        # ... and an exact=True supply bypasses tabulation entirely.
        array = paper_pv_array()
        supply = PVArraySupply(array, constant_irradiance(1000.0, duration=60.0, dt=1.0), exact=True)
        assert supply.iv_table is None
        assert supply.current(5.0, t=10.0) == pytest.approx(array.current(5.0, 1000.0), rel=1e-12)

    def test_available_power_is_mpp_power(self, pv_supply):
        array = paper_pv_array()
        assert pv_supply.available_power(10.0) == pytest.approx(array.power_at_mpp(1000.0), rel=0.02)

    def test_open_circuit_voltage_cached_interpolation(self, pv_supply):
        array = paper_pv_array()
        assert pv_supply.open_circuit_voltage(10.0) == pytest.approx(
            array.open_circuit_voltage(1000.0), rel=0.02
        )

    def test_zero_irradiance_gives_zero_power(self):
        supply = PVArraySupply(paper_pv_array(), constant_irradiance(0.0, duration=10.0))
        assert supply.available_power(5.0) == 0.0
        assert supply.current(5.0, 5.0) == 0.0

    def test_is_not_a_voltage_source(self, pv_supply):
        assert pv_supply.is_voltage_source is False

    def test_invalid_cache_points_rejected(self):
        with pytest.raises(ValueError):
            PVArraySupply(paper_pv_array(), constant_irradiance(100.0, 10.0), mpp_cache_points=1)


class TestControlledVoltageSupply:
    def test_voltage_follows_trace(self):
        trace = Trace(times=[0.0, 10.0], values=[4.5, 5.5])
        supply = ControlledVoltageSupply(trace)
        assert supply.is_voltage_source is True
        assert supply.voltage(5.0) == pytest.approx(5.0)
        assert supply.open_circuit_voltage(0.0) == pytest.approx(4.5)

    def test_available_power_uses_current_limit(self):
        trace = Trace(times=[0.0, 1.0], values=[5.0, 5.0])
        supply = ControlledVoltageSupply(trace, current_limit_a=2.0)
        assert supply.available_power(0.5) == pytest.approx(10.0)

    def test_invalid_current_limit_rejected(self):
        with pytest.raises(ValueError):
            ControlledVoltageSupply(Trace(times=[0.0], values=[5.0]), current_limit_a=0.0)


class TestConstantPowerSupply:
    def test_delivers_prescribed_power(self):
        supply = ConstantPowerSupply(Trace(times=[0.0, 10.0], values=[3.0, 3.0]))
        assert supply.current(5.0, 1.0) * 5.0 == pytest.approx(3.0)
        assert supply.available_power(1.0) == pytest.approx(3.0)

    def test_cuts_off_at_voltage_limit(self):
        supply = ConstantPowerSupply(Trace(times=[0.0, 10.0], values=[3.0, 3.0]), voltage_limit=6.0)
        assert supply.current(6.5, 1.0) == 0.0


def run_static(opp, irradiance_w_m2, capacitance_f, initial_voltage, duration_s):
    """The node under a fixed operating point, on the system simulator."""
    return EnergyHarvestingSimulation(
        platform=build_exynos5422_platform(initial_opp=opp),
        governor=StaticGovernor(opp),
        supply=PVArraySupply(
            paper_pv_array(), constant_irradiance(irradiance_w_m2, duration=duration_s + 10.0)
        ),
        capacitor=Supercapacitor(capacitance_f),
        config=SimulationConfig(duration_s=duration_s, initial_voltage=initial_voltage),
    ).run()


def board_power(opp):
    return exynos5422_power_model().power(opp)


class TestNodeCircuit:
    def test_surplus_charges_node_towards_open_circuit(self):
        lowest = exynos5422_opp_table().lowest  # ~1.75 W, well below the ~5.7 W available
        result = run_static(lowest, 1000.0, 47e-3, initial_voltage=5.0, duration_s=20.0)
        assert result.supply_voltage[-1] > 6.0
        assert result.supply_voltage.min() >= 5.0 - 1e-3

    def test_overload_discharges_node(self):
        opp = OperatingPoint(CoreConfig(4, 2), 1.4 * GHZ)
        assert board_power(opp) >= 5.0
        result = run_static(opp, 200.0, 47e-3, initial_voltage=5.3, duration_s=10.0)
        assert result.first_brownout_time is not None

    def test_larger_capacitor_survives_longer(self):
        """The Fig. 3 argument: capacitance alone only delays the undervoltage."""
        opp = OperatingPoint(CoreConfig(4, 4), 0.72 * GHZ)
        assert board_power(opp) == pytest.approx(4.0, abs=0.1)
        small, large = (
            run_static(opp, 100.0, c, initial_voltage=5.3, duration_s=30.0).first_brownout_time
            for c in (10e-3, 470e-3)
        )
        assert small is not None and large is not None
        assert large > 2 * small

    def test_sustainable_load_never_undervolts(self):
        opp = OperatingPoint(CoreConfig(1, 0), 1.3 * GHZ)
        assert board_power(opp) <= 2.0
        result = run_static(opp, 1000.0, 47e-3, initial_voltage=5.3, duration_s=20.0)
        assert result.first_brownout_time is None
