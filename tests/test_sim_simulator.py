"""Tests for the closed-loop system simulator."""

import numpy as np
import pytest

from repro.core.governor import PowerNeutralGovernor
from repro.energy.irradiance import constant_irradiance, step_irradiance
from repro.energy.pv_array import paper_pv_array
from repro.energy.supercapacitor import Supercapacitor
from repro.energy.traces import Trace
from repro.governors.linux import PerformanceGovernor, PowersaveGovernor
from repro.governors.static import StaticGovernor
from repro.sim.simulator import EnergyHarvestingSimulation, SimulationConfig
from repro.sim.supplies import ControlledVoltageSupply, PVArraySupply
from repro.soc.cores import CoreConfig
from repro.soc.exynos5422 import build_exynos5422_platform
from repro.soc.opp import GHZ, OperatingPoint


def pv_supply(level_w_m2=1000.0, duration=60.0):
    return PVArraySupply(paper_pv_array(), constant_irradiance(level_w_m2, duration=duration, dt=0.5))


class TestConfigValidation:
    def test_invalid_durations_and_steps(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(min_step_s=0.1, max_step_s=0.01)
        with pytest.raises(ValueError):
            SimulationConfig(target_dv_per_step=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(utilization=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(monitor_rearm_interval_s=0.0)


class TestPVClosedLoop:
    def test_power_neutral_governor_tracks_available_power(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(),
            supply=pv_supply(1000.0),
            config=SimulationConfig(duration_s=40.0, initial_voltage=5.3),
        ).run()
        assert result.survived
        # After the start-up ramp the consumed power must sit close to the
        # available (MPP) power — the power-neutrality property.
        second_half = result.times > 20.0
        gap = result.available_power[second_half] - result.consumed_power[second_half]
        assert float(np.mean(gap)) < 0.5
        assert result.total_instructions > 0

    def test_insufficient_harvest_causes_brownout(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(),
            supply=pv_supply(120.0),  # ~0.7 W available, below the ~1.8 W floor
            config=SimulationConfig(duration_s=30.0, initial_voltage=5.3),
        ).run()
        assert result.brownout_count >= 1
        assert result.first_brownout_time is not None
        assert result.lifetime_s < 30.0

    def test_stop_on_brownout_truncates_run(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PerformanceGovernor(),
            supply=pv_supply(1000.0),
            config=SimulationConfig(duration_s=30.0, initial_voltage=5.3, stop_on_brownout=True),
        ).run()
        assert result.brownout_count == 1
        assert result.duration_s < 30.0

    def test_performance_governor_browns_out_even_in_full_sun(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PerformanceGovernor(),
            supply=pv_supply(1000.0),
            config=SimulationConfig(duration_s=20.0, initial_voltage=5.3),
        ).run()
        assert result.brownout_count >= 1
        assert result.lifetime_s < 5.0

    def test_powersave_governor_survives_full_sun(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowersaveGovernor(),
            supply=pv_supply(1000.0),
            config=SimulationConfig(duration_s=30.0, initial_voltage=5.3),
        ).run()
        assert result.survived
        assert result.average_consumed_power() < 2.6

    def test_reboot_after_recovering_harvest(self):
        irradiance = step_irradiance(
            high_w_m2=80.0, low_w_m2=1000.0, step_time=10.0, duration=60.0, dt=0.5
        )
        # Note: starts dark (80 W/m2 -> brown-out), then the sun comes out.
        supply = PVArraySupply(paper_pv_array(), irradiance)
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(),
            supply=supply,
            config=SimulationConfig(duration_s=60.0, initial_voltage=5.0),
        ).run()
        assert result.brownout_count >= 1
        reboots = [e for e in result.events if e.kind == "reboot"]
        assert len(reboots) >= 1
        assert result.running[-1] > 0.5

    def test_energy_accounting_is_consistent(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(),
            supply=pv_supply(800.0),
            config=SimulationConfig(duration_s=30.0, initial_voltage=5.3),
        ).run()
        # Energy harvested must cover energy consumed plus the change in
        # capacitor energy (within a tolerance for integration error).
        cap = Supercapacitor(47e-3)
        e_start = 0.5 * cap.capacitance_f * 5.3**2
        e_end = 0.5 * cap.capacitance_f * float(result.supply_voltage[-1]) ** 2
        balance = result.harvested_energy_j - result.consumed_energy_j - (e_end - e_start)
        assert abs(balance) < 0.05 * max(result.harvested_energy_j, 1.0)

    def test_recorded_series_have_consistent_lengths(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(),
            supply=pv_supply(900.0),
            config=SimulationConfig(duration_s=10.0, initial_voltage=5.3),
        ).run()
        n = len(result.times)
        for arr in (
            result.supply_voltage,
            result.harvested_power,
            result.available_power,
            result.consumed_power,
            result.frequency_hz,
            result.n_little,
            result.n_big,
            result.running,
            result.instructions,
            result.v_low,
            result.v_high,
        ):
            assert len(arr) == n
        assert np.all(np.diff(result.times) > 0)
        assert np.all(np.diff(result.instructions) >= 0)

    def test_interrupt_events_recorded(self):
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(),
            supply=pv_supply(1000.0),
            config=SimulationConfig(duration_s=20.0, initial_voltage=5.3),
        ).run()
        assert result.interrupt_count > 0
        assert len(result.threshold_crossing_events()) > 0
        assert result.governor_invocations > 0
        assert result.governor_cpu_time_s > 0


class TestControlledSupply:
    def test_node_voltage_follows_the_source(self):
        profile = Trace(times=[0.0, 10.0, 20.0], values=[4.5, 5.5, 4.8], name="v")
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=PowerNeutralGovernor(target_voltage=None),
            supply=ControlledVoltageSupply(profile),
            config=SimulationConfig(duration_s=20.0),
        ).run()
        # The recorded voltage must match the programmed profile.
        expected = np.interp(result.times, profile.times, profile.values)
        np.testing.assert_allclose(result.supply_voltage, expected, atol=0.05)

    def test_static_governor_holds_opp(self):
        opp = OperatingPoint(CoreConfig(4, 1), 0.92 * GHZ)
        profile = Trace(times=[0.0, 30.0], values=[5.3, 5.3])
        result = EnergyHarvestingSimulation(
            platform=build_exynos5422_platform(),
            governor=StaticGovernor(opp),
            supply=ControlledVoltageSupply(profile),
            config=SimulationConfig(duration_s=30.0),
        ).run()
        assert result.frequency_hz[-1] == pytest.approx(0.92 * GHZ)
        assert result.n_big[-1] == 1
        assert result.n_little[-1] == 4
