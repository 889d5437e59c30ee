"""Reproductions of the paper's characterisation figures (Figs. 1-10, Table I).

Each function regenerates the data behind one figure or table of the paper's
modelling/characterisation sections and returns it as plain rows/series
dictionaries; the benchmark harness prints them, and the tests assert the
qualitative properties the paper's narrative relies on (who wins, monotone
trends, crossover locations).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.capacitor_sizing import table1 as _table1_rows
from ..core.governor import PowerNeutralGovernor
from ..core.parameters import ControllerParameters, FIG6_PARAMETERS
from ..core.tuning import TuningScenario, grid_search
from ..energy.irradiance import (
    IrradianceGenerator,
    WeatherCondition,
    ramped_shadow_irradiance,
    sinusoidal_irradiance,
)
from ..energy.profiles import PV_TARGET_VOLTAGE
from ..energy.pv_array import fig1_small_cell, paper_pv_array
from ..energy.supercapacitor import PAPER_BUFFER_CAPACITANCE_F, Supercapacitor
from ..energy.traces import PowerTrace
from ..governors.static import StaticGovernor
from ..sim.simulator import EnergyHarvestingSimulation, SimulationConfig
from ..sim.supplies import PVArraySupply
from ..soc.cores import CoreConfig
from ..soc.exynos5422 import (
    build_exynos5422_platform,
    exynos5422_latency_model,
    exynos5422_opp_table,
    exynos5422_performance_model,
    exynos5422_power_model,
)
from ..soc.opp import GHZ, OperatingPoint

__all__ = [
    "fig1_solar_day",
    "fig3_concept",
    "fig4_power_vs_frequency",
    "fig6_shadowing_simulation",
    "fig6_parameter_selection",
    "fig7_performance_vs_power",
    "fig10_transition_latency",
    "table1_buffer_capacitance",
]


# ----------------------------------------------------------------------
# Fig. 1 — daily power output of a 250 cm² cell
# ----------------------------------------------------------------------
def fig1_solar_day(dt_s: float = 10.0, seed: int = 3) -> dict:
    """Power output of the 250 cm² cell over a day (macro + micro variability)."""
    cell = fig1_small_cell()
    generator = IrradianceGenerator(seed=seed)
    irradiance = generator.generate_day(weather=WeatherCondition.FULL_SUN, dt=dt_s)
    power = np.array([cell.power_at_mpp(g) if g > 0 else 0.0 for g in irradiance.values])
    trace = PowerTrace(irradiance.times, power, name="cell_power")

    values = trace.values
    hours = trace.times / 3600.0
    # Micro variability: short-term drops relative to a 10-minute rolling maximum.
    window = max(int(600.0 / dt_s), 1)
    rolling_max = np.array([values[max(0, i - window): i + 1].max() for i in range(len(values))])
    daylight = rolling_max > 0.05
    micro_drop = np.zeros_like(values)
    micro_drop[daylight] = 1.0 - values[daylight] / rolling_max[daylight]
    return {
        "series": {"hours": hours, "power_w": values},
        "peak_power_w": float(values.max()),
        "energy_wh": trace.energy_joules() / 3600.0,
        "macro_variability": {
            "sunrise_h": float(hours[np.argmax(values > 0.02)]),
            "peak_h": float(hours[int(np.argmax(values))]),
        },
        "micro_variability": {
            "max_short_term_drop": float(micro_drop.max()),
            "fraction_daylight_with_drops": float(np.mean(micro_drop[daylight] > 0.2)) if daylight.any() else 0.0,
        },
        "paper_reference": {"peak_power_w": 1.0},
    }


# ----------------------------------------------------------------------
# Fig. 3 — concept: transient input with and without performance scaling
# ----------------------------------------------------------------------
def fig3_concept(
    capacitance_f: float = PAPER_BUFFER_CAPACITANCE_F,
    duration_s: float = 8.0,
) -> dict:
    """V_C under a transient (sinusoidal) harvest, with and without scaling.

    The "without" system holds a fixed mid-range operating point and rides on
    the capacitor alone; the "with" system runs the power-neutral governor.
    The paper's point is that the tiny capacitor alone only delays the
    undervoltage, whereas performance scaling avoids it entirely.  Both
    halves run on the system simulator, so after its first undervoltage the
    static board stays off until V_C recovers to the reboot voltage.
    """
    # Trough chosen so the harvest stays above the platform's minimum-OPP
    # power (≈1.8 W): graceful scaling can then sustain operation where the
    # static system cannot.
    irradiance = sinusoidal_irradiance(
        mean_w_m2=660.0, amplitude_w_m2=290.0, period_s=4.0, duration=duration_s, dt=0.01
    )
    array = paper_pv_array()
    config = SimulationConfig(
        duration_s=duration_s, initial_voltage=PV_TARGET_VOLTAGE, record_interval_s=0.02
    )

    # Without control: a fixed operating point on the same capacitor.
    static_opp = OperatingPoint(CoreConfig(4, 1), 1.1 * GHZ)
    static = EnergyHarvestingSimulation(
        platform=build_exynos5422_platform(initial_opp=static_opp),
        governor=StaticGovernor(static_opp),
        supply=PVArraySupply(array, irradiance),
        capacitor=Supercapacitor(capacitance_f),
        config=config,
    ).run()

    # With the proposed control.
    controlled = EnergyHarvestingSimulation(
        platform=build_exynos5422_platform(),
        governor=PowerNeutralGovernor(),
        supply=PVArraySupply(array, irradiance),
        capacitor=Supercapacitor(capacitance_f),
        config=config,
    ).run()

    return {
        "without_control": {
            "times": static.times,
            "voltage": static.supply_voltage,
            "first_undervoltage_s": static.first_brownout_time,
            "brownouts": static.brownout_count,
        },
        "with_control": {
            "times": controlled.times,
            "voltage": controlled.supply_voltage,
            "min_voltage_v": float(controlled.supply_voltage.min()),
            "brownouts": controlled.brownout_count,
        },
        "minimum_operating_voltage": build_exynos5422_platform().spec.minimum_voltage,
        "paper_reference": {
            "claim": "scaling avoids hibernation where a small capacitor alone cannot"
        },
    }


# ----------------------------------------------------------------------
# Fig. 4 — board power vs frequency per core configuration
# ----------------------------------------------------------------------
def fig4_power_vs_frequency() -> dict:
    """Board power at each (core configuration, frequency) point."""
    power_model = exynos5422_power_model()
    table = exynos5422_opp_table()
    rows = []
    for config in table.configs:
        for f in table.frequencies:
            rows.append(
                {
                    "configuration": str(config),
                    "frequency_ghz": f / GHZ,
                    "board_power_w": power_model.power_of(config, f),
                }
            )
    powers = [r["board_power_w"] for r in rows]
    return {
        "rows": rows,
        "min_power_w": min(powers),
        "max_power_w": max(powers),
        "paper_reference": {"min_power_w": 1.8, "max_power_w": 7.0},
    }


# ----------------------------------------------------------------------
# Fig. 6 — closed-loop behaviour under sudden shadowing + parameter selection
# ----------------------------------------------------------------------
def fig6_shadowing_simulation(
    parameters: ControllerParameters = FIG6_PARAMETERS,
    duration_s: float = 10.0,
) -> dict:
    """Closed-loop response to a period of sudden shadowing (Fig. 6).

    Returns the trajectories with and without the proposed control scheme; the
    "without" system keeps a static mid-range OPP and undervolts during the
    shadow, the controlled system scales down and stays above V_min.
    """
    # The shadow drops the harvest to ~2.2 W — below every static OPP the
    # paper would pick for useful performance, but still above the lowest
    # OPP, so graceful scaling survives it.  The edges ramp over half a
    # second, as the measured dip in the paper's Fig. 6 does.
    irradiance = ramped_shadow_irradiance(
        high_w_m2=1000.0,
        low_w_m2=450.0,
        shadow_start=3.0,
        shadow_end=7.0,
        duration=duration_s,
        ramp_s=0.5,
        dt=0.02,
    )
    array = paper_pv_array()

    # With the proposed controller.
    controlled_sim = EnergyHarvestingSimulation(
        platform=build_exynos5422_platform(),
        governor=PowerNeutralGovernor(parameters),
        supply=PVArraySupply(array, irradiance),
        capacitor=Supercapacitor(PAPER_BUFFER_CAPACITANCE_F),
        config=SimulationConfig(duration_s=duration_s, initial_voltage=5.3, record_interval_s=0.02),
    )
    controlled = controlled_sim.run()

    # Without: static governor at a demanding OPP.
    static_opp = OperatingPoint(CoreConfig(4, 2), 1.2 * GHZ)
    static_sim = EnergyHarvestingSimulation(
        platform=build_exynos5422_platform(initial_opp=static_opp),
        governor=StaticGovernor(static_opp),
        supply=PVArraySupply(array, irradiance),
        capacitor=Supercapacitor(PAPER_BUFFER_CAPACITANCE_F),
        config=SimulationConfig(duration_s=duration_s, initial_voltage=5.3, record_interval_s=0.02),
    )
    static = static_sim.run()

    vmin = build_exynos5422_platform().spec.minimum_voltage
    return {
        "with_control": {
            "times": controlled.times,
            "voltage": controlled.supply_voltage,
            "frequency_ghz": controlled.frequency_hz / GHZ,
            "n_little": controlled.n_little,
            "n_big": controlled.n_big,
            "min_voltage_v": float(controlled.supply_voltage.min()),
            "brownouts": controlled.brownout_count,
        },
        "without_control": {
            "times": static.times,
            "voltage": static.supply_voltage,
            "min_voltage_v": float(static.supply_voltage.min()),
            "brownouts": static.brownout_count,
        },
        "minimum_operating_voltage": vmin,
        "parameters": {
            "v_width_mv": 1e3 * parameters.v_width,
            "v_q_mv": 1e3 * parameters.v_q,
            "alpha": parameters.alpha,
            "beta": parameters.beta,
        },
        "paper_reference": {
            "claim": "with control V_C stays above V_min during the shadow; without it falls below"
        },
    }


def fig6_parameter_selection(
    duration_s: float = 20.0,
    v_width_values: Sequence[float] = (0.10, 0.144, 0.25),
    v_q_values: Sequence[float] = (0.03, 0.0479, 0.10),
    alpha_values: Sequence[float] = (0.12,),
    beta_values: Sequence[float] = (0.479,),
) -> dict:
    """A reduced version of the Section III parameter sweep.

    The full Matlab study swept all four parameters; the default grid here
    keeps the α/β values fixed at the paper's optimum and sweeps V_width and
    V_q around it, confirming that the paper's tuned values sit at (or very
    near) the top of the ranking.
    """
    scenario = TuningScenario(platform_factory=build_exynos5422_platform, duration_s=duration_s)
    results = grid_search(scenario, v_width_values, v_q_values, alpha_values, beta_values)
    rows = [r.as_dict() for r in results]
    return {
        "rows": rows,
        "best": rows[0] if rows else None,
        "paper_reference": {
            "v_width_mv": 144.0,
            "v_q_mv": 47.9,
            "alpha": 0.120,
            "beta": 0.479,
        },
    }


# ----------------------------------------------------------------------
# Fig. 7 — ray-trace performance vs board power
# ----------------------------------------------------------------------
def fig7_performance_vs_power() -> dict:
    """smallpt 5-spp frame rate against board power for every OPP."""
    power_model = exynos5422_power_model()
    perf_model = exynos5422_performance_model()
    table = exynos5422_opp_table()
    rows = []
    for config in table.configs:
        for f in table.frequencies:
            opp = OperatingPoint(config, f)
            rows.append(
                {
                    "configuration": str(config),
                    "frequency_ghz": f / GHZ,
                    "board_power_w": power_model.power(opp),
                    "fps": perf_model.fps(opp),
                }
            )
    little_only = [r for r in rows if "A15" not in r["configuration"]]
    big_little = [r for r in rows if "A15" in r["configuration"]]
    return {
        "rows": rows,
        "max_fps_little_only": max(r["fps"] for r in little_only),
        "max_fps_overall": max(r["fps"] for r in rows),
        "max_power_w": max(r["board_power_w"] for r in rows),
        "paper_reference": {
            "max_fps_little_only": 0.065,
            "max_fps_overall": 0.25,
        },
        "big_little_rows": big_little,
    }


# ----------------------------------------------------------------------
# Fig. 10 — DVFS and hot-plug latencies
# ----------------------------------------------------------------------
def fig10_transition_latency() -> dict:
    """Hot-plug latency per core transition and DVFS latency per step."""
    latency = exynos5422_latency_model()
    ladder = exynos5422_opp_table().frequencies

    hotplug_rows = []
    for frequency_ghz in (0.2, 0.8, 1.4):
        f = frequency_ghz * GHZ
        configs = [
            CoreConfig(1, 0), CoreConfig(2, 0), CoreConfig(3, 0), CoreConfig(4, 0),
            CoreConfig(4, 1), CoreConfig(4, 2), CoreConfig(4, 3), CoreConfig(4, 4),
        ]
        for from_cfg, to_cfg in zip(configs[:-1], configs[1:]):
            hotplug_rows.append(
                {
                    "transition": f"{from_cfg.total}->{to_cfg.total} cores",
                    "frequency_ghz": frequency_ghz,
                    "latency_ms": 1e3 * latency.hotplug_latency(from_cfg, to_cfg, f),
                }
            )

    dvfs_rows = []
    for config in (CoreConfig(1, 0), CoreConfig(4, 0), CoreConfig(4, 1), CoreConfig(4, 4)):
        for from_ghz, to_ghz in ((0.4, 0.2), (1.0, 0.8), (1.4, 1.2), (0.2, 0.4), (0.8, 1.0), (1.2, 1.4)):
            dvfs_rows.append(
                {
                    "configuration": str(config),
                    "transition_ghz": f"{from_ghz}->{to_ghz}",
                    "latency_ms": 1e3 * latency.dvfs_latency(from_ghz * GHZ, to_ghz * GHZ, config),
                }
            )

    hot_low = [r["latency_ms"] for r in hotplug_rows if r["frequency_ghz"] == 0.2]
    hot_high = [r["latency_ms"] for r in hotplug_rows if r["frequency_ghz"] == 1.4]
    return {
        "hotplug_rows": hotplug_rows,
        "dvfs_rows": dvfs_rows,
        "hotplug_latency_at_200mhz_ms": float(np.mean(hot_low)),
        "hotplug_latency_at_1400mhz_ms": float(np.mean(hot_high)),
        "max_dvfs_latency_ms": max(r["latency_ms"] for r in dvfs_rows),
        "paper_reference": {
            "hotplug_range_ms": (10.0, 40.0),
            "dvfs_range_ms": (1.0, 3.0),
        },
    }


# ----------------------------------------------------------------------
# Table I — worst-case transition cost and required buffer capacitance
# ----------------------------------------------------------------------
def table1_buffer_capacitance() -> dict:
    """Transition time, charge and required capacitance for both orderings."""
    platform = build_exynos5422_platform()
    rows = _table1_rows(platform)
    by_scenario = {row["scenario"]: row for row in rows}
    freq_first = by_scenario["(a) Frequency, Core"]
    cores_first = by_scenario["(b) Core, Frequency"]
    return {
        "rows": rows,
        "advantage_time": freq_first["transition_time_ms"] / cores_first["transition_time_ms"],
        "advantage_capacitance": freq_first["required_capacitance_mf"]
        / cores_first["required_capacitance_mf"],
        "chosen_component_mf": 47.0,
        "paper_reference": {
            "(a)": {"time_ms": 345.42, "charge_c": 0.1299, "capacitance_mf": 84.2},
            "(b)": {"time_ms": 63.21, "charge_c": 0.0461, "capacitance_mf": 15.4},
        },
    }
