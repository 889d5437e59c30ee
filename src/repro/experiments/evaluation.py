"""Reproductions of the paper's evaluation section (Figs. 11-15) and the
paper's published Table II reference values.

Every function runs the relevant closed-loop experiment on the calibrated
system models and returns plain rows/series dictionaries plus the paper's
reference values, so the benchmark harness can print a side-by-side view and
the tests can assert the qualitative outcomes (who wins, by roughly what
factor, where the crossovers fall).  Table II itself and the ablation studies
run as :mod:`repro.sweep` campaigns (``repro table2``, the ``table2-shootout``
preset, ``benchmarks/bench_ablation_studies.py``).

Durations are parameters: the defaults are shortened relative to the paper's
wall-clock tests (an hour of simulated time costs tens of seconds of CPU) but
preserve the relevant dynamics; the benchmarks state which duration they ran.
"""

from __future__ import annotations

import numpy as np

from ..analysis.energy_accounting import energy_account, power_tracking_error
from ..analysis.mppt import mppt_report, operating_voltage_histogram
from ..analysis.overhead import overhead_report
from ..analysis.stability import voltage_stability_report
from ..core.governor import PowerNeutralGovernor
from ..core.parameters import (
    ControllerParameters,
    FIG11_PARAMETERS,
    PAPER_TUNED_PARAMETERS,
)
from ..energy.irradiance import WeatherCondition
from ..energy.profiles import PV_TARGET_VOLTAGE, fig11_supply_profile
from ..energy.pv_array import paper_pv_array
from ..soc.exynos5422 import build_exynos5422_platform
from ..soc.opp import GHZ
from .scenarios import run_controlled_supply_experiment, run_pv_experiment

__all__ = [
    "fig11_controlled_supply",
    "fig12_voltage_stability",
    "fig13_iv_and_operating_voltage",
    "fig14_power_tracking",
    "TABLE2_PAPER_REFERENCE",
    "fig15_overhead",
]


# ----------------------------------------------------------------------
# Fig. 11 — response to a controlled variable supply
# ----------------------------------------------------------------------
def fig11_controlled_supply(
    parameters: ControllerParameters = FIG11_PARAMETERS,
    duration_s: float = 170.0,
) -> dict:
    """Verification against a programmed laboratory supply (Section V-A)."""
    profile = fig11_supply_profile(duration_s=duration_s)
    # No PV maximum power point exists for a laboratory supply, so the
    # thresholds are free to roam the full operating window.
    governor = PowerNeutralGovernor(parameters, target_voltage=None)
    result = run_controlled_supply_experiment(governor, voltage_profile=profile)

    # Correlation between the supply voltage and the selected performance level
    # (frequency x online cores) — the paper's qualitative claim is that
    # performance follows the supply.
    perf_level = result.frequency_hz / GHZ * (result.n_little + result.n_big)
    if np.std(perf_level) > 0 and np.std(result.supply_voltage) > 0:
        correlation = float(np.corrcoef(result.supply_voltage, perf_level)[0, 1])
    else:
        correlation = 0.0

    return {
        "series": {
            "times": result.times,
            "supply_voltage": result.supply_voltage,
            "frequency_mhz": result.frequency_hz / 1e6,
            "n_little": result.n_little,
            "n_total": result.n_little + result.n_big,
        },
        "dvfs_transitions": result.dvfs_transition_count,
        "hotplug_transitions": result.hotplug_transition_count,
        "voltage_performance_correlation": correlation,
        "brownouts": result.brownout_count,
        "parameters": {
            "v_width_mv": 1e3 * parameters.v_width,
            "v_q_mv": 1e3 * parameters.v_q,
            "alpha": parameters.alpha,
            "beta": parameters.beta,
        },
        "paper_reference": {
            "claim": "performance modulates with the supply; core scaling rarer than DVFS",
        },
    }


# ----------------------------------------------------------------------
# Fig. 12 — voltage stability under full sun
# ----------------------------------------------------------------------
def fig12_voltage_stability(
    duration_s: float = 1800.0,
    seed: int = 7,
    parameters: ControllerParameters = PAPER_TUNED_PARAMETERS,
) -> dict:
    """V_C stability around the MPP target under full-sun harvesting."""
    governor = PowerNeutralGovernor(parameters)
    result = run_pv_experiment(
        governor, duration_s=duration_s, weather=WeatherCondition.FULL_SUN, seed=seed
    )
    report = voltage_stability_report(result, target_voltage=PV_TARGET_VOLTAGE)
    return {
        "series": {"times": result.times, "voltage": result.supply_voltage},
        "stability": report.as_dict(),
        "fraction_within_5pct": report.fraction_within,
        "target_voltage_v": PV_TARGET_VOLTAGE,
        "brownouts": result.brownout_count,
        "duration_s": duration_s,
        "paper_reference": {"fraction_within_5pct": 0.933, "target_voltage_v": 5.3},
        "_result": result,
    }


# ----------------------------------------------------------------------
# Fig. 13 — PV I-V curve and time spent at each operating voltage
# ----------------------------------------------------------------------
def fig13_iv_and_operating_voltage(
    duration_s: float = 1800.0,
    seed: int = 7,
    reuse_result=None,
) -> dict:
    """IV characteristics of the array and the operating-voltage histogram."""
    array = paper_pv_array()
    voltages, currents = array.iv_curve(points=80)
    powers = voltages * currents
    mpp = array.maximum_power_point()

    if reuse_result is None:
        governor = PowerNeutralGovernor()
        result = run_pv_experiment(
            governor, duration_s=duration_s, weather=WeatherCondition.FULL_SUN, seed=seed
        )
    else:
        result = reuse_result
    edges, fractions = operating_voltage_histogram(result, bin_width_v=0.25, v_max=7.0)
    report = mppt_report(result, array)

    iv_rows = [
        {"voltage_v": float(v), "current_a": float(i), "power_w": float(p)}
        for v, i, p in zip(voltages, currents, powers)
    ]
    histogram_rows = [
        {"voltage_bin_v": float(0.5 * (edges[i] + edges[i + 1])), "time_fraction": float(fractions[i])}
        for i in range(len(fractions))
        if fractions[i] > 0
    ]
    return {
        "iv_rows": iv_rows,
        "histogram_rows": histogram_rows,
        "mpp": {"voltage_v": mpp.voltage, "current_a": mpp.current, "power_w": mpp.power},
        "mppt": report.as_dict(),
        "paper_reference": {
            "mpp_voltage_v": 5.3,
            "claim": "operating-voltage histogram concentrates at the MPP voltage",
        },
    }


# ----------------------------------------------------------------------
# Fig. 14 — available vs consumed power over the day
# ----------------------------------------------------------------------
def fig14_power_tracking(
    duration_s: float = 1800.0,
    seed: int = 7,
    weather: WeatherCondition = WeatherCondition.FULL_SUN,
    reuse_result=None,
) -> dict:
    """Available (estimated) vs consumed power — the power-neutrality claim."""
    if reuse_result is None:
        governor = PowerNeutralGovernor()
        result = run_pv_experiment(governor, duration_s=duration_s, weather=weather, seed=seed)
    else:
        result = reuse_result
    account = energy_account(result)
    tracking = power_tracking_error(result)
    return {
        "series": {
            "times": result.times,
            "available_power_w": result.available_power,
            "consumed_power_w": result.consumed_power,
        },
        "energy": account.as_dict(),
        "tracking": tracking,
        "paper_reference": {
            "claim": "consumed power closely tracks available power without exceeding it",
        },
        "_result": result,
    }


# ----------------------------------------------------------------------
# Table II — comparison with the Linux governors
# ----------------------------------------------------------------------
#: The paper's published Table II rows (60-minute outdoor test), shared by the
#: CLI, the benches and the examples so the reference numbers live in one place.
#: The reproduction runs as the ``table2-shootout`` campaign preset.
TABLE2_PAPER_REFERENCE: dict = {
    "Linux Conservative": {"renders_per_min": 1.0127, "lifetime": "00:05", "instructions_b": 24.0},
    "Linux Powersave": {"renders_per_min": 0.1456, "lifetime": "60:00", "instructions_b": 2485.6},
    "Proposed Approach": {"renders_per_min": 0.2460, "lifetime": "60:00", "instructions_b": 4200.4},
    "improvement_vs_powersave": 0.69,
}


# ----------------------------------------------------------------------
# Fig. 15 — overhead of the proposed approach
# ----------------------------------------------------------------------
def fig15_overhead(duration_s: float = 900.0, seed: int = 7) -> dict:
    """CPU-time and monitoring-power overhead of the proposed approach."""
    platform = build_exynos5422_platform()
    governor = PowerNeutralGovernor()
    result = run_pv_experiment(
        governor,
        duration_s=duration_s,
        weather=WeatherCondition.FULL_SUN,
        seed=seed,
        platform=platform,
    )
    report = overhead_report(result, platform)
    return {
        "overhead": report.as_dict(),
        "cpu_overhead_percent": 100.0 * report.cpu_overhead_fraction,
        "interrupts": result.interrupt_count,
        "paper_reference": {
            "cpu_overhead_percent": 0.104,
            "monitor_power_mw": 1.61,
            "monitor_percent_of_min_power": 0.82,
        },
    }
