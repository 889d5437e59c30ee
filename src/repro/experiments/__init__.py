"""Experiment harness: shared scenarios plus one function per paper figure/table."""

from ..energy.profiles import PV_TARGET_VOLTAGE, fig11_supply_profile, solar_irradiance_trace
from .scenarios import run_controlled_supply_experiment, run_pv_experiment
from .characterisation import (
    fig1_solar_day,
    fig3_concept,
    fig4_power_vs_frequency,
    fig6_parameter_selection,
    fig6_shadowing_simulation,
    fig7_performance_vs_power,
    fig10_transition_latency,
    table1_buffer_capacitance,
)
from .evaluation import (
    fig11_controlled_supply,
    fig12_voltage_stability,
    fig13_iv_and_operating_voltage,
    fig14_power_tracking,
    fig15_overhead,
)

__all__ = [
    "PV_TARGET_VOLTAGE",
    "fig11_supply_profile",
    "run_controlled_supply_experiment",
    "run_pv_experiment",
    "solar_irradiance_trace",
    "fig1_solar_day",
    "fig3_concept",
    "fig4_power_vs_frequency",
    "fig6_parameter_selection",
    "fig6_shadowing_simulation",
    "fig7_performance_vs_power",
    "fig10_transition_latency",
    "table1_buffer_capacitance",
    "fig11_controlled_supply",
    "fig12_voltage_stability",
    "fig13_iv_and_operating_voltage",
    "fig14_power_tracking",
    "fig15_overhead",
]
