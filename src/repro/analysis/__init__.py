"""Analysis: stability, energy accounting, MPPT, overhead, report formatting."""

from .stability import StabilityReport, fraction_within_tolerance, voltage_stability_report
from .energy_accounting import EnergyAccount, energy_account, power_tracking_error
from .mppt import MPPTReport, mppt_report, operating_voltage_histogram
from .overhead import OverheadReport, overhead_report
from .reporting import format_kv, format_series, format_table

__all__ = [
    "StabilityReport",
    "fraction_within_tolerance",
    "voltage_stability_report",
    "EnergyAccount",
    "energy_account",
    "power_tracking_error",
    "MPPTReport",
    "mppt_report",
    "operating_voltage_histogram",
    "OverheadReport",
    "overhead_report",
    "format_kv",
    "format_series",
    "format_table",
]
