#!/usr/bin/env python3
"""Quickstart: run the power-neutral governor on a synthetic solar harvest.

Builds the paper's system — the calibrated ODROID-XU4 model, the 1340 cm² PV
array, the 47 mF buffer and the power-neutral governor — and simulates ten
minutes of full-sun harvesting with passing clouds.  Prints the headline
metrics the paper reports: voltage stability around the 5.3 V maximum power
point, power-neutrality (consumed vs available power) and completed work.

Run with:  python examples/quickstart.py
"""

from repro import PowerNeutralGovernor, WeatherCondition, run_pv_experiment
from repro.analysis.reporting import format_kv, format_series
from repro.analysis.stability import voltage_stability_report
from repro.energy.profiles import PV_TARGET_VOLTAGE
from repro.workloads.workload import FIG7_FRAME


def main() -> None:
    governor = PowerNeutralGovernor()
    result = run_pv_experiment(
        governor,
        duration_s=600.0,
        weather=WeatherCondition.FULL_SUN,
        seed=7,
    )

    stability = voltage_stability_report(result, target_voltage=PV_TARGET_VOLTAGE)

    print(format_kv(result.summary(), title="== Run summary =="))
    print()
    print(format_kv(stability.as_dict(), title="== Voltage stability (paper Fig. 12) =="))
    print()
    frames = FIG7_FRAME.units_completed(result.total_instructions)
    print(f"smallpt frames completed (5 spp equivalent): {frames:.1f}")
    print(f"governor CPU overhead: {100 * result.governor_cpu_overhead():.3f} % (paper: 0.104 %)")
    print()
    print(format_series("V_C", result.times, result.supply_voltage, units="V"))
    print(format_series("available power", result.times, result.available_power, units="W"))
    print(format_series("consumed power", result.times, result.consumed_power, units="W"))


if __name__ == "__main__":
    main()
