#!/usr/bin/env python3
"""Full-day harvesting: voltage stabilisation, MPP tracking and power neutrality.

Simulates the paper's outdoor experiment (Sections V-B): the ODROID-XU4 model
directly coupled to the 1340 cm² PV array through the 47 mF buffer, running
the power-neutral governor from 10:30 to 16:30 local time under full-sun
conditions with passing clouds.  Reports:

* the fraction of time V_C stayed within ±5 % of the 5.3 V target (Fig. 12),
* how the operating voltage distributes relative to the array MPP (Fig. 13),
* available vs consumed power over the day (Fig. 14),
* the governor's CPU and monitoring-power overhead (Fig. 15).

The default simulates one hour of that window to keep the runtime short;
pass a duration in seconds as the first argument (21600 for the full six
hours).

Run with:  python examples/full_day_harvest.py [duration_seconds]
"""

import sys

from repro import PowerNeutralGovernor, WeatherCondition, run_pv_experiment
from repro.analysis.energy_accounting import energy_account, power_tracking_error
from repro.analysis.mppt import mppt_report, operating_voltage_histogram
from repro.analysis.overhead import overhead_report
from repro.analysis.reporting import format_kv, format_series, format_table
from repro.analysis.stability import voltage_stability_report
from repro.energy.profiles import PV_TARGET_VOLTAGE
from repro.energy.pv_array import paper_pv_array
from repro.soc.exynos5422 import build_exynos5422_platform


def main() -> None:
    duration_s = float(sys.argv[1]) if len(sys.argv) > 1 else 3600.0
    platform = build_exynos5422_platform()
    governor = PowerNeutralGovernor()
    result = run_pv_experiment(
        governor,
        duration_s=duration_s,
        weather=WeatherCondition.FULL_SUN,
        seed=7,
        platform=platform,
    )

    stability = voltage_stability_report(result, target_voltage=PV_TARGET_VOLTAGE)
    print(format_kv(stability.as_dict(), title="== Fig. 12: voltage stability =="))
    print(f"(paper: 93.3 % of the run within ±5 % of 5.3 V)")
    print()

    array = paper_pv_array()
    mppt = mppt_report(result, array)
    print(format_kv(mppt.as_dict(), title="== Fig. 13: MPP tracking =="))
    edges, fractions = operating_voltage_histogram(result, bin_width_v=0.25)
    rows = [
        {"voltage_bin_v": 0.5 * (edges[i] + edges[i + 1]), "time_fraction": fractions[i]}
        for i in range(len(fractions))
        if fractions[i] > 0.005
    ]
    print(format_table(rows, title="time spent at each operating voltage"))
    print()

    account = energy_account(result)
    tracking = power_tracking_error(result)
    print(format_kv(account.as_dict(), title="== Fig. 14: energy accounting =="))
    print(format_kv(tracking, title="power-tracking error"))
    print(format_series("available power", result.times, result.available_power, units="W"))
    print(format_series("consumed power", result.times, result.consumed_power, units="W"))
    print()

    overhead = overhead_report(result, platform)
    print(format_kv(overhead.as_dict(), title="== Fig. 15: overheads =="))


if __name__ == "__main__":
    main()
