#!/usr/bin/env python3
"""Relate a smallpt-style render to the power budget.

The paper benchmarks its platform with the ``smallpt`` global-illumination
renderer.  This example takes a small render's instruction cost and uses the
calibrated power and performance models to estimate how long it would take on
the ODROID-XU4 at several operating points — i.e. what the governor is
actually trading off when it scales the OPP to match the harvested power.

Run with:  python examples/raytracer_demo.py
"""

from repro.analysis.reporting import format_table
from repro.soc.cores import CoreConfig
from repro.soc.exynos5422 import exynos5422_performance_model, exynos5422_power_model
from repro.soc.opp import GHZ, OperatingPoint
from repro.workloads.raytracer import RenderSettings
from repro.workloads.workload import RaytraceWorkload


def main() -> None:
    settings = RenderSettings(width=96, height=72, samples_per_pixel=4)
    workload = RaytraceWorkload(settings, name="demo-render")
    print(
        f"A {settings.width}x{settings.height} render at {settings.samples_per_pixel} spp "
        f"costs ~{workload.instructions_per_unit / 1e6:.0f} M instructions."
    )
    power_model = exynos5422_power_model()
    performance_model = exynos5422_performance_model()
    rows = []
    for config, freq_ghz in (
        (CoreConfig(1, 0), 0.2),
        (CoreConfig(4, 0), 1.4),
        (CoreConfig(4, 2), 1.1),
        (CoreConfig(4, 4), 1.4),
    ):
        opp = OperatingPoint(config, freq_ghz * GHZ)
        rate = performance_model.instruction_rate(opp)
        rows.append(
            {
                "operating_point": str(opp),
                "board_power_w": power_model.power(opp),
                "render_time_s": workload.instructions_per_unit / rate,
            }
        )
    print(format_table(rows, title="estimated cost of this render on the ODROID-XU4 model"))
    print("\nThe governor picks among exactly these trade-offs as the harvested power varies.")


if __name__ == "__main__":
    main()
