"""Calibrated Samsung Exynos5422 (ODROID-XU4) platform definition.

This module holds the numeric calibration that ties the generic SoC models to
the measurements reported in the paper:

* board power vs frequency per core configuration (Fig. 4),
* smallpt frame rate vs power (Fig. 7),
* DVFS / hot-plug transition latencies (Fig. 10),
* the 4.1 V - 5.7 V operating-voltage window (Section IV).

Calibration anchors and the reasoning behind the chosen constants sit in the
docstrings of :func:`exynos5422_power_model` and
:func:`exynos5422_performance_model` below; ROADMAP.md item 7 records how
closely the reproduced values match the paper's.
"""

from __future__ import annotations

from .cores import core_ladder
from .latency import TransitionLatencyModel
from .opp import GHZ, FrequencyLadder, OPPTable, OperatingPoint, PAPER_FREQUENCIES_HZ
from .performance_model import PerformanceModel, WorkloadScaling
from .platform import PlatformSpec, SoCPlatform
from .power_model import BigLittlePowerModel, ClusterPowerParameters, VoltageFrequencyMap

__all__ = [
    "EXYNOS5422_MIN_VOLTAGE",
    "EXYNOS5422_MAX_VOLTAGE",
    "EXYNOS5422_FREQUENCIES_HZ",
    "exynos5422_power_model",
    "exynos5422_performance_model",
    "exynos5422_latency_model",
    "exynos5422_opp_table",
    "exynos5422_spec",
    "build_exynos5422_platform",
]

#: Operating-voltage window of the ODROID-XU4 board (Section IV).
EXYNOS5422_MIN_VOLTAGE = 4.1
EXYNOS5422_MAX_VOLTAGE = 5.7

#: The eight governor frequencies (Section III).
EXYNOS5422_FREQUENCIES_HZ = PAPER_FREQUENCIES_HZ


def exynos5422_power_model() -> BigLittlePowerModel:
    """Board power model calibrated against Fig. 4.

    Anchor points (board power while ray tracing):

    * 1xA7 @ 0.2 GHz  -> ~1.8 W (left edge of Fig. 7's LITTLE-only panel)
    * 4xA7 @ 1.4 GHz  -> ~3.0 W
    * 4xA7+4xA15 @ 1.4 GHz -> ~7.3 W (top of Fig. 4)
    """
    little_vf = VoltageFrequencyMap(v_min=0.90, v_max=1.20, f_min_hz=0.2 * GHZ, f_max_hz=1.4 * GHZ)
    big_vf = VoltageFrequencyMap(v_min=0.90, v_max=1.25, f_min_hz=0.2 * GHZ, f_max_hz=1.4 * GHZ)
    little = ClusterPowerParameters(
        effective_capacitance_f=150e-12,
        static_power_w=0.030,
        vf_map=little_vf,
    )
    big = ClusterPowerParameters(
        effective_capacitance_f=450e-12,
        static_power_w=0.080,
        vf_map=big_vf,
    )
    return BigLittlePowerModel(base_power_w=1.70, little=little, big=big)


def exynos5422_performance_model() -> PerformanceModel:
    """Instruction-throughput / FPS model calibrated against Fig. 7 and Table II."""
    return PerformanceModel(
        ipc_little=0.23,
        ipc_big=0.644,
        workload=WorkloadScaling(
            instructions_per_frame=19.6e9,
            instructions_per_render=290e9,
            parallel_fraction=0.99,
        ),
    )


def exynos5422_latency_model() -> TransitionLatencyModel:
    """DVFS / hot-plug latency model calibrated against Fig. 10."""
    return TransitionLatencyModel(
        hotplug_base_s=0.010,
        hotplug_reference_hz=1.4 * GHZ,
        # 10 ms at 1.4 GHz grows to ~40 ms at 0.2 GHz, matching Fig. 10's spread.
        hotplug_frequency_exponent=0.71,
        hotplug_big_extra_s=0.004,
        dvfs_base_s=0.0012,
        dvfs_per_core_s=0.00022,
        dvfs_up_penalty_s=0.0006,
    )


def exynos5422_opp_table() -> OPPTable:
    """The OPP table: 8 frequencies x the 8-step core ladder."""
    return OPPTable(
        frequency_ladder=FrequencyLadder(EXYNOS5422_FREQUENCIES_HZ),
        configs=core_ladder(max_little=4, max_big=4),
    )


def exynos5422_spec() -> PlatformSpec:
    """Electrical/OPP envelope of the ODROID-XU4."""
    return PlatformSpec(
        name="ODROID-XU4 (Exynos5422)",
        opp_table=exynos5422_opp_table(),
        minimum_voltage=EXYNOS5422_MIN_VOLTAGE,
        maximum_voltage=EXYNOS5422_MAX_VOLTAGE,
        reboot_voltage=4.6,
        reboot_latency_s=8.0,
    )


def build_exynos5422_platform(initial_opp: OperatingPoint | None = None) -> SoCPlatform:
    """Assemble the fully calibrated ODROID-XU4 platform model.

    Parameters
    ----------
    initial_opp:
        Operating point at power-on; defaults to the lowest OPP
        (1 LITTLE core at 0.2 GHz).
    """
    return SoCPlatform(
        spec=exynos5422_spec(),
        power_model=exynos5422_power_model(),
        performance_model=exynos5422_performance_model(),
        latency_model=exynos5422_latency_model(),
        initial_opp=initial_opp,
    )
