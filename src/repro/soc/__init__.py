"""MP-SoC substrate: cores, OPPs, power/performance/latency models, platform.

This subpackage models the *load* side of the paper's system: the Samsung
Exynos5422 big.LITTLE SoC on the ODROID-XU4 board, characterised by the paper
in Fig. 4 (power), Fig. 7 (performance), Fig. 10 (transition latency) and
Table I (worst-case transition cost).
"""

from .cores import CoreConfig, CoreType, CORE_LADDER, core_ladder
from .opp import (
    GHZ,
    MHZ,
    PAPER_FREQUENCIES_HZ,
    FrequencyLadder,
    OperatingPoint,
    OPPTable,
)
from .power_model import (
    BigLittlePowerModel,
    ClusterPowerParameters,
    VoltageFrequencyMap,
)
from .performance_model import PerformanceModel, WorkloadScaling
from .latency import TransitionLatencyModel, TransitionStep
from .platform import PendingTransition, PlatformSpec, SoCPlatform
from .exynos5422 import (
    EXYNOS5422_FREQUENCIES_HZ,
    EXYNOS5422_MAX_VOLTAGE,
    EXYNOS5422_MIN_VOLTAGE,
    build_exynos5422_platform,
    exynos5422_latency_model,
    exynos5422_opp_table,
    exynos5422_performance_model,
    exynos5422_power_model,
    exynos5422_spec,
)

__all__ = [
    "CoreConfig",
    "CoreType",
    "CORE_LADDER",
    "core_ladder",
    "GHZ",
    "MHZ",
    "PAPER_FREQUENCIES_HZ",
    "FrequencyLadder",
    "OperatingPoint",
    "OPPTable",
    "BigLittlePowerModel",
    "ClusterPowerParameters",
    "VoltageFrequencyMap",
    "PerformanceModel",
    "WorkloadScaling",
    "TransitionLatencyModel",
    "TransitionStep",
    "PendingTransition",
    "PlatformSpec",
    "SoCPlatform",
    "EXYNOS5422_FREQUENCIES_HZ",
    "EXYNOS5422_MAX_VOLTAGE",
    "EXYNOS5422_MIN_VOLTAGE",
    "build_exynos5422_platform",
    "exynos5422_latency_model",
    "exynos5422_opp_table",
    "exynos5422_performance_model",
    "exynos5422_power_model",
    "exynos5422_spec",
]
