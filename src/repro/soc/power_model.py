"""Board power consumption model (paper Fig. 4).

The governor never needs a microarchitectural power model: it only needs the
board-level power drawn at each operating performance point while running the
CPU-intensive ray-tracing workload.  The paper characterises this surface
experimentally (Fig. 4); we reproduce it with a standard analytical per-core
model calibrated to the figure:

    P_board(config, f) = P_base
                         + n_little * (P_static_L + C_eff_L * f * Vdd_L(f)^2)
                         + n_big    * (P_static_B + C_eff_B * f * Vdd_B(f)^2)

where ``Vdd(f)`` is a per-cluster linear voltage/frequency map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .cores import CoreConfig, CoreType
from .opp import OperatingPoint

__all__ = [
    "VoltageFrequencyMap",
    "ClusterPowerParameters",
    "PowerModel",
    "BigLittlePowerModel",
]


@dataclass(frozen=True)
class VoltageFrequencyMap:
    """Linear supply-voltage vs frequency relationship for one cluster.

    ``Vdd(f) = v_min + (v_max - v_min) * (f - f_min) / (f_max - f_min)``,
    clamped to ``[v_min, v_max]``.  This matches the shape of the Exynos5422
    ASV voltage tables closely enough for board-power reproduction.
    """

    v_min: float
    v_max: float
    f_min_hz: float
    f_max_hz: float

    def __post_init__(self) -> None:
        if self.v_min <= 0 or self.v_max < self.v_min:
            raise ValueError("require 0 < v_min <= v_max")
        if self.f_min_hz <= 0 or self.f_max_hz <= self.f_min_hz:
            raise ValueError("require 0 < f_min_hz < f_max_hz")

    def voltage(self, frequency_hz: float) -> float:
        """Supply voltage at the given frequency."""
        span = self.f_max_hz - self.f_min_hz
        frac = (frequency_hz - self.f_min_hz) / span
        frac = min(max(frac, 0.0), 1.0)
        return self.v_min + (self.v_max - self.v_min) * frac


@dataclass(frozen=True)
class ClusterPowerParameters:
    """Per-core power parameters for one cluster type.

    Attributes
    ----------
    effective_capacitance_f:
        Effective switched capacitance per core in farads; dynamic power is
        ``C_eff * f * Vdd^2`` (activity factor folded in, as the workload is
        CPU-bound).
    static_power_w:
        Per-core static (leakage + uncore share) power in watts while online.
    vf_map:
        Voltage/frequency relationship of the cluster.
    """

    effective_capacitance_f: float
    static_power_w: float
    vf_map: VoltageFrequencyMap

    def __post_init__(self) -> None:
        if self.effective_capacitance_f <= 0:
            raise ValueError("effective_capacitance_f must be positive")
        if self.static_power_w < 0:
            raise ValueError("static_power_w must be non-negative")

    def core_power(self, frequency_hz: float) -> float:
        """Power of a single online core of this cluster at ``frequency_hz``."""
        vdd = self.vf_map.voltage(frequency_hz)
        return self.static_power_w + self.effective_capacitance_f * frequency_hz * vdd * vdd


class PowerModel(Protocol):
    """Anything that maps an operating point to board power in watts."""

    def power(self, opp: OperatingPoint) -> float:  # pragma: no cover - protocol
        ...


class BigLittlePowerModel:
    """Analytical board-power model for a two-cluster big.LITTLE SoC.

    Parameters
    ----------
    base_power_w:
        Board power with a single LITTLE core idle-clocked: covers DRAM, the
        fan, voltage regulators, peripherals and the uncore.  Fig. 4's curves
        all converge towards roughly this value at the lowest frequency.
    little / big:
        Per-cluster per-core parameters.
    """

    def __init__(
        self,
        base_power_w: float,
        little: ClusterPowerParameters,
        big: ClusterPowerParameters,
    ):
        if base_power_w < 0:
            raise ValueError("base_power_w must be non-negative")
        self.base_power_w = base_power_w
        self.little = little
        self.big = big

    def cluster(self, core_type: CoreType) -> ClusterPowerParameters:
        return self.little if core_type is CoreType.LITTLE else self.big

    def core_power(self, core_type: CoreType, frequency_hz: float) -> float:
        """Power of one online core of the given type at ``frequency_hz``."""
        return self.cluster(core_type).core_power(frequency_hz)

    def power(self, opp: OperatingPoint) -> float:
        """Board power at an operating point (W)."""
        config = opp.config
        f = opp.frequency_hz
        return (
            self.base_power_w
            + config.n_little * self.little.core_power(f)
            + config.n_big * self.big.core_power(f)
        )

    def power_of(self, config: CoreConfig, frequency_hz: float) -> float:
        """Convenience overload taking the configuration and frequency separately."""
        return self.power(OperatingPoint(config, frequency_hz))

    def power_curve(self, config: CoreConfig, frequencies_hz) -> np.ndarray:
        """Board power over an array of frequencies for a fixed configuration."""
        return np.array([self.power_of(config, float(f)) for f in frequencies_hz])
