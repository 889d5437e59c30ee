"""Performance model: instruction throughput and ray-trace frame rate (Fig. 7).

The paper measures performance two ways:

* **FPS** of the smallpt ray tracer at 5 samples per pixel (Fig. 7, and
  "renders per minute" of a larger render in Table II), and
* **instructions completed** (Table II).

Both derive from the same underlying quantity: the aggregate instruction
throughput of the online cores.  The ray tracer is embarrassingly parallel
and CPU-bound, so throughput scales with the sum over online cores of
``IPC_eff * f`` where ``IPC_eff`` is the workload's effective instructions
per cycle on that core type.

Calibration (see :func:`repro.soc.exynos5422.exynos5422_performance_model`):
``IPC_eff = 0.23`` for the A7 and ``0.644`` for the A15 reproduce,
simultaneously, the Fig. 7 frame rates (with a 5-spp frame costing about
19.6 G instructions) and the Table II instruction counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cores import CoreConfig, CoreType
from .opp import OperatingPoint

__all__ = ["WorkloadScaling", "PerformanceModel"]


@dataclass(frozen=True)
class WorkloadScaling:
    """How a specific workload maps instruction throughput to work units.

    Attributes
    ----------
    instructions_per_frame:
        Instructions required to render one reference frame (smallpt,
        1024x768, 5 samples per pixel).
    instructions_per_render:
        Instructions required for one Table II "render" (a higher-quality
        render; the paper's renders/minute figures imply roughly 15x a
        5-spp frame).
    parallel_fraction:
        Fraction of the workload that parallelises across cores (Amdahl).
        smallpt is almost perfectly parallel.
    """

    instructions_per_frame: float = 19.6e9
    instructions_per_render: float = 290e9
    parallel_fraction: float = 0.99

    def __post_init__(self) -> None:
        if self.instructions_per_frame <= 0:
            raise ValueError("instructions_per_frame must be positive")
        if self.instructions_per_render <= 0:
            raise ValueError("instructions_per_render must be positive")
        if not 0.0 < self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must lie in (0, 1]")


class PerformanceModel:
    """Aggregate instruction throughput and derived frame/render rates.

    Parameters
    ----------
    ipc_little / ipc_big:
        Effective workload instructions-per-cycle on a LITTLE / big core.
    workload:
        Work-unit scaling (frame / render instruction costs).
    """

    def __init__(
        self,
        ipc_little: float = 0.23,
        ipc_big: float = 0.644,
        workload: WorkloadScaling | None = None,
    ):
        if ipc_little <= 0 or ipc_big <= 0:
            raise ValueError("IPC values must be positive")
        self.ipc_little = ipc_little
        self.ipc_big = ipc_big
        self.workload = workload if workload is not None else WorkloadScaling()

    # ------------------------------------------------------------------
    # Instruction throughput
    # ------------------------------------------------------------------
    def core_instruction_rate(self, core_type: CoreType, frequency_hz: float) -> float:
        """Instruction throughput of one core of the given type (instr/s)."""
        ipc = self.ipc_little if core_type is CoreType.LITTLE else self.ipc_big
        return ipc * frequency_hz

    def instruction_rate(self, opp: OperatingPoint) -> float:
        """Aggregate instruction throughput at an operating point (instr/s).

        An Amdahl correction accounts for the small serial fraction of the
        workload: with ``n`` symmetric-equivalent cores the speed-up over one
        LITTLE core is ``1 / ((1-p) + p/n_eq)`` where ``n_eq`` is the online
        capacity measured in LITTLE-core equivalents.
        """
        config = opp.config
        f = opp.frequency_hz
        raw = (
            config.n_little * self.core_instruction_rate(CoreType.LITTLE, f)
            + config.n_big * self.core_instruction_rate(CoreType.BIG, f)
        )
        single = self.core_instruction_rate(CoreType.LITTLE, f)
        n_eq = raw / single if single > 0 else 1.0
        p = self.workload.parallel_fraction
        speedup = 1.0 / ((1.0 - p) + p / n_eq)
        return single * speedup

    def instruction_rate_of(self, config: CoreConfig, frequency_hz: float) -> float:
        """Convenience overload taking configuration and frequency separately."""
        return self.instruction_rate(OperatingPoint(config, frequency_hz))

    # ------------------------------------------------------------------
    # Workload-level rates
    # ------------------------------------------------------------------
    def fps(self, opp: OperatingPoint) -> float:
        """smallpt 5-spp frames per second at an operating point (Fig. 7)."""
        return self.instruction_rate(opp) / self.workload.instructions_per_frame

    def fps_of(self, config: CoreConfig, frequency_hz: float) -> float:
        return self.fps(OperatingPoint(config, frequency_hz))

    def renders_per_minute(self, opp: OperatingPoint) -> float:
        """Table II renders per minute at an operating point."""
        return 60.0 * self.instruction_rate(opp) / self.workload.instructions_per_render

    def performance_curve(self, config: CoreConfig, frequencies_hz) -> np.ndarray:
        """FPS over an array of frequencies for a fixed configuration."""
        return np.array([self.fps_of(config, float(f)) for f in frequencies_hz])
