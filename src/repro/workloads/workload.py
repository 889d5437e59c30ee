"""Workload models: how executed instructions turn into useful work.

The governor budgetes *power*; the evaluation reports *work* (frames, renders,
instructions).  A :class:`Workload` converts the cumulative instruction count
produced by the simulator into completed work units and exposes the CPU
utilisation the Linux-style governors sample.

Two concrete workloads are provided:

* :class:`RaytraceWorkload` — the paper's smallpt scenario, parameterised by
  image size and samples per pixel (the Fig. 7 "frame" and the Table II
  "render" are both instances);
* :class:`SyntheticWorkload` — a fixed instructions-per-unit workload useful
  for tests and custom experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .raytracer import RenderSettings

__all__ = ["Workload", "SyntheticWorkload", "RaytraceWorkload", "FIG7_FRAME", "TABLE2_RENDER"]


@dataclass(frozen=True)
class Workload:
    """A CPU-bound workload characterised by its per-unit instruction cost.

    Attributes
    ----------
    name:
        Work-unit name used in reports ("frame", "render", ...).
    instructions_per_unit:
        Instructions required to complete one work unit.
    utilization:
        CPU utilisation the workload presents to utilisation-driven
        governors (1.0 for a fully CPU-bound workload).
    """

    name: str
    instructions_per_unit: float
    utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.instructions_per_unit <= 0:
            raise ValueError("instructions_per_unit must be positive")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError("utilization must lie in [0, 1]")

    def units_completed(self, instructions: float) -> float:
        """Work units completed for a given executed-instruction count."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        return instructions / self.instructions_per_unit

    def units_per_minute(self, instruction_rate: float) -> float:
        """Steady-state work-unit throughput for an instruction rate (instr/s)."""
        return 60.0 * instruction_rate / self.instructions_per_unit


@dataclass(frozen=True)
class SyntheticWorkload(Workload):
    """A synthetic fixed-cost workload (defaults to 1 G instructions/unit)."""

    name: str = "synthetic"
    instructions_per_unit: float = 1e9


class RaytraceWorkload(Workload):
    """The smallpt ray-tracing workload at a given quality setting."""

    def __init__(
        self,
        settings: RenderSettings,
        name: str = "raytrace",
        instructions_per_sample: float = 5.0e3,
    ):
        instructions = settings.estimated_instructions(instructions_per_sample)
        object.__setattr__(self, "settings", settings)
        super().__init__(name=name, instructions_per_unit=instructions, utilization=1.0)


#: The Fig. 7 performance metric: 1024x768 at 5 samples per pixel (~19.6 G instr).
FIG7_FRAME = RaytraceWorkload(
    RenderSettings(width=1024, height=768, samples_per_pixel=5), name="fig7-frame"
)

#: The Table II "render": a higher-quality render costing ~290 G instructions.
TABLE2_RENDER = RaytraceWorkload(
    RenderSettings(width=1024, height=768, samples_per_pixel=74), name="table2-render"
)
