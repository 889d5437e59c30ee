"""Render settings of the smallpt workload (paper reference [12]).

The paper benchmarks the ODROID-XU4 with Kevin Beason's ``smallpt`` global
illumination renderer because it is CPU-intensive and embarrassingly
parallel.  The governor never looks inside the workload — it only sees board
power — so the reproduction models a render by its instruction cost alone:
primary samples (``width * height * samples_per_pixel``) times a calibrated
per-sample constant.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RenderSettings"]


@dataclass(frozen=True)
class RenderSettings:
    """Image size and sampling quality."""

    width: int = 64
    height: int = 48
    samples_per_pixel: int = 4

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.samples_per_pixel < 1:
            raise ValueError("samples_per_pixel must be positive")

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    @property
    def primary_ray_count(self) -> int:
        return self.pixel_count * self.samples_per_pixel

    def estimated_instructions(self, instructions_per_sample: float = 5.0e3) -> float:
        """Rough instruction cost of a render on the target platform.

        The calibration is anchored on the paper's own numbers rather than a
        native smallpt build: Fig. 7 and Table II are simultaneously
        consistent when a 1024x768, 5-spp frame costs ~19.6 G (effective)
        instructions, i.e. ~5 k effective instructions per primary sample;
        the same per-sample constant scales other sizes / sample counts.
        """
        return self.primary_ray_count * instructions_per_sample
