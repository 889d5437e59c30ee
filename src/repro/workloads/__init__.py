"""Workloads: the smallpt render settings and instruction-cost workload models."""

from .raytracer import RenderSettings
from .workload import (
    FIG7_FRAME,
    TABLE2_RENDER,
    RaytraceWorkload,
    SyntheticWorkload,
    Workload,
)

__all__ = [
    "RenderSettings",
    "FIG7_FRAME",
    "TABLE2_RENDER",
    "RaytraceWorkload",
    "SyntheticWorkload",
    "Workload",
]
