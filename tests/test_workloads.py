"""Tests for the render settings and the workload cost models."""

import pytest

from repro.workloads.raytracer import RenderSettings
from repro.workloads.workload import (
    FIG7_FRAME,
    TABLE2_RENDER,
    RaytraceWorkload,
    SyntheticWorkload,
    Workload,
)


class TestRenderSettings:
    def test_counts(self):
        settings = RenderSettings(width=10, height=5, samples_per_pixel=3)
        assert settings.pixel_count == 50
        assert settings.primary_ray_count == 150

    def test_validation(self):
        with pytest.raises(ValueError):
            RenderSettings(width=0)
        with pytest.raises(ValueError):
            RenderSettings(samples_per_pixel=0)

    def test_estimated_instructions_scale_with_samples(self):
        small = RenderSettings(width=64, height=48, samples_per_pixel=1).estimated_instructions()
        large = RenderSettings(width=64, height=48, samples_per_pixel=4).estimated_instructions()
        assert large == pytest.approx(4 * small)


class TestWorkloadModels:
    def test_workload_units_completed(self):
        workload = Workload(name="w", instructions_per_unit=1e9)
        assert workload.units_completed(5e9) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            workload.units_completed(-1.0)

    def test_workload_units_per_minute(self):
        workload = Workload(name="w", instructions_per_unit=1e9)
        assert workload.units_per_minute(1e9) == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(name="w", instructions_per_unit=0.0)
        with pytest.raises(ValueError):
            Workload(name="w", instructions_per_unit=1e9, utilization=2.0)

    def test_synthetic_defaults(self):
        workload = SyntheticWorkload()
        assert workload.instructions_per_unit == pytest.approx(1e9)
        assert workload.utilization == 1.0

    def test_fig7_frame_cost_matches_calibration(self):
        # ~19.6 G instructions for a 1024x768, 5-spp frame (exynos5422_performance_model).
        assert FIG7_FRAME.instructions_per_unit == pytest.approx(19.6e9, rel=0.03)

    def test_table2_render_cost_matches_calibration(self):
        # ~290 G instructions per Table II render.
        assert TABLE2_RENDER.instructions_per_unit == pytest.approx(290e9, rel=0.05)

    def test_raytrace_workload_scales_with_settings(self):
        small = RaytraceWorkload(RenderSettings(width=256, height=256, samples_per_pixel=1))
        large = RaytraceWorkload(RenderSettings(width=256, height=256, samples_per_pixel=10))
        assert large.instructions_per_unit == pytest.approx(10 * small.instructions_per_unit)
