"""Tests for the path tracer and the workload cost models."""

import numpy as np
import pytest

from repro.workloads.raytracer import (
    PathTracer,
    RenderSettings,
    Scene,
    Sphere,
    cornell_box_scene,
)
from repro.workloads.workload import (
    FIG7_FRAME,
    TABLE2_RENDER,
    RaytraceWorkload,
    SyntheticWorkload,
    Workload,
)


class TestSceneConstruction:
    def test_sphere_requires_positive_radius(self):
        with pytest.raises(ValueError):
            Sphere((0, 0, 0), 0.0, (1, 1, 1))

    def test_cornell_box_has_light_and_walls(self):
        scene = cornell_box_scene()
        assert len(scene.spheres) == 8
        assert any(max(s.emission) > 0 for s in scene.spheres)

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            PathTracer(Scene(spheres=[]))


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
        with pytest.raises(ValueError):
            RenderSettings(max_bounces=0)


class TestPathTracer:
    def test_render_produces_image_in_unit_range(self):
        tracer = PathTracer()
        image = tracer.render(RenderSettings(width=24, height=18, samples_per_pixel=2, seed=1))
        assert image.shape == (18, 24, 3)
        assert np.all(image >= 0.0)
        assert np.all(image <= 1.0)

    def test_render_is_deterministic_for_seed(self):
        tracer = PathTracer()
        settings = RenderSettings(width=16, height=12, samples_per_pixel=2, seed=7)
        a = tracer.render(settings)
        b = tracer.render(settings)
        np.testing.assert_allclose(a, b)

    def test_image_is_not_black(self):
        tracer = PathTracer()
        image = tracer.render(RenderSettings(width=24, height=18, samples_per_pixel=3, seed=2))
        assert float(image.mean()) > 0.02

    def test_seed_to_seed_difference_bounded_at_higher_sampling(self):
        tracer = PathTracer()
        a = tracer.render(RenderSettings(width=16, height=12, samples_per_pixel=8, seed=3))
        b = tracer.render(RenderSettings(width=16, height=12, samples_per_pixel=8, seed=11))
        # Two independent 8-spp estimates of the same scene agree to within a
        # loose Monte-Carlo noise bound.
        assert float(np.mean(np.abs(a - b))) < 0.35

    def test_estimated_instructions_scale_with_samples(self):
        small = PathTracer.estimated_instructions(RenderSettings(width=64, height=48, samples_per_pixel=1))
        large = PathTracer.estimated_instructions(RenderSettings(width=64, height=48, samples_per_pixel=4))
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
