"""Tests for the board power model and its Fig. 4 calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.soc.cores import CoreConfig, CoreType
from repro.soc.exynos5422 import exynos5422_power_model
from repro.soc.opp import GHZ, PAPER_FREQUENCIES_HZ, OperatingPoint
from repro.soc.power_model import (
    BigLittlePowerModel,
    ClusterPowerParameters,
    VoltageFrequencyMap,
)


@pytest.fixture()
def model() -> BigLittlePowerModel:
    return exynos5422_power_model()


class TestVoltageFrequencyMap:
    def test_endpoints(self):
        vf = VoltageFrequencyMap(0.9, 1.2, 0.2 * GHZ, 1.4 * GHZ)
        assert vf.voltage(0.2 * GHZ) == pytest.approx(0.9)
        assert vf.voltage(1.4 * GHZ) == pytest.approx(1.2)

    def test_clamping_outside_range(self):
        vf = VoltageFrequencyMap(0.9, 1.2, 0.2 * GHZ, 1.4 * GHZ)
        assert vf.voltage(0.1 * GHZ) == pytest.approx(0.9)
        assert vf.voltage(2.0 * GHZ) == pytest.approx(1.2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VoltageFrequencyMap(1.2, 0.9, 0.2 * GHZ, 1.4 * GHZ)
        with pytest.raises(ValueError):
            VoltageFrequencyMap(0.9, 1.2, 1.4 * GHZ, 0.2 * GHZ)


class TestClusterParameters:
    def test_core_power_increases_with_frequency(self):
        vf = VoltageFrequencyMap(0.9, 1.2, 0.2 * GHZ, 1.4 * GHZ)
        cluster = ClusterPowerParameters(150e-12, 0.03, vf)
        assert cluster.core_power(1.4 * GHZ) > cluster.core_power(0.2 * GHZ)

    def test_invalid_parameters_rejected(self):
        vf = VoltageFrequencyMap(0.9, 1.2, 0.2 * GHZ, 1.4 * GHZ)
        with pytest.raises(ValueError):
            ClusterPowerParameters(0.0, 0.03, vf)
        with pytest.raises(ValueError):
            ClusterPowerParameters(150e-12, -0.1, vf)


class TestBigLittleModel:
    def test_power_monotone_in_frequency(self, model):
        for config in (CoreConfig(1, 0), CoreConfig(4, 0), CoreConfig(4, 4)):
            powers = model.power_curve(config, PAPER_FREQUENCIES_HZ)
            assert np.all(np.diff(powers) > 0)

    def test_power_monotone_in_core_count(self, model):
        f = 1.1 * GHZ
        p_little = [model.power_of(CoreConfig(n, 0), f) for n in range(1, 5)]
        assert all(b > a for a, b in zip(p_little, p_little[1:]))
        p_big = [model.power_of(CoreConfig(4, n), f) for n in range(0, 5)]
        assert all(b > a for a, b in zip(p_big, p_big[1:]))

    def test_big_core_costs_more_than_little(self, model):
        f = 1.4 * GHZ
        assert model.core_power(CoreType.BIG, f) > model.core_power(CoreType.LITTLE, f)

    def test_fig4_calibration_anchors(self, model):
        """Anchor points from paper Fig. 4 / Fig. 7 (see ``exynos5422_power_model``)."""
        lowest = model.power_of(CoreConfig(1, 0), 0.2 * GHZ)
        assert lowest == pytest.approx(1.8, abs=0.15)
        four_little = model.power_of(CoreConfig(4, 0), 1.4 * GHZ)
        assert 2.5 < four_little < 3.6
        highest = model.power_of(CoreConfig(4, 4), 1.4 * GHZ)
        assert 6.5 < highest < 8.0

    def test_power_range_spans_paper_envelope(self, model):
        """The OPP space must span roughly 1.8 W to 7 W (paper Fig. 4)."""
        powers = [
            model.power_of(cfg, f)
            for cfg in (CoreConfig(1, 0), CoreConfig(4, 4))
            for f in PAPER_FREQUENCIES_HZ
        ]
        assert min(powers) < 2.0
        assert max(powers) > 6.5

    def test_invalid_base_power_rejected(self):
        vf = VoltageFrequencyMap(0.9, 1.2, 0.2 * GHZ, 1.4 * GHZ)
        cluster = ClusterPowerParameters(150e-12, 0.03, vf)
        with pytest.raises(ValueError):
            BigLittlePowerModel(-1.0, cluster, cluster)

    @given(
        n_little=st.integers(min_value=1, max_value=4),
        n_big=st.integers(min_value=0, max_value=4),
        frequency=st.sampled_from(PAPER_FREQUENCIES_HZ),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_always_positive_and_bounded(self, n_little, n_big, frequency):
        model = exynos5422_power_model()
        power = model.power_of(CoreConfig(n_little, n_big), frequency)
        assert 1.0 < power < 10.0
