"""Tests for the trace containers and CSV persistence."""

import numpy as np
import pytest

from repro.energy.traces import PowerTrace, Trace


@pytest.fixture()
def ramp() -> Trace:
    times = np.linspace(0.0, 10.0, 11)
    return Trace(times=times, values=times * 2.0, name="ramp", units="V")


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(times=np.array([0.0, 1.0]), values=np.array([1.0]))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Trace(times=np.array([]), values=np.array([]))

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValueError):
            Trace(times=np.array([0.0, 2.0, 1.0]), values=np.zeros(3))

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            Trace(times=np.zeros((2, 2)), values=np.zeros((2, 2)))

    def test_len_and_iter(self, ramp):
        assert len(ramp) == 11
        pairs = list(ramp)
        assert pairs[0] == (0.0, 0.0)
        assert pairs[-1] == (10.0, 20.0)


class TestSampling:
    def test_value_at_interpolates(self, ramp):
        assert ramp.value_at(2.5) == pytest.approx(5.0)

    def test_value_at_clamps_outside_range(self, ramp):
        assert ramp.value_at(-5.0) == pytest.approx(0.0)
        assert ramp.value_at(50.0) == pytest.approx(20.0)

    def test_values_at_vectorised(self, ramp):
        out = ramp.values_at([0.5, 1.5])
        np.testing.assert_allclose(out, [1.0, 3.0])

    def test_scaled(self, ramp):
        scaled = ramp.scaled(3.0)
        assert scaled.value_at(1.0) == pytest.approx(6.0)


class TestStatistics:
    def test_mean_of_ramp(self, ramp):
        assert ramp.mean() == pytest.approx(10.0)

    def test_min_max(self, ramp):
        assert ramp.minimum() == 0.0
        assert ramp.maximum() == 20.0

    def test_integral_of_ramp(self, ramp):
        # integral of 2t over [0, 10] = 100
        assert ramp.integral() == pytest.approx(100.0)

    def test_power_trace_energy(self):
        trace = PowerTrace(times=[0.0, 10.0], values=[5.0, 5.0])
        assert trace.energy_joules() == pytest.approx(50.0)


class TestPersistence:
    def test_csv_round_trip(self, ramp, tmp_path):
        path = tmp_path / "ramp.csv"
        ramp.save_csv(path)
        loaded = Trace.load_csv(path)
        np.testing.assert_allclose(loaded.times, ramp.times)
        np.testing.assert_allclose(loaded.values, ramp.values)
        assert loaded.name == "ramp"
