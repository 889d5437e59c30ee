"""Tests for the analysis subpackage (stability, energy, MPPT, overhead, reports)."""

import numpy as np
import pytest

from repro.analysis.energy_accounting import energy_account, power_tracking_error
from repro.analysis.mppt import mppt_report, operating_voltage_histogram
from repro.analysis.overhead import overhead_report
from repro.analysis.reporting import format_kv, format_series, format_table
from repro.analysis.stability import fraction_within_tolerance, voltage_stability_report
from repro.energy.pv_array import paper_pv_array
from repro.sim.result import SimulationResult
from repro.soc.exynos5422 import build_exynos5422_platform
from repro.sweep import ScenarioConfig, scenario_summary, table2_rows
from repro.workloads.workload import SyntheticWorkload


def make_result(
    voltage=None,
    duration=100.0,
    n=101,
    consumed_level=3.0,
    available_level=3.5,
    instructions_total=1e11,
    governor_cpu_time=0.1,
) -> SimulationResult:
    times = np.linspace(0.0, duration, n)
    if voltage is None:
        voltage = np.full(n, 5.3)
    consumed = np.full(n, consumed_level)
    available = np.full(n, available_level)
    return SimulationResult(
        times=times,
        supply_voltage=np.asarray(voltage, dtype=float),
        harvested_power=consumed.copy(),
        available_power=available,
        consumed_power=consumed,
        frequency_hz=np.full(n, 1.1e9),
        n_little=np.full(n, 4),
        n_big=np.full(n, 1),
        running=np.ones(n),
        instructions=np.linspace(0.0, instructions_total, n),
        v_low=np.full(n, 5.2),
        v_high=np.full(n, 5.4),
        duration_s=duration,
        total_instructions=instructions_total,
        harvested_energy_j=consumed_level * duration,
        consumed_energy_j=consumed_level * duration,
        governor_cpu_time_s=governor_cpu_time,
        governor_invocations=1000,
        governor_name="test",
    )


class TestStability:
    def test_fraction_within_all_inside(self):
        result = make_result()
        assert fraction_within_tolerance(result.times, result.supply_voltage, 5.3) == pytest.approx(1.0)

    def test_fraction_within_half_inside(self):
        n = 100
        voltage = np.concatenate([np.full(n // 2, 5.3), np.full(n // 2, 6.3)])
        result = make_result(voltage=voltage, n=n)
        fraction = fraction_within_tolerance(result.times, result.supply_voltage, 5.3)
        assert fraction == pytest.approx(0.5, abs=0.03)

    def test_report_fields(self):
        report = voltage_stability_report(make_result(), target_voltage=5.3)
        assert report.fraction_within == pytest.approx(1.0)
        assert report.mean_voltage == pytest.approx(5.3)
        assert report.fraction_below_minimum == 0.0
        assert "fraction_within" in report.as_dict()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fraction_within_tolerance(np.array([0.0, 1.0]), np.array([5.0]), 5.3)

    def test_invalid_target_rejected(self):
        result = make_result()
        with pytest.raises(ValueError):
            fraction_within_tolerance(result.times, result.supply_voltage, 0.0)


class TestEnergyAccounting:
    def test_energy_account_totals(self):
        account = energy_account(make_result())
        assert account.consumed_energy_j == pytest.approx(300.0)
        assert account.available_energy_j == pytest.approx(350.0)
        assert account.harvest_utilisation == pytest.approx(300.0 / 350.0)
        assert account.mean_consumed_power_w == pytest.approx(3.0)

    def test_power_tracking_error(self):
        tracking = power_tracking_error(make_result())
        assert tracking["mean_gap_w"] == pytest.approx(0.5)
        assert tracking["rms_gap_w"] == pytest.approx(0.5)
        assert tracking["overdraw_fraction"] == 0.0

    def test_table2_row(self):
        record = {
            "status": "ok",
            "config": ScenarioConfig(governor="powersave", duration_s=100.0).to_dict(),
            "summary": scenario_summary(make_result(), SyntheticWorkload()),
        }
        (row,) = table2_rows([record])
        assert row["scheme"] == "Linux Powersave"
        assert row["instructions_billions"] == pytest.approx(100.0)
        assert row["survived"]
        # 100 units over 100 s -> 60 units/minute.
        assert row["avg_performance_render_per_min"] == pytest.approx(60.0)
        assert row["lifetime_mm_ss"] == "01:40"


class TestMPPT:
    def test_histogram_sums_to_one(self):
        result = make_result()
        edges, fractions = operating_voltage_histogram(result)
        assert fractions.sum() == pytest.approx(1.0, abs=1e-6)

    def test_report_for_on_mpp_operation(self):
        array = paper_pv_array()
        mpp_v = array.maximum_power_point().voltage
        result = make_result(voltage=np.full(101, mpp_v))
        report = mppt_report(result, array)
        assert report.fraction_near_mpp_voltage == pytest.approx(1.0)
        assert report.mean_operating_voltage == pytest.approx(mpp_v)
        assert 0.0 < report.extraction_efficiency <= 1.0

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ValueError):
            operating_voltage_histogram(make_result(), bin_width_v=0.0)


class TestOverhead:
    def test_cpu_overhead_fraction(self):
        platform = build_exynos5422_platform()
        report = overhead_report(make_result(governor_cpu_time=0.1), platform)
        assert report.cpu_overhead_fraction == pytest.approx(0.001)
        assert report.as_dict()["cpu_overhead_percent"] == pytest.approx(0.1)

    def test_monitor_power_fractions_match_paper_magnitudes(self):
        platform = build_exynos5422_platform()
        report = overhead_report(make_result(), platform)
        # 1.61 mW is below ~1 % of the minimum and ~0.03 % of the maximum power.
        assert report.monitor_fraction_of_min_power < 0.01
        assert report.monitor_fraction_of_max_power < 0.001


class TestReporting:
    def test_format_table_alignment_and_content(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "22" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_kv(self):
        text = format_kv({"alpha": 0.12, "flag": True})
        assert "alpha" in text
        assert "yes" in text

    def test_format_series_summary(self):
        text = format_series("v", [0.0, 1.0, 2.0], [5.0, 5.5, 6.0], units="V")
        assert "min=5" in text
        assert "max=6" in text

    def test_format_series_single_point(self):
        assert "t=0.0s" in format_series("v", [0.0], [1.0])
