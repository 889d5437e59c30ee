"""Tests for the characterisation-figure reproductions (Figs. 1-10, Table I).

Each test asserts the *qualitative* property the paper's figure communicates
(who wins, trends, crossovers), not exact values.
"""

import numpy as np
import pytest

from repro.experiments.characterisation import (
    fig1_solar_day,
    fig3_concept,
    fig4_power_vs_frequency,
    fig6_shadowing_simulation,
    fig7_performance_vs_power,
    fig10_transition_latency,
    table1_buffer_capacitance,
)
from repro.soc.exynos5422 import exynos5422_spec


class TestFig1:
    @pytest.fixture(scope="class")
    def data(self):
        return fig1_solar_day(dt_s=30.0, seed=3)

    def test_peak_power_near_one_watt(self, data):
        assert 0.5 < data["peak_power_w"] < 1.3

    def test_macro_variability_diurnal_shape(self, data):
        # Sunrise in the morning, peak near midday.
        assert 5.0 < data["macro_variability"]["sunrise_h"] < 9.0
        assert 10.0 < data["macro_variability"]["peak_h"] < 16.0

    def test_micro_variability_present(self, data):
        assert data["micro_variability"]["max_short_term_drop"] > 0.1

    def test_night_produces_zero_power(self, data):
        hours = data["series"]["hours"]
        power = data["series"]["power_w"]
        night = hours < 4.0
        assert np.all(power[night] == 0.0)


class TestFig3:
    @pytest.fixture(scope="class")
    def data(self):
        return fig3_concept(duration_s=6.0)

    def test_static_system_undervolts(self, data):
        assert data["without_control"]["first_undervoltage_s"] is not None

    def test_controlled_system_stays_above_minimum(self, data):
        assert data["with_control"]["min_voltage_v"] >= data["minimum_operating_voltage"]
        assert data["with_control"]["brownouts"] == 0

    def test_static_board_is_off_until_the_node_recovers(self, data):
        # After the undervoltage the board browns out and stays off, so V_C
        # rises past the reboot voltage instead of sliding along V_min.
        without = data["without_control"]
        t0 = without["first_undervoltage_s"]
        times = np.asarray(without["times"])
        after = (times > t0) & (times <= t0 + 1.0)
        assert np.asarray(without["voltage"])[after].max() > exynos5422_spec().reboot_voltage

    def test_static_board_reboots_and_browns_out_again(self, data):
        assert data["without_control"]["brownouts"] == 1
        assert fig3_concept(duration_s=16.0)["without_control"]["brownouts"] == 2


class TestFig4:
    @pytest.fixture(scope="class")
    def data(self):
        return fig4_power_vs_frequency()

    def test_64_operating_points(self, data):
        assert len(data["rows"]) == 64

    def test_power_envelope_matches_paper(self, data):
        assert data["min_power_w"] < 2.0
        assert data["max_power_w"] > 6.5

    def test_power_increases_with_frequency_within_each_configuration(self, data):
        by_config = {}
        for row in data["rows"]:
            by_config.setdefault(row["configuration"], []).append(
                (row["frequency_ghz"], row["board_power_w"])
            )
        for points in by_config.values():
            points.sort()
            powers = [p for _, p in points]
            assert powers == sorted(powers)


class TestFig6:
    @pytest.fixture(scope="class")
    def data(self):
        return fig6_shadowing_simulation(duration_s=8.0)

    def test_controlled_system_survives_the_shadow(self, data):
        assert data["with_control"]["brownouts"] == 0
        assert data["with_control"]["min_voltage_v"] >= data["minimum_operating_voltage"] - 0.05

    def test_static_system_fails_during_the_shadow(self, data):
        without = data["without_control"]
        assert without["brownouts"] >= 1 or without["min_voltage_v"] < data["minimum_operating_voltage"]

    def test_controller_scales_down_during_the_shadow(self, data):
        freq = np.asarray(data["with_control"]["frequency_ghz"])
        assert freq.min() < 0.5  # it reached a low frequency during the shadow


class TestFig7:
    @pytest.fixture(scope="class")
    def data(self):
        return fig7_performance_vs_power()

    def test_fps_anchors(self, data):
        assert data["max_fps_little_only"] == pytest.approx(0.065, abs=0.015)
        assert data["max_fps_overall"] == pytest.approx(0.25, abs=0.07)

    def test_big_little_extends_the_pareto_front(self, data):
        assert data["max_fps_overall"] > 2.5 * data["max_fps_little_only"]

    def test_fps_increases_with_power_within_each_configuration(self, data):
        by_config = {}
        for row in data["rows"]:
            by_config.setdefault(row["configuration"], []).append(
                (row["board_power_w"], row["fps"])
            )
        for points in by_config.values():
            points.sort()
            fps = [f for _, f in points]
            assert fps == sorted(fps)


class TestFig10:
    @pytest.fixture(scope="class")
    def data(self):
        return fig10_transition_latency()

    def test_hotplug_slower_at_low_frequency(self, data):
        assert data["hotplug_latency_at_200mhz_ms"] > 2 * data["hotplug_latency_at_1400mhz_ms"]

    def test_latencies_in_paper_ranges(self, data):
        low, high = data["paper_reference"]["hotplug_range_ms"]
        assert low * 0.5 < data["hotplug_latency_at_1400mhz_ms"] < high
        assert data["max_dvfs_latency_ms"] < 5.0

    def test_dvfs_rows_cover_both_directions(self, data):
        transitions = {row["transition_ghz"] for row in data["dvfs_rows"]}
        assert "1.4->1.2" in transitions
        assert "1.2->1.4" in transitions


class TestTable1:
    @pytest.fixture(scope="class")
    def data(self):
        return table1_buffer_capacitance()

    def test_two_scenarios(self, data):
        assert len(data["rows"]) == 2

    def test_cores_first_wins_on_both_metrics(self, data):
        assert data["advantage_time"] > 2.0
        assert data["advantage_capacitance"] > 1.4

    def test_chosen_component_noted(self, data):
        assert data["chosen_component_mf"] == 47.0
