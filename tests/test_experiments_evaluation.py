"""Tests for the evaluation reproductions (Figs. 11-15, Table II, ablations).

Durations are kept short so the whole suite stays fast; the assertions target
the qualitative outcomes the paper reports.  Table II and the ablations run as
:mod:`repro.sweep` campaigns, the one path the CLI and the benches use.
"""

import numpy as np
import pytest

from repro.core.governor import PowerNeutralGovernor
from repro.energy.irradiance import WeatherCondition
from repro.energy.profiles import PV_TARGET_VOLTAGE
from repro.experiments.evaluation import (
    fig11_controlled_supply,
    fig12_voltage_stability,
    fig13_iv_and_operating_voltage,
    fig14_power_tracking,
    fig15_overhead,
)
from repro.experiments.scenarios import run_pv_experiment
from repro.sweep import (
    TABLE2_GOVERNOR_AXIS,
    Axis,
    ResultStore,
    ScenarioConfig,
    SweepRunner,
    SweepSpec,
    governor_label,
    table2_rows,
)


def run_campaign(spec: SweepSpec, tmp_path) -> list[dict]:
    """Run a campaign inline into a throwaway store; return its ok records."""
    report = SweepRunner(ResultStore(tmp_path / "campaign.jsonl")).run(spec)
    assert report.succeeded, report.summary()
    return report.ok_records()


@pytest.fixture(scope="module")
def fullsun_result():
    """One shared full-sun run reused by the Fig. 12/13/14 tests."""
    return run_pv_experiment(
        PowerNeutralGovernor(), duration_s=240.0, weather=WeatherCondition.FULL_SUN, seed=7
    )


class TestFig11:
    @pytest.fixture(scope="class")
    def data(self):
        return fig11_controlled_supply(duration_s=170.0)

    def test_no_brownout_on_the_controlled_supply(self, data):
        assert data["brownouts"] == 0

    def test_performance_correlates_with_supply_voltage(self, data):
        assert data["voltage_performance_correlation"] > 0.0

    def test_dvfs_used_much_more_often_than_hotplug(self, data):
        """Paper: 'core scaling is applied less often than frequency scaling'."""
        assert data["dvfs_transitions"] > 3 * max(data["hotplug_transitions"], 1)

    def test_frequency_actually_modulates(self, data):
        freqs = np.asarray(data["series"]["frequency_mhz"])
        assert freqs.max() - freqs.min() >= 200.0


class TestFig12And13And14:
    def test_voltage_stays_near_target_most_of_the_time(self, fullsun_result):
        fraction = fullsun_result.fraction_within(PV_TARGET_VOLTAGE, 0.05)
        # Paper reports 93.3 %; require a comfortably high fraction.
        assert fraction > 0.75

    def test_fig12_wrapper_reports_fraction(self):
        data = fig12_voltage_stability(duration_s=120.0, seed=7)
        assert 0.0 <= data["fraction_within_5pct"] <= 1.0
        assert data["stability"]["target_voltage_v"] == PV_TARGET_VOLTAGE

    def test_fig13_histogram_concentrated_near_mpp(self, fullsun_result):
        data = fig13_iv_and_operating_voltage(reuse_result=fullsun_result)
        histogram = data["histogram_rows"]
        top_bin = max(histogram, key=lambda row: row["time_fraction"])
        assert abs(top_bin["voltage_bin_v"] - data["mpp"]["voltage_v"]) < 0.5
        assert data["mppt"]["extraction_efficiency"] > 0.8

    def test_fig13_iv_curve_has_single_power_peak_near_5v(self, fullsun_result):
        data = fig13_iv_and_operating_voltage(reuse_result=fullsun_result)
        powers = [row["power_w"] for row in data["iv_rows"]]
        voltages = [row["voltage_v"] for row in data["iv_rows"]]
        peak_v = voltages[int(np.argmax(powers))]
        assert 4.8 < peak_v < 5.7

    def test_fig14_consumed_tracks_available_without_exceeding(self, fullsun_result):
        data = fig14_power_tracking(reuse_result=fullsun_result)
        assert data["energy"]["harvest_utilisation"] > 0.8
        # On average the load sits at or just below the available power
        # (hunting noise puts individual samples on either side).
        assert data["tracking"]["mean_gap_w"] > -0.15
        assert data["tracking"]["rms_gap_w"] < 1.0


class TestTable2:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        spec = SweepSpec.grid(
            governors=["performance", "powersave", "power-neutral"],
            seeds=[11],
            duration_s=240.0,
        )
        rows = table2_rows(run_campaign(spec, tmp_path_factory.mktemp("table2")))
        by_scheme = {r["scheme"]: r["instructions_billions"] for r in rows}
        improvement = by_scheme["Proposed Approach"] / by_scheme["Linux Powersave"] - 1.0
        return {"rows": rows, "instruction_improvement_vs_powersave": improvement}

    def test_performance_governor_dies_almost_immediately(self, data):
        row = next(r for r in data["rows"] if r["scheme"] == "Linux Performance")
        assert not row["survived"]

    def test_powersave_and_proposed_survive(self, data):
        for scheme in ("Linux Powersave", "Proposed Approach"):
            row = next(r for r in data["rows"] if r["scheme"] == scheme)
            assert row["survived"], scheme

    def test_proposed_completes_most_instructions(self, data):
        by_scheme = {r["scheme"]: r["instructions_billions"] for r in data["rows"]}
        assert by_scheme["Proposed Approach"] > by_scheme["Linux Powersave"]
        assert by_scheme["Proposed Approach"] > by_scheme["Linux Performance"]

    def test_improvement_over_powersave_positive(self, data):
        assert data["instruction_improvement_vs_powersave"] > 0.3

    def test_default_governor_set_includes_paper_schemes(self):
        schemes = [governor_label(name) for name in TABLE2_GOVERNOR_AXIS]
        assert "Proposed Approach" in schemes
        assert "Linux Powersave" in schemes
        assert len(set(schemes)) >= 6


class TestFig15:
    def test_overhead_is_well_below_one_percent(self):
        data = fig15_overhead(duration_s=180.0, seed=7)
        assert data["cpu_overhead_percent"] < 1.0
        assert data["overhead"]["monitor_power_mw"] == pytest.approx(1.61)
        assert data["interrupts"] > 0


class TestAblations:
    #: Control-mode label -> the registered power-neutral variant running it.
    MODES = {
        "DVFS only": "power-neutral-dvfs-only",
        "Hot-plug only": "power-neutral-hotplug-only",
        "DVFS + hot-plug (proposed)": "power-neutral",
    }

    def test_capacitance_sweep_structure(self, tmp_path):
        spec = SweepSpec.grid(
            governors=["power-neutral"],
            weather=["partial_sun"],
            capacitances_f=[15.4e-3, 47e-3],
            seeds=[5],
            duration_s=90.0,
        )
        records = run_campaign(spec, tmp_path)
        assert len(records) == 2
        for record in records:
            assert 0.0 <= record["summary"]["fraction_within_5pct"] <= 1.0

    def test_control_mode_ablation_runs_all_modes(self, tmp_path):
        spec = SweepSpec.grid(
            governors=list(self.MODES.values()),
            weather=["partial_sun"],
            seeds=[9],
            duration_s=90.0,
        )
        by_kind = {
            r["config"]["governor"]["kind"]: r["summary"] for r in run_campaign(spec, tmp_path)
        }
        modes = {label for label, kind in self.MODES.items() if kind in by_kind}
        assert "DVFS only" in modes
        assert "DVFS + hot-plug (proposed)" in modes
        # The proposed combined mode must not be the worst at completing work.
        instructions = {
            label: by_kind[kind]["instructions_billions"] for label, kind in self.MODES.items()
        }
        assert instructions["DVFS + hot-plug (proposed)"] >= min(instructions.values())

    def test_quantisation_ablation_shows_small_effect(self, tmp_path):
        spec = SweepSpec(
            base=ScenarioConfig(
                governor="power-neutral", weather="full_sun", seed=13, duration_s=300.0
            ),
            axes=(Axis("monitor_quantised", [False, True]),),
        )
        summaries = [r["summary"] for r in run_campaign(spec, tmp_path)]
        fractions = [s["fraction_within_5pct"] for s in summaries]
        # The 7-bit quantised thresholds must not break the scheme: both
        # variants keep the voltage in the ±5 % band most of the time and the
        # instructions completed stay within ~15 % of each other.
        assert min(fractions) > 0.5
        instructions = [s["instructions_billions"] for s in summaries]
        assert abs(instructions[0] - instructions[1]) / max(instructions) < 0.15
