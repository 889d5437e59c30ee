"""Tests for the one-path system builder (repro.sweep.build) and the
end-to-end behaviour of composed scenario configs."""

import numpy as np
import pytest

from repro.core.governor import PowerNeutralGovernor
from repro.core.parameters import PAPER_TUNED_PARAMETERS
from repro.energy.traces import Trace
from repro.sweep import (
    ResultStore,
    ScenarioConfig,
    SweepRunner,
    axis_summary,
    build_governor,
    build_system,
    run_scenario,
)
from repro.sweep.build import build_capacitor, build_platform, build_supply


class TestComponentBuilders:
    def test_build_supply_per_kind(self):
        pv = build_supply({"kind": "pv-array", "weather": "cloud", "seed": 3}, duration_s=10.0)
        assert not pv.is_voltage_source
        cv = build_supply({"kind": "controlled-voltage"}, duration_s=10.0)
        assert cv.is_voltage_source
        assert 4.0 < cv.voltage(0.0) < 6.0
        cp = build_supply({"kind": "constant-power", "power_w": 2.5}, duration_s=10.0)
        assert cp.available_power(5.0) == pytest.approx(2.5)

    def test_constant_voltage_profile(self):
        cv = build_supply(
            {"kind": "controlled-voltage", "profile": "constant", "voltage_v": 5.2},
            duration_s=10.0,
        )
        assert cv.voltage(0.0) == pytest.approx(5.2)
        assert cv.voltage(9.0) == pytest.approx(5.2)

    def test_trace_file_supply(self, tmp_path):
        path = tmp_path / "irradiance.csv"
        Trace(
            times=np.linspace(0, 10, 11), values=np.full(11, 600.0), name="irr"
        ).save_csv(path)
        supply = build_supply(
            {"kind": "trace-file", "path": str(path), "signal": "irradiance"}, duration_s=5.0
        )
        assert supply.available_power(2.0) > 0.0

    def test_platform_variant_parameters_apply(self):
        stock = build_platform("exynos5422")
        variant = build_platform(
            {"kind": "exynos5422", "reboot_latency_s": 1.0, "reboot_voltage": 4.8}
        )
        assert stock.spec.reboot_latency_s == pytest.approx(8.0)
        assert variant.spec.reboot_latency_s == pytest.approx(1.0)
        assert variant.spec.reboot_voltage == pytest.approx(4.8)

    def test_capacitor_parameters_apply(self):
        cap = build_capacitor(
            {"kind": "supercapacitor", "capacitance_f": 0.02, "esr_ohm": 0.1}
        )
        assert cap.capacitance_f == pytest.approx(0.02)
        assert cap.esr_ohm == pytest.approx(0.1)

    def test_preset_seeds_rejected_for_deterministic_presets(self):
        from repro.sweep import build_preset

        with pytest.raises(ValueError, match="seeds do not apply"):
            build_preset("fig11-governors", seeds=(1, 2, 3))
        with pytest.raises(ValueError, match="seeds do not apply"):
            build_preset("constant-power-survival", seeds=(1,))
        # table2 presets genuinely take seeds.
        assert len(build_preset("table2-shootout", seeds=(1, 2))) == 16

    def test_build_governor_from_spec_and_config(self):
        gov = build_governor({"kind": "power-neutral", "v_q": 0.06})
        assert gov.name
        assert gov.parameters.v_q == 0.06
        assert build_governor("power-neutral").parameters.v_q != 0.06
        config = ScenarioConfig(governor="powersave")
        assert build_governor(config).name
        with pytest.raises(ValueError, match="does not accept parameter overrides"):
            build_governor({"kind": "powersave", "v_q": 0.06})


class TestBuildSystem:
    def test_build_system_resolves_every_component(self):
        config = ScenarioConfig(
            governor="power-neutral",
            supply={"kind": "constant-power", "power_w": 3.0},
            duration_s=5.0,
        )
        built = build_system(config)
        assert built.simulation.config.duration_s == 5.0
        assert built.workload.instructions_per_unit > 0
        result = built.run()
        assert result.duration_s == pytest.approx(5.0)

    def test_instance_overrides_take_precedence(self):
        config = ScenarioConfig(governor="powersave", duration_s=5.0)
        governor = PowerNeutralGovernor(PAPER_TUNED_PARAMETERS)
        built = build_system(config, governor=governor)
        assert built.simulation.governor is governor

    def test_supply_kind_sets_sim_defaults(self):
        pv = build_system(ScenarioConfig(governor="powersave", duration_s=5.0))
        cv = build_system(
            ScenarioConfig(
                governor="powersave", supply={"kind": "controlled-voltage"}, duration_s=5.0
            )
        )
        assert pv.simulation.config.record_interval_s == pytest.approx(0.25)
        assert cv.simulation.config.record_interval_s == pytest.approx(0.05)

    def test_initial_voltage_resolution(self):
        pv = build_system(ScenarioConfig(governor="powersave", duration_s=5.0))
        assert pv.simulation.config.initial_voltage == pytest.approx(5.3)
        pinned = build_system(
            ScenarioConfig(
                governor="powersave",
                capacitor={"kind": "supercapacitor", "initial_voltage": 4.9},
                duration_s=5.0,
            )
        )
        assert pinned.simulation.config.initial_voltage == pytest.approx(4.9)
        open_circuit = build_system(
            ScenarioConfig(
                governor="powersave",
                capacitor={"kind": "supercapacitor", "initial_voltage": "open-circuit"},
                duration_s=5.0,
            )
        )
        assert open_circuit.simulation.config.initial_voltage is None


class TestEndToEnd:
    def test_v1_flat_record_runs_and_aggregates(self, tmp_path):
        """Acceptance: a PR-1-era flat config dict loads, runs, aggregates."""
        flat = {
            "governor": "powersave",
            "weather": "cloud",
            "duration_s": 5.0,
            "seed": 3,
            "capacitance_f": 0.047,
            "workload": "table2-render",
            "governor_overrides": {},
            "shadowing": [],
            "monitor_quantised": True,
        }
        config = ScenarioConfig.from_dict(flat)
        store = ResultStore(tmp_path / "v1.jsonl")
        report = SweepRunner(store, workers=1).run([config])
        assert report.succeeded and report.executed == 1
        rows = axis_summary(report.ok_records(), "governor")
        assert rows and rows[0]["n"] == 1

    def test_controlled_supply_scenario_runs(self):
        record = run_scenario(
            ScenarioConfig(
                governor="power-neutral-fig11",
                supply={"kind": "controlled-voltage"},
                duration_s=5.0,
            )
        )
        assert record["status"] == "ok"
        assert record["config"]["supply"]["kind"] == "controlled-voltage"

    def test_constant_power_starvation_vs_surplus(self):
        """The idealised source differentiates governors: a fixed 2 W starves
        the performance governor but the proposed governor survives."""
        starved = run_scenario(
            ScenarioConfig(
                governor="performance",
                supply={"kind": "constant-power", "power_w": 2.0},
                duration_s=6.0,
            )
        )
        adaptive = run_scenario(
            ScenarioConfig(
                governor="power-neutral",
                supply={"kind": "constant-power", "power_w": 2.0},
                duration_s=6.0,
            )
        )
        assert not starved["summary"]["survived"]
        assert adaptive["summary"]["survived"]

    def test_component_axis_aggregation_distinguishes_variants(self, tmp_path):
        """Regression: two same-kind supplies with different params must not
        collapse into one aggregation group."""
        configs = [
            ScenarioConfig(
                governor="powersave",
                supply={"kind": "constant-power", "power_w": p},
                duration_s=3.0,
            )
            for p in (1.0, 5.0)
        ]
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(configs)
        assert report.succeeded
        rows = axis_summary(report.ok_records(), "supply")
        assert len(rows) == 2
        assert {row["supply"] for row in rows} == {
            "constant-power(power_w=1)",
            "constant-power(power_w=5)",
        }

    def test_governor_axis_aggregation_distinguishes_parameter_variants(self, tmp_path):
        """Regression: two v_q settings of one scheme are separate rows."""
        configs = [
            ScenarioConfig(
                governor={"kind": "power-neutral", "v_q": v}, duration_s=3.0
            )
            for v in (0.03, 0.09)
        ]
        store = ResultStore(tmp_path / "g.jsonl")
        report = SweepRunner(store, workers=1).run(configs)
        assert report.succeeded
        rows = axis_summary(report.ok_records(), "governor")
        assert {row["governor"] for row in rows} == {
            "Proposed Approach (v_q=0.03)",
            "Proposed Approach (v_q=0.09)",
        }

    def test_mixed_rig_campaign_shares_one_store(self, tmp_path):
        configs = [
            ScenarioConfig(governor="powersave", duration_s=4.0),
            ScenarioConfig(
                governor="powersave", supply={"kind": "constant-power", "power_w": 4.0},
                duration_s=4.0,
            ),
            ScenarioConfig(
                governor="powersave", supply={"kind": "controlled-voltage"}, duration_s=4.0
            ),
        ]
        store = ResultStore(tmp_path / "mixed.jsonl")
        report = SweepRunner(store, workers=1).run(configs)
        assert report.succeeded and report.executed == 3
        # Resume: everything cached.
        again = SweepRunner(ResultStore(tmp_path / "mixed.jsonl"), workers=1).run(configs)
        assert again.cached == 3 and again.executed == 0
