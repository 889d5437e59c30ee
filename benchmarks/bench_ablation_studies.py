"""Ablation benches for the paper's design choices (README "Scenario campaigns"), run as
`repro.sweep` campaigns sharing one content-addressed result store:

* buffer capacitance sweep (4.7 mF .. 141 mF) — a ``capacitor.capacitance_f``
  axis,
* control-mode ablation (DVFS only / hot-plug only / combined) — a governor
  axis over the registered power-neutral variants,
* threshold-quantisation ablation (ideal vs MCP4131 7-bit thresholds) — a
  ``monitor_quantised`` axis,
* the adaptive follow-up: the ``min-capacitance`` survival-boundary preset
  (bisection instead of a grid) writing into the *same* store.

All four campaigns append to one JSONL store, so re-running the module (or
any other campaign regenerating a matching config) costs nothing for the
cells already computed.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.sweep import (
    Axis,
    BoundarySearch,
    ResultStore,
    ScenarioConfig,
    SweepRunner,
    SweepSpec,
    axis_summary,
    build_boundary_preset,
)

from _bench_utils import emit, print_header


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """One store shared by every ablation campaign in this module."""
    return tmp_path_factory.mktemp("ablation") / "ablation_campaign.jsonl"


def _run(spec: SweepSpec, store_path, workers: int = 2) -> list[dict]:
    report = SweepRunner(ResultStore(store_path), workers=workers).run(spec)
    assert report.succeeded, report.summary()
    return report.ok_records()


def _summaries_by(records: list[dict], key) -> dict:
    return {key(r): r["summary"] for r in records}


def test_ablation_capacitance(benchmark, store_path):
    spec = SweepSpec.grid(
        governors=["power-neutral"],
        weather=["partial_sun"],
        capacitances_f=[4.7e-3, 15.4e-3, 47e-3, 141e-3],
        seeds=[5],
        duration_s=300.0,
    )
    records = benchmark.pedantic(_run, args=(spec, store_path), iterations=1, rounds=1)

    print_header(
        "Ablation — buffer capacitance sweep (repro.sweep capacitor axis)",
        {"chosen_mf": 47.0, "minimum_required_mf": 15.4},
    )
    emit(format_table(axis_summary(records, "capacitor.capacitance_f")))
    by_c = _summaries_by(
        records, lambda r: round(1e3 * float(r["config"]["capacitor"]["capacitance_f"]), 1)
    )
    # The paper's chosen 47 mF keeps the system alive; going an order of
    # magnitude smaller starts to cost robustness or stability.
    assert by_c[47.0]["brownouts"] == 0


def test_ablation_control_modes(benchmark, store_path):
    spec = SweepSpec.grid(
        governors=["power-neutral-dvfs-only", "power-neutral-hotplug-only", "power-neutral"],
        weather=["partial_sun"],
        seeds=[9],
        duration_s=420.0,
    )
    records = benchmark.pedantic(_run, args=(spec, store_path), iterations=1, rounds=1)

    print_header(
        "Ablation — DVFS-only vs hot-plug-only vs combined control (governor axis)",
        {"claim": "combined control is the proposed design"},
    )
    emit(format_table(axis_summary(records, "governor")))
    instructions = _summaries_by(records, lambda r: r["config"]["governor"]["kind"])
    # The combined (proposed) mode completes at least as much work as the
    # DVFS-only precursor approach.
    assert (
        instructions["power-neutral"]["instructions_billions"]
        >= 0.95 * instructions["power-neutral-dvfs-only"]["instructions_billions"]
    )


def test_ablation_threshold_quantisation(benchmark, store_path):
    spec = SweepSpec(
        base=ScenarioConfig(
            governor="power-neutral",
            weather="full_sun",
            seed=13,
            duration_s=420.0,
        ),
        axes=(Axis("monitor_quantised", [False, True]),),
    )
    records = benchmark.pedantic(_run, args=(spec, store_path), iterations=1, rounds=1)

    print_header(
        "Ablation — ideal vs MCP4131-quantised thresholds (monitor_quantised axis)",
        {"claim": "7-bit quantisation is sufficient"},
    )
    emit(format_table(axis_summary(records, "monitor_quantised")))
    fractions = [r["summary"]["fraction_within_5pct"] for r in records]
    assert min(fractions) > 0.4


def _run_boundary(store_path) -> dict:
    query = build_boundary_preset("min-capacitance", duration_s=8.0, rel_tol=0.3)
    report = BoundarySearch(query, SweepRunner(ResultStore(store_path), workers=2)).run()
    assert report.converged, report.summary()
    # Immediate re-run against the same (shared) store: pure cache hits.
    resumed = BoundarySearch(query, SweepRunner(ResultStore(store_path), workers=1)).run()
    assert resumed.executed == 0 and resumed.cached == report.cached + report.executed
    return report.to_dict()


def test_ablation_survival_boundary(benchmark, store_path):
    data = benchmark.pedantic(_run_boundary, args=(store_path,), iterations=1, rounds=1)

    print_header(
        "Ablation follow-up — min-capacitance survival boundary by bisection "
        "(repro.sweep.adaptive, shared store)",
        {"bracket_mf": "[2, 47] expanded as needed", "predicate": "survived"},
    )
    for result in data["results"]:
        emit(
            f"  {result['outer'].get('supply.weather', '(cell)')}: "
            f"critical C = {1e3 * result['critical']:.2f} mF "
            f"(bracket [{1e3 * result['bracket'][0]:.2f}, {1e3 * result['bracket'][1]:.2f}] mF, "
            f"{result['probes']} probes)"
        )
    # Heavier weather needs a strictly larger ride-through buffer.
    critical = {r["outer"]["supply.weather"]: r["critical"] for r in data["results"]}
    assert critical["partial_sun"] < critical["full_sun"] < critical["cloud"]
