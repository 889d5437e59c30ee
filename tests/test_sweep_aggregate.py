"""One-pass aggregation against the per-table code it replaced.

The oracle below is the aggregation as it was before the tables shared one
pass: ``campaign_overview``, ``records_table``, ``table2_rows`` and one
``axis_summary`` per axis, each walking the records on its own, with one
``np.percentile`` call per group per metric.  Random campaigns (non-``ok``
records, schema-v1 flat records, a kind that is not registered, governor
parameter variants including ``True`` vs ``1``) must give byte-identical
JSON through :func:`repro.sweep.aggregate.campaign_tables` and each of its
views.
"""

from __future__ import annotations

import functools
import json
import random
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from repro.sweep import aggregate
from repro.sweep.aggregate import (
    METRIC_FIELDS,
    axis_summary,
    campaign_overview,
    campaign_tables,
    records_table,
    table2_rows,
)
from repro.sweep.components import GOVERNORS, SUPPLIES
from repro.sweep.scenario import governor_label
from repro.sweep.spec import _SCALAR_FIELDS, ScenarioConfig, component_label, resolve_axis_path


# ----------------------------------------------------------------------
# Oracle: one walk per table
# ----------------------------------------------------------------------
_ORACLE_CONFIGS: dict[str, ScenarioConfig] = {}


def _oracle_config(record: dict) -> ScenarioConfig:
    scenario_id = record.get("scenario_id")
    if scenario_id:
        cached = _ORACLE_CONFIGS.get(scenario_id)
        if cached is not None:
            return cached
    config = ScenarioConfig.from_dict(record.get("config", {}))
    if scenario_id:
        _ORACLE_CONFIGS[scenario_id] = config
    return config


def _oracle_hashable(value):
    if isinstance(value, dict):
        return value.get("kind", json.dumps(value, sort_keys=True))
    if isinstance(value, list):
        return json.dumps(value, sort_keys=True)
    return value


def _oracle_label_memo():
    labels: dict = {}

    def label(spec, field: str) -> str:
        key = (field, spec.kind, repr(spec.params))
        value = labels.get(key)
        if value is None:
            value = labels[key] = component_label(spec, field)
        return value

    return label


def _oracle_axis_value(record: dict, axis: str, path: Optional[str] = None, label=component_label):
    config_data = record.get("config", {})
    try:
        config = _oracle_config(record)
    except (KeyError, ValueError, TypeError):
        raw = config_data.get(axis.split(".", 1)[0], "?") if isinstance(config_data, dict) else "?"
        return _oracle_hashable(raw)
    if path is None:
        path = resolve_axis_path(axis)
    if path == "governor":
        variant = label(config.governor, "governor")
        scheme = governor_label(config.governor.kind)
        if "(" in variant:
            return f"{scheme} {variant[variant.index('('):]}"
        return scheme
    if "." not in path and path not in _SCALAR_FIELDS:
        return label(getattr(config, path), path)
    value = config.get(path)
    if path == "capacitor.capacitance_f" and value is not None:
        return f"{1e3 * float(value):g} mF"
    if path == "supply.shadowing" and isinstance(value, list):
        return f"{len(value)} events"
    if path == "governor.params" and isinstance(value, dict):
        return "+".join(f"{k}={v}" for k, v in sorted(value.items())) or "(none)"
    return value


def oracle_axis_summary(
    records: Iterable[dict], axis: str, metrics: Optional[Sequence[str]] = None
) -> list[dict]:
    metric_names = list(metrics) if metrics is not None else list(METRIC_FIELDS)
    label = _oracle_label_memo()
    try:
        path: Optional[str] = resolve_axis_path(axis)
    except ValueError:
        path = None
    groups: dict = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        key = _oracle_axis_value(record, axis, path, label)
        groups.setdefault(key, []).append(record.get("summary", {}))
    rows = []
    for key, summaries in groups.items():
        row: dict = {axis: key, "n": len(summaries)}
        for metric in metric_names:
            prefix = METRIC_FIELDS.get(metric, metric)
            values = np.asarray([float(s.get(metric, 0.0)) for s in summaries], dtype=float)
            p50, p95 = np.percentile(values, (50, 95))
            row[f"{prefix}_mean"] = float(np.mean(values))
            row[f"{prefix}_p50"] = float(p50)
            row[f"{prefix}_p95"] = float(p95)
        rows.append(row)
    return rows


def oracle_table2_rows(records: Iterable[dict]) -> list[dict]:
    groups: dict[str, list[dict]] = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        label = _oracle_axis_value(record, "governor")
        groups.setdefault(label, []).append(record.get("summary", {}))
    rows = []
    for label, summaries in groups.items():
        lifetime = min(float(s.get("lifetime_s", 0.0)) for s in summaries)
        minutes, seconds = divmod(int(round(lifetime)), 60)
        rows.append(
            {
                "scheme": label,
                "avg_performance_render_per_min": float(
                    np.mean([s.get("renders_per_minute", 0.0) for s in summaries])
                ),
                "lifetime_mm_ss": f"{minutes:02d}:{seconds:02d}",
                "instructions_billions": float(
                    np.mean([s.get("instructions_billions", 0.0) for s in summaries])
                ),
                "survived": all(bool(s.get("survived")) for s in summaries),
            }
        )
    return rows


_ORACLE_EXPORT_METRICS = (
    "survived",
    "lifetime_s",
    "uptime_fraction",
    "brownouts",
    "consumed_energy_j",
    "instructions_billions",
    "renders_per_minute",
)


def oracle_records_table(records: Iterable[dict]) -> list[dict]:
    label = _oracle_label_memo()
    rows = []
    for record in records:
        if record.get("status") != "ok":
            continue
        summary = record.get("summary", {})
        row: dict = {"scenario_id": record.get("scenario_id")}
        try:
            config = _oracle_config(record)
        except (KeyError, ValueError, TypeError):
            row["governor"] = "?"
        else:
            row.update(
                {
                    "governor": label(config.governor, "governor"),
                    "supply": label(config.supply, "supply"),
                    "weather": config.weather,
                    "seed": config.seed,
                    "capacitance_mf": 1e3 * config.capacitance_f,
                    "workload": config.workload.kind,
                    "duration_s": config.duration_s,
                }
            )
        row.update({metric: summary.get(metric) for metric in _ORACLE_EXPORT_METRICS})
        rows.append(row)
    return rows


def oracle_campaign_overview(records: Iterable[dict]) -> dict:
    records = list(records)
    ok = [r for r in records if r.get("status") == "ok"]
    summaries = [r.get("summary", {}) for r in ok]
    return {
        "scenarios": len(records),
        "ok": len(ok),
        # The one change from the per-table code: errors and timeouts are
        # counted apart, as the run summary counts them.
        "failed": sum(1 for r in records if r.get("status") == "error"),
        "timed_out": sum(1 for r in records if r.get("status") == "timeout"),
        "simulated_s": sum(float(s.get("duration_s", 0.0)) for s in summaries),
        "scenario_wall_s": sum(float(r.get("elapsed_s", 0.0)) for r in ok),
        "worker_cpu_s": sum(float((r.get("timings") or {}).get("cpu_s", 0.0)) for r in ok),
        "survival_rate": (
            float(np.mean([bool(s.get("survived")) for s in summaries])) if summaries else 0.0
        ),
        "total_instructions_billions": sum(
            float(s.get("instructions_billions", 0.0)) for s in summaries
        ),
        "total_consumed_energy_j": sum(float(s.get("consumed_energy_j", 0.0)) for s in summaries),
    }


def oracle_tables(records: list[dict], axes: Sequence[str]) -> dict:
    """The tables the service's /aggregate document carried, table by table."""
    tables: dict = {
        "overview": oracle_campaign_overview(records),
        "rows": oracle_records_table(records),
        "axes": {},
    }
    for name in axes:
        try:
            tables["axes"][name] = oracle_axis_summary(records, name)
        except (ValueError, KeyError):
            tables["axes"][name] = []
    return tables


# ----------------------------------------------------------------------
# Random campaigns
# ----------------------------------------------------------------------
GOVERNOR_VARIANTS = (
    "powersave",
    "ondemand",
    "performance",
    "conservative",
    "power-neutral",
    {"kind": "power-neutral", "v_q": True},
    {"kind": "power-neutral", "v_q": 1},
    {"kind": "power-neutral", "v_q": 0.5},
    "solartune",
)
CAMPAIGN_AXES = (
    "governor",
    "supply.weather",
    "capacitor.capacitance_f",
    "supply.seed",
    "supply",
    "governor.params",
    "duration_s",
    "workload",
    "supply.power_w",
    "weather",
    "seed",
    "capacitance_f",
    "supply.shadowing",
    "nonsense",
)


def _summary(rng: random.Random) -> dict:
    summary = {
        "uptime_fraction": rng.random(),
        "consumed_energy_j": rng.uniform(10.0, 500.0),
        "brownouts": rng.randrange(5),
        "instructions_billions": rng.uniform(0.0, 300.0),
        "lifetime_s": rng.uniform(0.0, 900.0),
        "renders_per_minute": rng.uniform(0.0, 20.0),
        "survived": rng.random() < 0.6,
        "duration_s": rng.choice((30.0, 60.0)),
    }
    for name in rng.sample(sorted(summary), rng.randrange(3)):
        if rng.random() < 0.15:
            del summary[name]  # a metric this record does not carry
    return summary


def _config_dict(rng: random.Random) -> dict:
    kind = rng.random()
    if kind < 0.08:
        # Schema v1: the flat PR-1 layout.
        return {
            "governor": rng.choice(("powersave", "ondemand", "power-neutral")),
            "weather": rng.choice(("full_sun", "cloud")),
            "seed": rng.randrange(1, 4),
            "capacitance_f": rng.choice((0.0154, 0.047)),
            "duration_s": 60.0,
        }
    if kind < 0.14:
        # A governor kind nobody registered: the config does not load.
        return {
            "schema": 2,
            "governor": {"kind": "no-such-governor", "gain": rng.randrange(3)},
            "supply": {"kind": "pv-array", "weather": "cloud", "seed": 1},
        }
    if rng.random() < 0.7:
        supply = {
            "kind": "pv-array",
            "weather": rng.choice(("full_sun", "partial_sun", "cloud")),
            "seed": rng.randrange(1, 6),
        }
        if rng.random() < 0.1:
            supply["shadowing"] = [{"start_s": 5.0, "duration_s": 1.0, "attenuation": 0.2}]
    else:
        supply = {"kind": "constant-power", "power_w": rng.choice((1.8, 3.5, 7.0))}
    return ScenarioConfig(
        governor=rng.choice(GOVERNOR_VARIANTS),
        supply=supply,
        capacitance_f=rng.choice((0.0154, 0.047, 0.1)),
        workload=rng.choice(("table2-render", "synthetic")),
        duration_s=rng.choice((30.0, 60.0)),
    ).to_dict()


@functools.lru_cache(maxsize=None)
def random_campaign(seed: int) -> list[dict]:
    """A seeded campaign's records (shared between tests; never mutated)."""
    rng = random.Random(seed)
    records = []
    for index in range(rng.randrange(40, 400)):
        config = _config_dict(rng)
        try:
            scenario_id = ScenarioConfig.from_dict(config).scenario_id
        except ValueError:
            scenario_id = f"unloadable-{seed}-{index}"
        status = "ok" if rng.random() < 0.85 else rng.choice(("error", "timeout"))
        record = {"scenario_id": scenario_id, "status": status, "config": config}
        if status == "ok" or rng.random() < 0.5:
            record["summary"] = _summary(rng)
        record["elapsed_s"] = rng.uniform(0.1, 2.0)
        if rng.random() < 0.8:
            record["timings"] = {"cpu_s": rng.uniform(0.1, 2.0)}
        records.append(record)
    return records


def dumps(value) -> str:
    return json.dumps(value)


@pytest.mark.parametrize("seed", range(8))
class TestOnePassMatchesPerTableCode:
    def test_campaign_tables(self, seed):
        records = random_campaign(seed)
        ok = [r for r in records if r.get("status") == "ok"]
        for batch in (records, ok):
            assert dumps(campaign_tables(batch, CAMPAIGN_AXES)) == dumps(
                oracle_tables(batch, CAMPAIGN_AXES)
            )
        assert campaign_tables(ok, CAMPAIGN_AXES)["axes"]["nonsense"] == []

    def test_explicit_axis(self, seed):
        # The document of ?axis=<name>: one axis, known or not.
        records = random_campaign(seed)
        for axis in ("supply.weather", "nonsense"):
            assert dumps(campaign_tables(records, [axis])) == dumps(oracle_tables(records, [axis]))

    def test_views(self, seed):
        records = random_campaign(seed)
        assert dumps(campaign_overview(records)) == dumps(oracle_campaign_overview(records))
        assert dumps(records_table(records)) == dumps(oracle_records_table(records))
        assert dumps(table2_rows(records)) == dumps(oracle_table2_rows(records))
        for axis in CAMPAIGN_AXES[:-1]:
            assert dumps(axis_summary(records, axis)) == dumps(oracle_axis_summary(records, axis))
        metrics = ["brownouts", "lifetime_s", "brownouts"]
        assert dumps(axis_summary(records, "governor", metrics)) == dumps(
            oracle_axis_summary(records, "governor", metrics)
        )
        assert axis_summary(records, "governor", []) == oracle_axis_summary(records, "governor", [])
        with pytest.raises(ValueError, match="unknown axis"):
            axis_summary(records, "nonsense")


def test_unknown_axis_over_unloadable_records_groups_by_raw_value():
    records = [r for r in random_campaign(3) if r["scenario_id"].startswith("unloadable-")]
    records = [r for r in records if r["status"] == "ok"]
    assert records
    assert axis_summary(records, "nonsense") == oracle_axis_summary(records, "nonsense")
    assert [row["n"] for row in axis_summary(records, "nonsense")] == [len(records)]


def test_overview_counts_an_error_and_a_timeout_apart():
    config = ScenarioConfig(governor="powersave").to_dict()
    records = [
        {"scenario_id": "a", "status": "ok", "config": config, "summary": {"duration_s": 5.0}},
        {"scenario_id": "b", "status": "error", "config": config, "error": "ValueError: x"},
        {"scenario_id": "c", "status": "timeout", "config": config, "elapsed_s": 2.0},
    ]
    overview = campaign_overview(records)
    assert (overview["scenarios"], overview["ok"]) == (3, 1)
    assert (overview["failed"], overview["timed_out"]) == (1, 1)
    assert campaign_tables(records)["overview"] == overview


def test_empty_campaign():
    assert dumps(campaign_tables([], CAMPAIGN_AXES)) == dumps(oracle_tables([], CAMPAIGN_AXES))


def test_reregistering_a_kind_with_new_defaults_changes_the_labels():
    def record(index: int, gain: float) -> dict:
        config = ScenarioConfig(
            governor={"kind": "agg-test-governor", "gain": gain},
            supply={"kind": "agg-test-supply", "level": 1.5},
        )
        return {
            "scenario_id": config.scenario_id,
            "status": "ok",
            "config": config.to_dict(),
            "summary": {"uptime_fraction": 0.1 * index},
        }

    def register(default: float, label: str) -> None:
        GOVERNORS.register("agg-test-governor", lambda **kw: None, label=label,
                           defaults={"gain": default})
        SUPPLIES.register("agg-test-supply", lambda **kw: None, defaults={"level": default})

    def unregister() -> None:
        GOVERNORS.unregister("agg-test-governor")
        SUPPLIES.unregister("agg-test-supply")

    register(1.5, "Agg Test")
    try:
        records = [record(1, 1.5), record(2, 3.5)]
        before = campaign_tables(records, ["governor", "supply"])
        assert [r["governor"] for r in before["rows"]] == [
            "agg-test-governor",
            "agg-test-governor(gain=3.5)",
        ]
        assert [r["supply"] for r in before["rows"]] == ["agg-test-supply"] * 2
        assert [r["governor"] for r in before["axes"]["governor"]] == [
            "Agg Test",
            "Agg Test (gain=3.5)",
        ]
        unregister()
        register(3.5, "Agg Test v2")
        after = campaign_tables(records, ["governor", "supply"])
        assert [r["governor"] for r in after["rows"]] == [
            "agg-test-governor(gain=1.5)",
            "agg-test-governor",
        ]
        assert [r["supply"] for r in after["rows"]] == ["agg-test-supply(level=1.5)"] * 2
        assert [r["governor"] for r in after["axes"]["governor"]] == [
            "Agg Test v2 (gain=1.5)",
            "Agg Test v2",
        ]
        assert [r["supply"] for r in after["axes"]["supply"]] == ["agg-test-supply(level=1.5)"]
        assert records_table(records) == after["rows"]
        assert axis_summary(records, "governor") == after["axes"]["governor"]
        # A kind no longer registered: the rows cannot be labelled, and the
        # document's axes fall back to [] as they always did.
        unregister()
        with pytest.raises(ValueError, match="agg-test"):
            records_table(records)
        with pytest.raises(ValueError, match="agg-test"):
            axis_summary(records, "governor")
    finally:
        unregister()
        aggregate._IDENTITIES.clear()
