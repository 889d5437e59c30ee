"""Aggregation of campaign records into per-axis summary tables.

The store holds one summary dict per scenario; this module reduces those into
the tables a report prints:

* :func:`axis_summary` — group records by one config path (``"governor"``,
  ``"supply.weather"``, ``"capacitor.capacitance_f"``, or any dotted
  component path / flat alias) and report mean/p50/p95 of the headline
  metrics (on-time fraction, consumed energy, brown-outs, instruction
  throughput);
* :func:`table2_rows` — rebuild the paper's Table II rows (renders/min,
  lifetime, instructions, survival) from a governor-axis campaign;
* :func:`campaign_overview` — whole-campaign totals;
* :func:`records_table` — one flat row per successful record (scenario
  identity + headline metrics), the shape ``--export csv`` writes so
  aggregates can leave the JSONL store without custom scripts;
* :func:`rows_to_csv` — render any list of row dicts (axis summaries,
  Table II views, boundary reports) as CSV text.

Record configs are upgraded through
:meth:`~repro.sweep.spec.ScenarioConfig.from_dict` before grouping, so
campaigns mixing PR-1-era flat records (schema v1) and composed records
(schema v2) aggregate together.

Everything returns lists of plain row dicts compatible with
:func:`repro.analysis.reporting.format_table`, so the CLI, the examples and
the benchmarks all render the same way.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Optional, Sequence

import numpy as np

from .scenario import governor_label
from .spec import _SCALAR_FIELDS, ScenarioConfig, component_label, resolve_axis_path

__all__ = [
    "axis_summary",
    "table2_rows",
    "campaign_overview",
    "records_table",
    "rows_to_csv",
    "METRIC_FIELDS",
]

#: metric name in the summary dict -> short column prefix in the axis tables.
METRIC_FIELDS: dict[str, str] = {
    "uptime_fraction": "on_time",
    "consumed_energy_j": "energy_j",
    "brownouts": "brownouts",
    "instructions_billions": "instr_b",
}


#: Parsed configs keyed by scenario_id (itself the config's content hash, so
#: a sound cache key).  Aggregation touches every record once per rendered
#: table; the cache keeps the registry canonicalisation (validation hooks
#: included) from running O(records x tables) times.
_CONFIG_CACHE: dict[str, ScenarioConfig] = {}
_CONFIG_CACHE_LIMIT = 8192


def _record_config(record: dict) -> ScenarioConfig:
    scenario_id = record.get("scenario_id")
    if scenario_id:
        cached = _CONFIG_CACHE.get(scenario_id)
        if cached is not None:
            return cached
    config = ScenarioConfig.from_dict(record.get("config", {}))
    if scenario_id:
        if len(_CONFIG_CACHE) >= _CONFIG_CACHE_LIMIT:
            _CONFIG_CACHE.clear()
        _CONFIG_CACHE[scenario_id] = config
    return config


def _hashable(value):
    """Coerce a raw config value into something usable as a group key."""
    if isinstance(value, dict):
        return value.get("kind", json.dumps(value, sort_keys=True))
    if isinstance(value, list):
        return json.dumps(value, sort_keys=True)
    return value


def _label_memo():
    """:func:`component_label`, computed once per distinct component.

    Scoped to one call, not the module: labels depend on registry defaults,
    which may be re-registered between calls.  Keyed by ``repr`` of the
    parameters rather than the spec: specs compare ``True`` equal to ``1``,
    but their labels differ.
    """
    labels: dict = {}

    def label(spec, field: str) -> str:
        key = (field, spec.kind, repr(spec.params))
        value = labels.get(key)
        if value is None:
            value = labels[key] = component_label(spec, field)
        return value

    return label


def _axis_value(record: dict, axis: str, path: Optional[str] = None, label=component_label):
    """The (formatted) value one record takes on a swept axis.

    ``path`` is ``resolve_axis_path(axis)`` when the caller resolved it
    already; ``label`` stands in for :func:`component_label`.
    """
    config_data = record.get("config", {})
    try:
        config = _record_config(record)
    except (KeyError, ValueError, TypeError):
        # Unloadable config (e.g. a kind no longer registered): fall back to
        # the raw dict so the record still lands in *some* group.
        raw = config_data.get(axis.split(".", 1)[0], "?") if isinstance(config_data, dict) else "?"
        return _hashable(raw)
    if path is None:
        path = resolve_axis_path(axis)
    if path == "governor":
        # Pretty Table II scheme name, but parameter variants of one scheme
        # stay distinct groups (e.g. two v_q settings of the proposed
        # governor must not be averaged together).
        variant = label(config.governor, "governor")
        scheme = governor_label(config.governor.kind)
        if "(" in variant:
            return f"{scheme} {variant[variant.index('('):]}"
        return scheme
    if "." not in path and path not in _SCALAR_FIELDS:
        # Whole-component axis: label must distinguish parameter variants,
        # not just the kind (two constant-power supplies at different power_w
        # are different groups).
        return label(getattr(config, path), path)
    value = config.get(path)
    if path == "capacitor.capacitance_f" and value is not None:
        return f"{1e3 * float(value):g} mF"
    if path == "supply.shadowing" and isinstance(value, list):
        return f"{len(value)} events"
    if path == "governor.params" and isinstance(value, dict):
        return "+".join(f"{k}={v}" for k, v in sorted(value.items())) or "(none)"
    return value


def axis_summary(
    records: Iterable[dict],
    axis: str,
    metrics: Optional[Sequence[str]] = None,
) -> list[dict]:
    """Mean/p50/p95 of each metric, grouped by one swept config path.

    Only ``status == "ok"`` records contribute.  Rows keep first-seen group
    order (i.e. the sweep's axis order).  The axis path is resolved once per
    call, and each distinct component is labelled once.  An unknown axis
    raises ``ValueError`` at the first record whose config loads.
    """
    metric_names = list(metrics) if metrics is not None else list(METRIC_FIELDS)
    label = _label_memo()
    try:
        path: Optional[str] = resolve_axis_path(axis)
    except ValueError:
        path = None  # _axis_value raises it again for a loadable record
    groups: dict = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        key = _axis_value(record, axis, path, label)
        groups.setdefault(key, []).append(record.get("summary", {}))
    rows = []
    for key, summaries in groups.items():
        row: dict = {axis: key, "n": len(summaries)}
        for metric in metric_names:
            prefix = METRIC_FIELDS.get(metric, metric)
            values = np.asarray(
                [float(s.get(metric, 0.0)) for s in summaries], dtype=float
            )
            p50, p95 = np.percentile(values, (50, 95))
            row[f"{prefix}_mean"] = float(np.mean(values))
            row[f"{prefix}_p50"] = float(p50)
            row[f"{prefix}_p95"] = float(p95)
        rows.append(row)
    return rows


def table2_rows(records: Iterable[dict]) -> list[dict]:
    """Rebuild Table II rows from a governor campaign's records.

    When a governor appears in several cells (multiple seeds/conditions) its
    row averages the per-cell throughput metrics; lifetime reports the worst
    cell and ``survived`` requires surviving every cell, which is the
    conservative reading of the paper's table.
    """
    groups: dict[str, list[dict]] = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        label = _axis_value(record, "governor")
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


#: Summary metrics carried into the flat per-record export rows.
_EXPORT_METRICS: tuple[str, ...] = (
    "survived",
    "lifetime_s",
    "uptime_fraction",
    "brownouts",
    "consumed_energy_j",
    "instructions_billions",
    "renders_per_minute",
)


def records_table(records: Iterable[dict]) -> list[dict]:
    """One flat row per successful record: scenario identity + metrics.

    This is the denormalised view ``--export csv`` writes — every row names
    its cell (governor / supply / weather / seed / capacitance / workload /
    duration) so the CSV stands alone outside the JSONL store.
    """
    label = _label_memo()
    rows = []
    for record in records:
        if record.get("status") != "ok":
            continue
        summary = record.get("summary", {})
        row: dict = {"scenario_id": record.get("scenario_id")}
        try:
            config = _record_config(record)
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
        row.update({metric: summary.get(metric) for metric in _EXPORT_METRICS})
        rows.append(row)
    return rows


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render row dicts as CSV text (column order: first appearance)."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, restval="", extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def campaign_overview(records: Iterable[dict]) -> dict:
    """Whole-campaign totals across the successful records."""
    records = list(records)
    ok = [r for r in records if r.get("status") == "ok"]
    summaries = [r.get("summary", {}) for r in ok]
    simulated = sum(float(s.get("duration_s", 0.0)) for s in summaries)
    return {
        "scenarios": len(records),
        "ok": len(ok),
        "failed": len(records) - len(ok),
        "simulated_s": simulated,
        # Wall time inside the workers, and the CPU time they stamped.
        "scenario_wall_s": sum(float(r.get("elapsed_s", 0.0)) for r in ok),
        "worker_cpu_s": sum(float((r.get("timings") or {}).get("cpu_s", 0.0)) for r in ok),
        "survival_rate": (
            float(np.mean([bool(s.get("survived")) for s in summaries])) if summaries else 0.0
        ),
        "total_instructions_billions": sum(
            float(s.get("instructions_billions", 0.0)) for s in summaries
        ),
        "total_consumed_energy_j": sum(
            float(s.get("consumed_energy_j", 0.0)) for s in summaries
        ),
    }
