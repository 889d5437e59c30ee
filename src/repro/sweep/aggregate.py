"""Aggregation of campaign records into per-axis summary tables.

The store holds one summary dict per scenario; this module reduces those into
the tables a report prints:

* :func:`campaign_tables` — the overview, the export rows and every
  requested axis summary from **one pass** over the records: what
  ``GET /campaigns/{id}/aggregate`` serves and ``repro sweep`` prints;
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

:func:`axis_summary`, :func:`records_table` and :func:`campaign_overview`
are views of the same pass, asked for one table each.  The pass resolves
each axis path once, reads each record's identity (its parsed config, the
columns an export row names, its axis keys) from a cache keyed by scenario
id, and computes each group's statistics with one percentile and one mean
call over a metrics × records array.

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
from .spec import (
    _COMPONENT_REGISTRIES,
    _SCALAR_FIELDS,
    ScenarioConfig,
    component_label,
    resolve_axis_path,
)

__all__ = [
    "axis_summary",
    "table2_rows",
    "campaign_overview",
    "campaign_tables",
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


class _Identity:
    """What one record's config contributes to every table, derived once.

    ``columns`` and the plain axis values depend on the config alone.
    Component labels also depend on the kind's registered defaults, so each
    is held with the :class:`~repro.registry.RegistryEntry` it was computed
    against and recomputed once that kind is re-registered.  Holding the
    entry keeps its identity from being reused by a later registration.
    """

    __slots__ = ("config", "columns", "_values", "_labels")

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.columns = {
            "weather": config.weather,
            "seed": config.seed,
            "capacitance_mf": 1e3 * config.capacitance_f,
            "workload": config.workload.kind,
            "duration_s": config.duration_s,
        }
        self._values: dict = {}
        self._labels: dict = {}

    def label(self, field: str) -> tuple[str, str]:
        """(report label, axis group) of one whole component.

        Raises ``ValueError`` when the component's kind is not registered.
        """
        spec = getattr(self.config, field)
        entry = _COMPONENT_REGISTRIES[field].get(spec.kind)
        held = self._labels.get(field)
        if held is None or held[0] is not entry:
            label = group = component_label(spec, field)
            if field == "governor":
                # Pretty Table II scheme name, but parameter variants of one
                # scheme stay distinct groups (e.g. two v_q settings of the
                # proposed governor must not be averaged together).
                scheme = governor_label(spec.kind)
                group = f"{scheme} {label[label.index('('):]}" if "(" in label else scheme
            held = self._labels[field] = (entry, label, group)
        return held[1], held[2]

    def axis_key(self, path: str):
        """The (formatted) value this record takes on a resolved axis path."""
        if "." not in path and path not in _SCALAR_FIELDS:
            # Whole-component axis: the label distinguishes parameter
            # variants, not just the kind (two constant-power supplies at
            # different power_w are different groups).
            return self.label(path)[1]
        try:
            return self._values[path]
        except KeyError:
            pass
        value = self.config.get(path)
        if path == "capacitor.capacitance_f" and value is not None:
            value = f"{1e3 * float(value):g} mF"
        elif path == "supply.shadowing" and isinstance(value, list):
            value = f"{len(value)} events"
        elif path == "governor.params" and isinstance(value, dict):
            value = "+".join(f"{k}={v}" for k, v in sorted(value.items())) or "(none)"
        self._values[path] = value
        return value


#: Identities keyed by scenario_id (itself the config's content hash, so a
#: sound cache key): a campaign read back again, or one table after another,
#: parses and labels each record once, not once per table.
_IDENTITIES: dict[str, _Identity] = {}
_IDENTITY_LIMIT = 8192


def _identity(record: dict) -> Optional[_Identity]:
    """The record's identity, or None when its config does not load."""
    scenario_id = record.get("scenario_id")
    if scenario_id:
        identity = _IDENTITIES.get(scenario_id)
        if identity is not None:
            return identity
    try:
        config = ScenarioConfig.from_dict(record.get("config", {}))
    except (KeyError, ValueError, TypeError):
        # E.g. a kind no longer registered; not cached, so the record
        # loads again once the kind is back.
        return None
    identity = _Identity(config)
    if scenario_id:
        if len(_IDENTITIES) >= _IDENTITY_LIMIT:
            _IDENTITIES.clear()
        _IDENTITIES[scenario_id] = identity
    return identity


def _fallback_key(record: dict, axis: str):
    """The group of a record whose config does not load: its raw value."""
    config_data = record.get("config", {})
    raw = config_data.get(axis.split(".", 1)[0], "?") if isinstance(config_data, dict) else "?"
    if isinstance(raw, dict):
        return raw.get("kind", json.dumps(raw, sort_keys=True))
    if isinstance(raw, list):
        return json.dumps(raw, sort_keys=True)
    return raw


def _walk(
    records: Iterable[dict],
    axes: Sequence[str] = (),
    metrics: Optional[Sequence[str]] = None,
    *,
    overview: bool = False,
    rows: bool = False,
) -> dict:
    """The one pass: the overview, export rows and axis summaries asked for.

    Only ``status == "ok"`` records contribute to the rows and the axis
    tables.  Returns ``{"overview": dict | None, "rows": list | None,
    "axes": {axis: list | exception}}``.  An axis whose path is unknown, or
    whose key raises ``ValueError``/``KeyError`` for a loadable record, maps
    to that exception.
    """
    metric_names = list(metrics) if metrics is not None else list(METRIC_FIELDS)
    paths: dict = {}
    failed: dict = {}
    for axis in axes:
        try:
            paths[axis] = resolve_axis_path(axis)
        except ValueError as exc:
            # Raised only at a loadable record: records whose config does
            # not load still group by their raw value.
            paths[axis] = exc
    groups: dict = {axis: {} for axis in paths}
    need_identity = rows or bool(paths)
    total = 0
    not_ok: dict = {}  # status -> count
    summaries: list = []
    totals: list = []
    table: list = []
    for record in records:
        total += 1
        status = record.get("status")
        if status != "ok":
            not_ok[status] = not_ok.get(status, 0) + 1
            continue
        summary = record.get("summary", {})
        index = len(summaries)
        summaries.append(summary)
        if overview:
            totals.append(
                (
                    float(summary.get("duration_s", 0.0)),
                    # Wall time inside the workers, and the CPU time they stamped.
                    float(record.get("elapsed_s", 0.0)),
                    float((record.get("timings") or {}).get("cpu_s", 0.0)),
                    bool(summary.get("survived")),
                    float(summary.get("instructions_billions", 0.0)),
                    float(summary.get("consumed_energy_j", 0.0)),
                )
            )
        if not need_identity:
            continue
        identity = _identity(record)
        if rows:
            row: dict = {"scenario_id": record.get("scenario_id")}
            if identity is None:
                row["governor"] = "?"
            else:
                row["governor"] = identity.label("governor")[0]
                row["supply"] = identity.label("supply")[0]
                row.update(identity.columns)
            row.update(zip(_EXPORT_METRICS, map(summary.get, _EXPORT_METRICS)))
            table.append(row)
        for axis, path in paths.items():
            if axis in failed:
                continue
            if identity is None:
                key = _fallback_key(record, axis)
            elif isinstance(path, Exception):
                failed[axis] = path
                continue
            else:
                try:
                    key = identity.axis_key(path)
                except (ValueError, KeyError) as exc:
                    failed[axis] = exc
                    continue
            groups[axis].setdefault(key, []).append(index)

    tables: dict = {"overview": None, "rows": table if rows else None, "axes": {}}
    if overview:
        simulated, wall, cpu, survived, instructions, energy = (
            zip(*totals) if totals else ((),) * 6
        )
        tables["overview"] = {
            "scenarios": total,
            "ok": len(summaries),
            "failed": not_ok.get("error", 0),
            "timed_out": not_ok.get("timeout", 0),
            "simulated_s": sum(simulated),
            "scenario_wall_s": sum(wall),
            "worker_cpu_s": sum(cpu),
            "survival_rate": float(np.mean(survived)) if survived else 0.0,
            "total_instructions_billions": sum(instructions),
            "total_consumed_energy_j": sum(energy),
        }
    matrix = None
    for axis in paths:
        if axis in failed:
            tables["axes"][axis] = failed[axis]
            continue
        if matrix is None and metric_names and groups[axis]:
            # metrics x records, built once for every axis.
            matrix = np.array(
                [[float(s.get(metric, 0.0)) for s in summaries] for metric in metric_names],
                dtype=float,
            )
        summary_rows = []
        for key, indices in groups[axis].items():
            row = {axis: key, "n": len(indices)}
            if metric_names:
                # C-contiguous, so each metric reduces along one contiguous
                # row, as a 1-D array of the group's values would.
                values = np.ascontiguousarray(matrix[:, indices])
                means = values.mean(axis=1)
                p50s, p95s = np.percentile(values, (50, 95), axis=1)
                for j, metric in enumerate(metric_names):
                    prefix = METRIC_FIELDS.get(metric, metric)
                    row[f"{prefix}_mean"] = float(means[j])
                    row[f"{prefix}_p50"] = float(p50s[j])
                    row[f"{prefix}_p95"] = float(p95s[j])
            summary_rows.append(row)
        tables["axes"][axis] = summary_rows
    return tables


def campaign_tables(records: Iterable[dict], axes: Sequence[str] = ()) -> dict:
    """``{"overview", "rows", "axes"}`` of a campaign, from one pass.

    ``overview`` is :func:`campaign_overview`, ``rows`` is
    :func:`records_table` and ``axes`` maps each name in ``axes`` to its
    :func:`axis_summary`, or to ``[]`` when that axis cannot be summarised
    (an unknown path, a kind no longer registered).
    """
    tables = _walk(records, axes, overview=True, rows=True)
    tables["axes"] = {
        axis: [] if isinstance(summary, Exception) else summary
        for axis, summary in tables["axes"].items()
    }
    return tables


def axis_summary(
    records: Iterable[dict],
    axis: str,
    metrics: Optional[Sequence[str]] = None,
) -> list[dict]:
    """Mean/p50/p95 of each metric, grouped by one swept config path.

    Only ``status == "ok"`` records contribute.  Rows keep first-seen group
    order (i.e. the sweep's axis order).  An unknown axis raises
    ``ValueError`` when any record's config loads.
    """
    summary = _walk(records, (axis,), metrics)["axes"][axis]
    if isinstance(summary, Exception):
        raise summary
    return summary


def records_table(records: Iterable[dict]) -> list[dict]:
    """One flat row per successful record: scenario identity + metrics.

    This is the denormalised view ``--export csv`` writes — every row names
    its cell (governor / supply / weather / seed / capacitance / workload /
    duration) so the CSV stands alone outside the JSONL store.
    """
    return _walk(records, rows=True)["rows"]


def campaign_overview(records: Iterable[dict]) -> dict:
    """Whole-campaign totals across the successful records.

    ``failed`` counts ``error`` records and ``timed_out`` counts ``timeout``
    records, as :class:`~repro.sweep.runner.SweepReport` does.
    """
    return _walk(records, overview=True)["overview"]


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
        identity = _identity(record)
        if identity is None:
            label = _fallback_key(record, "governor")
        else:
            label = identity.axis_key("governor")
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
