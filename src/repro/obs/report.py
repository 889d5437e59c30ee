"""Trace aggregation: merge per-process trace files, compute the campaign view.

The read side of :mod:`repro.obs`:

* :func:`trace_files` / :func:`load_events` — resolve a trace *source* (a
  trace directory or one trace file) to its event stream, merged across all
  per-process files **in timestamp order** (events carry wall-clock ``t``
  precisely so multi-process traces interleave correctly);
* :func:`build_report` — the aggregates ``obs report`` prints: per-phase
  time breakdown with wall-time coverage, cache-hit ratio, slowest-N
  scenarios, per-worker utilisation, queue-wait statistics, counter totals;
* :func:`format_report` / :func:`format_event` — terminal rendering, shared
  with ``obs tail``;
* :func:`follow_trace` — incremental event iteration for a live tail:
  remembers per-file offsets and picks up files that appear mid-campaign
  (a shard worker starting late creates its trace file on first event).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from ..analysis.reporting import format_kv, format_table
from .timeseries import Histogram, exact_quantile

__all__ = [
    "trace_files",
    "load_events",
    "build_report",
    "format_report",
    "format_event",
    "follow_trace",
    "TracePoller",
    "metric_sidecar_files",
    "merged_sidecar_histograms",
]

#: The per-scenario busy phases a scenario span carries (worker + runner
#: timings).  The span's ``queue_wait_s`` is time spent *waiting* for a
#: worker, so it is summarised separately as ``queue_wait`` quantiles.
SCENARIO_PHASES = ("build_s", "tabulate_s", "simulate_s", "record_write_s")


def trace_files(source: "str | Path") -> list[Path]:
    """The trace file(s) behind a source path (directory or single file)."""
    path = Path(source)
    if path.is_dir():
        found = sorted(path.glob("trace-*.jsonl")) or sorted(path.glob("*.jsonl"))
        if not found:
            raise FileNotFoundError(f"no trace-*.jsonl files in {path}")
        return found
    if not path.exists():
        raise FileNotFoundError(f"no trace at {path}")
    return [path]


def _parse_line(line: str) -> Optional[dict]:
    line = line.strip()
    if not line:
        return None
    try:
        event = json.loads(line)
    except json.JSONDecodeError:
        return None  # torn write: a tracer died mid-line
    if not isinstance(event, dict) or "t" not in event:
        return None
    return event


def load_events(source: "str | Path") -> list[dict]:
    """All events of a trace, merged across files in timestamp order."""
    events: list[dict] = []
    for file in trace_files(source):
        with file.open("r", encoding="utf-8") as fh:
            for line in fh:
                event = _parse_line(line)
                if event is not None:
                    events.append(event)
    events.sort(key=lambda e: float(e.get("t", 0.0)))
    return events


class TracePoller:
    """Incremental, non-blocking trace reading: the engine of a live tail.

    Each :meth:`poll` returns the events appended since the previous poll
    (timestamp-sorted across files), remembering per-file offsets so nothing
    is re-read.  Only complete lines advance an offset — a half-written tail
    is retried on the next poll — and ``trace-*.jsonl`` files appearing in
    the directory later (a shard worker starting late, a campaign's trace
    dir created after submission) are picked up as they materialise.

    :func:`follow_trace` wraps one of these in a sleep loop for ``obs
    tail``; the campaign service's SSE endpoint drives one directly from
    the event loop, where blocking sleeps are not an option.
    """

    def __init__(self, source: "str | Path"):
        self.source = Path(source)
        self._offsets: dict[Path, int] = {}

    def poll(self) -> list[dict]:
        """The complete events appended since the last call (may be empty)."""
        fresh: list[dict] = []
        try:
            files = trace_files(self.source)
        except FileNotFoundError:
            return fresh
        for file in files:
            try:
                # readline(), not iteration: tell() is forbidden while a text
                # file is being iterated, and the offset after every complete
                # line is exactly what resuming the next poll needs.
                with file.open("r", encoding="utf-8") as fh:
                    fh.seek(self._offsets.get(file, 0))
                    while True:
                        line = fh.readline()
                        if not line or not line.endswith("\n"):
                            break  # EOF or half-written tail: retry next poll
                        self._offsets[file] = fh.tell()
                        event = _parse_line(line)
                        if event is not None:
                            fresh.append(event)
            except OSError:
                continue
        fresh.sort(key=lambda e: float(e.get("t", 0.0)))
        return fresh


def follow_trace(
    source: "str | Path", poll_s: float = 0.5, max_polls: Optional[int] = None
) -> Iterator[dict]:
    """Yield events live: replay what exists, then poll for appended lines.

    New ``trace-*.jsonl`` files appearing in a trace directory are picked up
    on the next poll.  Iteration ends after ``max_polls`` empty polls
    (``None`` = poll until the consumer stops, e.g. by Ctrl-C).
    """
    poller = TracePoller(source)
    empty_polls = 0
    while True:
        fresh = poller.poll()
        if fresh:
            empty_polls = 0
            yield from fresh
        else:
            empty_polls += 1
            if max_polls is not None and empty_polls >= max_polls:
                return
            time.sleep(poll_s)


# ----------------------------------------------------------------------
# Metrics sidecars (one per process, mirrored into the trace directory)
# ----------------------------------------------------------------------
def metric_sidecar_files(source: "str | Path") -> list[Path]:
    """The per-process ``metrics-<worker>-<pid>.json`` mirrors of a trace dir."""
    path = Path(source)
    if not path.is_dir():
        return []
    return sorted(path.glob("metrics-*.json"))


def _sidecar_worker_label(path: Path) -> str:
    """``metrics-shard-0-12345.json`` → ``shard-0`` (strip prefix and pid)."""
    parts = path.stem.split("-")[1:]
    if parts and parts[-1].isdigit():
        parts = parts[:-1]
    return "-".join(parts) or "?"


def merged_sidecar_histograms(
    source: "str | Path",
) -> "tuple[dict[str, Histogram], list[str], int]":
    """Every worker's histogram series, merged bucket-wise per series key.

    Returns ``(merged, workers, files)``: the union of histogram series
    across all metrics sidecars in the trace directory (same series from
    different workers folded via :meth:`Histogram.merge`), the sorted labels
    of the workers whose sidecars contributed at least one histogram, and
    the number of sidecar files read.  This is what makes ``obs report``
    quantiles cover a sharded campaign instead of one process.
    """
    merged: dict[str, Histogram] = {}
    workers: set[str] = set()
    files = 0
    for file in metric_sidecar_files(source):
        try:
            doc = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue  # torn or vanished sidecar: skip, never fail the report
        histograms = doc.get("histograms") if isinstance(doc, dict) else None
        if not isinstance(histograms, dict):
            continue
        files += 1
        contributed = False
        for key, data in histograms.items():
            try:
                histogram = Histogram.from_dict(data)
            except (KeyError, TypeError, ValueError):
                continue
            contributed = True
            if key in merged:
                try:
                    merged[key].merge(histogram)
                except ValueError:
                    pass  # boundary drift across versions: keep the first
            else:
                merged[key] = histogram
        if contributed:
            workers.add(_sidecar_worker_label(file))
    return merged, sorted(workers), files


def _latency_section(source: "str | Path") -> dict:
    """Merged-worker scenario-latency quantiles for ``obs report``.

    Folds every sidecar's ``scenario_duration_seconds`` series (any labels)
    into one histogram and reports its quantiles, plus which workers
    contributed — the cross-worker view a per-process registry cannot give.
    """
    from .metrics import split_series_key

    merged, workers, files = merged_sidecar_histograms(source)
    combined: Optional[Histogram] = None
    for key, histogram in merged.items():
        name, _labels = split_series_key(key)
        if name != "scenario_duration_seconds":
            continue
        if combined is None:
            combined = Histogram(boundaries=histogram.boundaries)
        try:
            combined.merge(histogram)
        except ValueError:
            continue
    if combined is None or not combined.count:
        return {}
    doc = combined.to_dict()
    scenario = {
        "count": doc["count"],
        "mean_s": doc["mean"],
        "max_s": doc["max"],
    }
    for q, value in (doc.get("quantiles") or {}).items():
        scenario[f"{q}_s"] = value
    return {"scenario": scenario, "workers": workers, "sidecars": files}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _scenario_spans(events: Sequence[dict]) -> list[dict]:
    return [e for e in events if e.get("kind") == "span" and e.get("name") == "scenario"]


def build_report(
    events: Sequence[dict], slowest: int = 10, source: "str | Path | None" = None
) -> dict:
    """Aggregate a merged event stream into the ``obs report`` document.

    Keys: ``events``, ``span`` (trace wall span), ``runs``, ``phases`` (the
    per-phase breakdown with each phase's share of run time), ``coverage``
    (phase time / run-span time — the "where did the wall clock go"
    completeness check), ``scenarios`` / ``executed`` / ``cached`` /
    ``cache_hit_ratio``, ``queue_wait``, ``slowest``, ``workers`` (per
    worker label: events, busy seconds, wall seconds, utilisation),
    ``counters`` and ``rounds`` (boundary searches).

    When ``source`` names the trace *directory*, the per-process metrics
    sidecars mirrored there are folded in as a ``latency`` section: the
    ``scenario_duration_seconds`` histograms of **every** worker merged
    bucket-wise into one quantile view, labelled with the contributing
    workers.
    """
    report: dict = {"events": len(events)}
    if source is not None:
        latency = _latency_section(source)
        if latency:
            report["latency"] = latency
    if not events:
        report.update(
            {
                "runs": 0,
                "phases": {},
                "coverage": None,
                "scenarios": 0,
                "executed": 0,
                "cached": 0,
                "cache_hit_ratio": None,
                "slowest": [],
                "workers": {},
                "counters": {},
                "rounds": 0,
            }
        )
        return report

    times = [float(e["t"]) for e in events]
    report["span"] = {"start": min(times), "end": max(times), "wall_s": max(times) - min(times)}

    # --- top-level run spans and their phase partitions -----------------
    run_spans = [e for e in events if e.get("kind") == "span" and e.get("name") == "campaign.run"]
    phase_spans = [
        e for e in events if e.get("kind") == "span" and e.get("name") == "campaign.phase"
    ]
    run_s = sum(float(e.get("dur_s", 0.0)) for e in run_spans)
    phases: dict[str, float] = {}
    for span in phase_spans:
        phase = str(span.get("attrs", {}).get("phase", "?"))
        phases[phase] = phases.get(phase, 0.0) + float(span.get("dur_s", 0.0))
    phase_s = sum(phases.values())
    report["runs"] = len(run_spans)
    report["phases"] = {
        name: {
            "total_s": round(total, 6),
            "share": round(total / phase_s, 4) if phase_s > 0 else None,
        }
        for name, total in sorted(phases.items(), key=lambda kv: -kv[1])
    }
    report["coverage"] = round(min(1.0, phase_s / run_s), 4) if run_s > 0 else None

    # --- scenarios ------------------------------------------------------
    scenarios = _scenario_spans(events)
    cached = [s for s in scenarios if s.get("attrs", {}).get("cached")]
    executed = [s for s in scenarios if not s.get("attrs", {}).get("cached")]
    report["scenarios"] = len(scenarios)
    report["cached"] = len(cached)
    report["executed"] = len(executed)
    report["cache_hit_ratio"] = (
        round(len(cached) / len(scenarios), 4) if scenarios else None
    )

    # Per-scenario busy totals (worker-side build/simulate, runner-side
    # record-write) folded into the breakdown as sub-phases.
    scenario_phases: dict[str, float] = {}
    for span in executed:
        attrs = span.get("attrs", {})
        for key in SCENARIO_PHASES:
            value = attrs.get(key)
            if value is not None:
                scenario_phases[key] = scenario_phases.get(key, 0.0) + float(value)
    report["scenario_phases"] = {
        name: round(total, 6)
        for name, total in sorted(scenario_phases.items(), key=lambda kv: -kv[1])
    }
    waits = [
        float(s.get("attrs", {}).get("queue_wait_s"))
        for s in executed
        if s.get("attrs", {}).get("queue_wait_s") is not None
    ]
    report["queue_wait"] = {
        "mean_s": round(sum(waits) / len(waits), 6) if waits else None,
        "p50_s": round(exact_quantile(waits, 0.50), 6) if waits else None,
        "p95_s": round(exact_quantile(waits, 0.95), 6) if waits else None,
        "max_s": round(max(waits), 6) if waits else None,
    }

    report["slowest"] = [
        {
            "scenario_id": str(s.get("attrs", {}).get("scenario_id", "?"))[:12],
            "dur_s": round(float(s.get("dur_s", 0.0)), 4),
            "status": s.get("attrs", {}).get("status"),
            "worker": s.get("worker"),
        }
        for s in sorted(executed, key=lambda s: -float(s.get("dur_s", 0.0)))[:slowest]
    ]

    # --- per-worker utilisation ----------------------------------------
    workers: dict[str, dict] = {}
    for event in events:
        label = str(event.get("worker", "?"))
        entry = workers.setdefault(
            label, {"events": 0, "busy_s": 0.0, "first": float(event["t"]), "last": float(event["t"])}
        )
        entry["events"] += 1
        entry["first"] = min(entry["first"], float(event["t"]))
        entry["last"] = max(entry["last"], float(event["t"]))
        if (
            event.get("kind") == "span"
            and event.get("name") == "scenario"
            and not event.get("attrs", {}).get("cached")
        ):
            entry["busy_s"] += float(event.get("dur_s", 0.0))
    report["workers"] = {
        label: {
            "events": entry["events"],
            "busy_s": round(entry["busy_s"], 4),
            "wall_s": round(entry["last"] - entry["first"], 4),
            "utilisation": (
                round(min(1.0, entry["busy_s"] / (entry["last"] - entry["first"])), 4)
                if entry["last"] > entry["first"]
                else None
            ),
        }
        for label, entry in sorted(workers.items())
    }

    # --- counters and boundary rounds ----------------------------------
    counters: dict[str, float] = {}
    for event in events:
        if event.get("kind") == "counter":
            name = str(event.get("name", "?"))
            counters[name] = counters.get(name, 0) + float(event.get("value", 1))
    report["counters"] = {k: counters[k] for k in sorted(counters)}
    report["rounds"] = sum(
        1 for e in events if e.get("kind") == "span" and e.get("name") == "boundary.round"
    )

    # --- service requests and process resources (present when traced) ---
    http = _http_section(events)
    if http:
        report["http"] = http
    resources = _resource_section(events)
    if resources:
        report["resource"] = resources
    fault_section = _faults_section(report["counters"])
    if fault_section:
        report["faults"] = fault_section
    return report


#: Counter prefixes belonging to the fault-injection / self-healing stack.
_FAULT_COUNTER_PREFIXES = ("faults.", "retry.", "scheduler.")


def _faults_section(counters: Mapping) -> dict:
    """Chaos observability: injected faults, retries, scheduler restarts.

    Present only when a run actually injected/retried/restarted something —
    a clean run's report is unchanged.  ``retry.exhausted`` is always
    stamped (zero included) once the section exists, because "no retries
    ran out" is the assertion chaos gates make.
    """
    section = {
        name: value
        for name, value in counters.items()
        if str(name).startswith(_FAULT_COUNTER_PREFIXES)
    }
    if not section:
        return {}
    section.setdefault("faults.injected", 0)
    section.setdefault("retry.attempt", 0)
    section.setdefault("retry.exhausted", 0)
    return {k: section[k] for k in sorted(section)}


def _http_section(events: Sequence[dict]) -> dict:
    """Per-route request-latency quantiles from ``http.request`` spans."""
    by_route: dict[str, dict] = {}
    for event in events:
        if event.get("kind") != "span" or event.get("name") != "http.request":
            continue
        attrs = event.get("attrs", {})
        route = str(attrs.get("route", "?"))
        entry = by_route.setdefault(route, {"durations": [], "statuses": {}})
        entry["durations"].append(float(event.get("dur_s", 0.0)))
        status = str(attrs.get("status", "?"))
        entry["statuses"][status] = entry["statuses"].get(status, 0) + 1
    section: dict = {}
    for route, entry in sorted(by_route.items()):
        durations = entry["durations"]
        section[route] = {
            "requests": len(durations),
            "mean_s": round(sum(durations) / len(durations), 6),
            "p50_s": round(exact_quantile(durations, 0.50), 6),
            "p95_s": round(exact_quantile(durations, 0.95), 6),
            "p99_s": round(exact_quantile(durations, 0.99), 6),
            "max_s": round(max(durations), 6),
            "statuses": {k: entry["statuses"][k] for k in sorted(entry["statuses"])},
        }
    return section


#: The sampler gauges the resource section aggregates, with their units.
_RESOURCE_GAUGES = (
    ("process.rss_bytes", "rss_bytes"),
    ("process.cpu_percent", "cpu_percent"),
    ("process.open_fds", "open_fds"),
    ("process.threads", "threads"),
)


def _resource_section(events: Sequence[dict]) -> dict:
    """Peak/mean/last of each ``process.*`` gauge the resource sampler wrote."""
    series: dict[str, list] = {}
    for event in events:
        if event.get("kind") != "gauge":
            continue
        name = str(event.get("name", ""))
        if name.startswith("process."):
            series.setdefault(name, []).append(float(event.get("value", 0.0)))
    if not series:
        return {}
    section: dict = {}
    for gauge, key in _RESOURCE_GAUGES:
        values = series.get(gauge)
        if values:
            section[key] = {
                "peak": round(max(values), 6),
                "mean": round(sum(values) / len(values), 6),
                "last": round(values[-1], 6),
            }
    cpu_seconds = series.get("process.cpu_seconds")
    if cpu_seconds:
        section["cpu_seconds"] = round(cpu_seconds[-1], 6)
    section["samples"] = max(len(v) for v in series.values())
    return section


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_event(event: dict, t0: Optional[float] = None) -> str:
    """One trace event as a terminal line (shared by ``obs tail``)."""
    offset = float(event.get("t", 0.0)) - (t0 if t0 is not None else float(event.get("t", 0.0)))
    kind = event.get("kind", "?")
    name = event.get("name", "?")
    worker = event.get("worker", "?")
    parts = [f"+{offset:9.3f}s", f"[{worker}]", f"{kind:7s}", str(name)]
    if kind == "span":
        parts.append(f"dur={float(event.get('dur_s', 0.0)):.4f}s")
    elif kind in ("counter", "gauge"):
        parts.append(f"value={event.get('value')}")
    attrs = event.get("attrs") or {}
    detail = " ".join(
        f"{key}={value}" for key, value in attrs.items() if value is not None
    )
    if detail:
        parts.append(detail)
    return " ".join(parts)


def format_report(report: dict, title: str = "Campaign telemetry") -> str:
    """The full ``obs report`` terminal rendering."""
    overview = {
        "events": report.get("events", 0),
        "runs": report.get("runs", 0),
        "trace_wall_s": round(report.get("span", {}).get("wall_s", 0.0), 4)
        if report.get("span")
        else None,
        "scenarios": report.get("scenarios", 0),
        "executed": report.get("executed", 0),
        "cached": report.get("cached", 0),
        "cache_hit_ratio": report.get("cache_hit_ratio"),
        "coverage": report.get("coverage"),
        "boundary_rounds": report.get("rounds", 0),
    }
    blocks = [format_kv(overview, title=title)]

    phases = report.get("phases") or {}
    if phases:
        rows = [
            {"phase": name, "total_s": entry["total_s"], "share": entry["share"]}
            for name, entry in phases.items()
        ]
        blocks.append(format_table(rows, title="Per-phase breakdown (runner wall time)"))
    scenario_phases = report.get("scenario_phases") or {}
    if scenario_phases:
        blocks.append(
            format_kv(scenario_phases, title="Per-scenario phase totals (busy seconds)")
        )
    queue_wait = report.get("queue_wait") or {}
    if queue_wait.get("max_s") is not None:
        blocks.append(format_kv(queue_wait, title="Queue wait per scenario (seconds)"))

    workers = report.get("workers") or {}
    if workers:
        rows = [{"worker": label, **entry} for label, entry in workers.items()]
        blocks.append(format_table(rows, title="Worker utilisation"))

    slowest = report.get("slowest") or []
    if slowest:
        blocks.append(format_table(slowest, title=f"Slowest {len(slowest)} scenario(s)"))

    http = report.get("http") or {}
    if http:
        rows = [
            {
                "route": route,
                "requests": entry["requests"],
                "p50_s": entry["p50_s"],
                "p95_s": entry["p95_s"],
                "p99_s": entry["p99_s"],
                "max_s": entry["max_s"],
            }
            for route, entry in http.items()
        ]
        blocks.append(format_table(rows, title="HTTP requests (latency per route)"))

    resources = report.get("resource") or {}
    if resources:
        flat: dict = {}
        for key, value in resources.items():
            if isinstance(value, dict):
                rounded = {
                    k: round(v / 2**20, 1) if key == "rss_bytes" else v
                    for k, v in value.items()
                }
                unit = "rss_mib" if key == "rss_bytes" else key
                flat[unit] = (
                    f"peak {rounded['peak']}  mean {rounded['mean']}  last {rounded['last']}"
                )
            else:
                flat[key] = value
        blocks.append(format_kv(flat, title="Resource usage (sampler)"))

    latency = report.get("latency") or {}
    if latency:
        flat = dict(latency.get("scenario") or {})
        workers = latency.get("workers") or []
        flat["workers"] = ", ".join(workers) if workers else "?"
        flat["sidecars"] = latency.get("sidecars")
        blocks.append(
            format_kv(flat, title="Scenario latency (merged worker histograms)")
        )

    fault_section = report.get("faults") or {}
    if fault_section:
        blocks.append(format_kv(fault_section, title="Fault injection & recovery"))

    counters = report.get("counters") or {}
    if counters:
        blocks.append(format_kv(counters, title="Counters"))
    return "\n\n".join(blocks)
