"""Trace aggregation: merge per-process trace files, compute the campaign view.

The read side of :mod:`repro.obs`:

* :func:`trace_files` / :func:`load_events` — resolve a trace *source* (a
  trace directory or one trace file) to its event stream, merged across all
  per-process files **in timestamp order** (events carry wall-clock ``t``
  precisely so multi-process traces interleave correctly);
* :func:`build_report` — the aggregates ``obs report`` prints: per-phase
  time breakdown with wall-time coverage, cache-hit ratio, slowest-N
  scenarios, per-worker utilisation, queue-wait statistics, counter totals,
  scenario latency from the ``scenario`` spans and CPU / peak RSS from the
  ``getrusage`` stamps on the ``campaign.run`` spans — every number comes
  from the trace itself;
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
from .timeseries import exact_quantile

__all__ = [
    "trace_files",
    "load_events",
    "build_report",
    "format_report",
    "format_event",
    "follow_trace",
    "TracePoller",
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
# Aggregation
# ----------------------------------------------------------------------
def _scenario_spans(events: Sequence[dict]) -> list[dict]:
    return [e for e in events if e.get("kind") == "span" and e.get("name") == "scenario"]


def build_report(events: Sequence[dict], slowest: int = 10) -> dict:
    """Aggregate a merged event stream into the ``obs report`` document.

    Keys: ``events``, ``span`` (trace wall span), ``runs``, ``phases`` (the
    per-phase breakdown with each phase's share of run time), ``coverage``
    (phase time / run-span time — the "where did the wall clock go"
    completeness check), ``scenarios`` / ``executed`` / ``cached`` /
    ``cache_hit_ratio``, ``queue_wait``, ``slowest``, ``workers`` (per
    worker label: events, busy seconds, wall seconds, utilisation),
    ``counters`` and ``rounds`` (boundary searches).

    When the trace holds them, ``latency`` gives exact quantiles of the
    executed ``scenario`` spans of every process that wrote one, ``http``
    the per-route request quantiles, and ``resource`` the kernel's CPU and
    peak-RSS accounting (see :func:`_resource_section`).
    """
    report: dict = {"events": len(events)}
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
    if executed:
        durations = [float(s.get("dur_s", 0.0)) for s in executed]
        report["latency"] = {
            "scenario": {
                "count": len(durations),
                "mean_s": sum(durations) / len(durations),
                "p50_s": exact_quantile(durations, 0.50),
                "p95_s": exact_quantile(durations, 0.95),
                "p99_s": exact_quantile(durations, 0.99),
                "max_s": max(durations),
            },
            "workers": sorted({str(s.get("worker", "?")) for s in executed}),
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
    resources = _resource_section(events, run_spans)
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


def _resource_section(events: Sequence[dict], run_spans: Sequence[dict]) -> dict:
    """CPU seconds (summed) and peak RSS (max) the kernel counted.

    A traced CLI command ends with a ``command.run`` span carrying its
    process's ``getrusage`` totals since exec, reaped children included;
    those readings are cumulative, so the last one per pid counts.  A trace
    without one (the service's) sums the ``campaign.run`` spans' readings.
    """
    commands = {
        e.get("pid"): e["attrs"]
        for e in events
        if e.get("kind") == "span"
        and e.get("name") == "command.run"
        and "cpu_s" in e.get("attrs", {})
    }
    stamped = list(commands.values()) or [
        e.get("attrs", {}) for e in run_spans if "cpu_s" in e.get("attrs", {})
    ]
    if not stamped:
        return {}
    return {
        "cpu_s": round(sum(float(a["cpu_s"]) for a in stamped), 6),
        "max_rss_bytes": max(int(a.get("max_rss_bytes") or 0) for a in stamped),
    }


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
        flat = {
            "cpu_s": resources["cpu_s"],
            "peak_rss_mib": round(resources["max_rss_bytes"] / 2**20, 1),
        }
        blocks.append(format_kv(flat, title="Resource usage (getrusage, incl. worker slots)"))

    latency = report.get("latency") or {}
    if latency:
        flat = {k: round(v, 6) for k, v in latency["scenario"].items()}
        flat["workers"] = ", ".join(latency["workers"])
        blocks.append(format_kv(flat, title="Scenario latency (executed scenario spans)"))

    fault_section = report.get("faults") or {}
    if fault_section:
        blocks.append(format_kv(fault_section, title="Fault injection & recovery"))

    counters = report.get("counters") or {}
    if counters:
        blocks.append(format_kv(counters, title="Counters"))
    return "\n\n".join(blocks)
