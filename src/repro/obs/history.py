"""Cross-run performance history: the append-only run ledger.

Every traced run is an island until something writes down what it looked
like.  This module is that something:

* :func:`summarize_run` distils one finished trace directory into a compact
  :class:`RunSummary` — phase timings, throughput, cache-hit ratio, exact
  scenario-latency quantiles over the scenario spans of **every** process
  that traced into the directory, per-route request quantiles, the
  command's CPU seconds and peak RSS from ``getrusage``, fault/retry
  counters, and provenance
  (``repro_version``, git revision, machine) — the longitudinal record a
  regression check needs, three orders of magnitude smaller than the trace;
* :class:`RunLedger` appends those summaries to a JSONL ledger file with the
  atomic tmp+``os.replace`` discipline, so a writer dying mid-append can
  never tear the history;
* ``repro obs diff`` (:mod:`repro.obs.diff`) compares two summaries — or a
  fresh run against the ledger's last entry — and turns "did this change
  make things slower?" into an exit code.

The ledger lives next to the result store (``<store>.ledger.jsonl``) by
default: runs against the same store line up into one performance history
however many trace directories they scattered.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .report import build_report, load_events

__all__ = [
    "LEDGER_SCHEMA",
    "RunSummary",
    "RunLedger",
    "ledger_path",
    "summarize_run",
    "run_provenance",
    "git_revision",
]

#: Bumped when RunSummary gains/renames fields; readers tolerate unknowns.
LEDGER_SCHEMA = 1


def ledger_path(store_path: "str | os.PathLike") -> Path:
    """Where the run ledger lives, relative to a result store."""
    return Path(str(store_path) + ".ledger.jsonl")


def git_revision() -> Optional[str]:
    """The short git revision of the source tree, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


_PROVENANCE: Optional[dict] = None


def run_provenance() -> dict:
    """Who/what produced a measurement: version, git rev, interpreter, machine.

    Computed once per process (the git subprocess is not free) and returned
    as a fresh copy each call so callers may annotate without cross-talk.
    """
    global _PROVENANCE
    if _PROVENANCE is None:
        from .. import __version__

        doc = {
            "repro_version": __version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        rev = git_revision()
        if rev is not None:
            doc["git_rev"] = rev
        _PROVENANCE = doc
    return dict(_PROVENANCE)


@dataclass
class RunSummary:
    """One run's compact performance record — a single ledger line.

    ``scenario_latency`` carries the exact quantiles of the executed
    ``scenario`` spans of *all* traced processes (one per shard), with the
    contributing worker labels; ``routes`` the per-route request quantiles;
    ``resource`` the CPU seconds (``cpu_s``: the whole traced command where
    the trace has ``command.run`` spans, else its campaigns; worker slots
    included) and peak RSS (``rss_peak_bytes``) the kernel counted; ``counters`` the
    fault/retry/restart totals a regression gate cares about.  ``meta`` is
    free-form (benchmark figures, provenance extras).
    """

    kind: str = "sweep"  # sweep | shard | boundary | serve | bench
    t: float = 0.0
    campaign: Optional[str] = None
    engine: Optional[str] = None
    repro_version: str = ""
    trace_dir: Optional[str] = None
    wall_s: Optional[float] = None
    scenarios: int = 0
    executed: int = 0
    cached: int = 0
    cache_hit_ratio: Optional[float] = None
    throughput_sps: Optional[float] = None
    phases: dict = field(default_factory=dict)
    scenario_latency: dict = field(default_factory=dict)
    routes: dict = field(default_factory=dict)
    resource: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401 — set of names
        return cls(**{k: v for k, v in dict(data).items() if k in known})

    def label(self) -> str:
        """A short human identity for diff headers and ledger listings."""
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.t))
        campaign = (self.campaign or "?")[:12]
        return f"{self.kind} {campaign} @ {stamp}"


class RunLedger:
    """Append-only JSONL history of :class:`RunSummary` lines.

    Appends are read-modify-write through a per-process temp file renamed
    into place (``os.replace``), like the service's ``metrics.json``
    snapshot: however the writer dies, a reader only ever sees a sequence of complete lines.
    Unparseable lines (a torn legacy append, hand-editing damage) are
    skipped on read rather than poisoning the whole history.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)

    def append(self, summary: RunSummary) -> RunSummary:
        line = json.dumps(summary.to_dict(), sort_keys=True, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            existing = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            existing = ""
        if existing and not existing.endswith("\n"):
            existing += "\n"  # heal a torn tail so the new line stays parseable
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(existing + line + "\n", encoding="utf-8")
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
        return summary

    def entries(self) -> list:
        entries: list = []
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return entries
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(data, dict):
                try:
                    entries.append(RunSummary.from_dict(data))
                except TypeError:
                    continue
        return entries

    def last(self) -> Optional[RunSummary]:
        entries = self.entries()
        return entries[-1] if entries else None

    def __len__(self) -> int:
        return len(self.entries())


# ----------------------------------------------------------------------
# Summarisation
# ----------------------------------------------------------------------
def summarize_run(
    trace_dir: "str | os.PathLike",
    kind: str = "sweep",
    campaign: Optional[str] = None,
    engine: Optional[str] = None,
    meta: Optional[dict] = None,
) -> RunSummary:
    """Distil one finished trace directory into a :class:`RunSummary`.

    Shared by the campaign CLI's end-of-run ledger append, ``obs diff``'s
    on-the-fly trace comparison, and the service scheduler — one definition
    of "what this run looked like" everywhere.  Raises
    :class:`FileNotFoundError` when the trace dir is missing or holds no
    trace files (callers map that to exit code 2).
    """
    events = load_events(trace_dir)  # FileNotFoundError on missing/empty dir
    report = build_report(events)
    provenance = run_provenance()

    if campaign is None:
        stamps = [e.get("campaign") for e in events if e.get("campaign")]
        if stamps:
            campaign = max(set(stamps), key=stamps.count)

    phases = {
        name: entry.get("total_s")
        for name, entry in (report.get("phases") or {}).items()
    }
    executed = int(report.get("executed") or 0)
    execute_s = phases.get("execute")
    wall_s = (report.get("span") or {}).get("wall_s")
    basis = execute_s if execute_s else wall_s
    throughput = round(executed / basis, 4) if executed and basis else None

    latency = report.get("latency")
    scenario_latency = {**latency["scenario"], "workers": latency["workers"]} if latency else {}

    routes = {
        route: {
            "requests": entry.get("requests"),
            "p50_s": entry.get("p50_s"),
            "p95_s": entry.get("p95_s"),
            "p99_s": entry.get("p99_s"),
            "max_s": entry.get("max_s"),
        }
        for route, entry in (report.get("http") or {}).items()
    }

    usage = report.get("resource")
    resource = (
        {"cpu_s": usage["cpu_s"], "rss_peak_bytes": usage["max_rss_bytes"]} if usage else {}
    )

    summary = RunSummary(
        kind=kind,
        t=time.time(),
        campaign=campaign,
        engine=engine,
        repro_version=str(provenance.get("repro_version", "")),
        trace_dir=str(Path(trace_dir)),
        wall_s=wall_s,
        scenarios=int(report.get("scenarios") or 0),
        executed=executed,
        cached=int(report.get("cached") or 0),
        cache_hit_ratio=report.get("cache_hit_ratio"),
        throughput_sps=throughput,
        phases=phases,
        scenario_latency=scenario_latency,
        routes=routes,
        resource=resource,
        counters=dict(report.get("faults") or {}),
        meta={**{k: v for k, v in provenance.items() if k != "repro_version"}, **(meta or {})},
    )
    return summary
