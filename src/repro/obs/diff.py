"""``repro obs diff``: regression detection between two run summaries.

Given a baseline :class:`~repro.obs.history.RunSummary` A and a candidate B
(each summarised on the fly from a trace directory, or pulled from the run
ledger), :func:`diff_summaries` lines up every comparable metric — phase
wall times, merged scenario-latency quantiles, throughput, cache-hit ratio,
per-route p95s, fault counters — computes the deltas, and applies
:class:`DiffThresholds` to decide which deltas are *regressions*:

* a phase slower by more than ``phase_pct`` (ignoring phases shorter than
  ``min_phase_s`` on the baseline — noise, not signal);
* scenario p95 up by more than ``p95_pct`` (same noise floor via
  ``min_latency_s``);
* throughput down by more than ``throughput_pct``;
* any ``retry.exhausted`` in the candidate (a scenario permanently failed).

Metrics missing on either side are reported but never regress — a warm
cache-hit run has no execute phase and no scenario latency, and diffing it
against a cold run must not fail the build.  The CLI maps ``ok`` to exit
code 0/1 (and 2 for unusable inputs), which is the whole CI contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..analysis.reporting import format_kv, format_table
from .history import RunSummary

__all__ = ["DiffThresholds", "diff_summaries", "format_diff"]


@dataclass(frozen=True)
class DiffThresholds:
    """Regression gates, each a relative percentage unless noted."""

    p95_pct: float = 20.0
    throughput_pct: float = 10.0
    phase_pct: float = 50.0
    #: Baseline phases shorter than this never regress (timing noise).
    min_phase_s: float = 0.05
    #: Baseline latencies below this never regress (cache hits, no-ops).
    min_latency_s: float = 0.001
    fail_on_retry_exhausted: bool = True


def _pct_change(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None or b is None or not math.isfinite(a) or a == 0:
        return None
    return (b - a) / abs(a) * 100.0


def _row(
    metric: str,
    a: Optional[float],
    b: Optional[float],
    regression: bool = False,
    note: str = "",
) -> dict:
    pct = _pct_change(a, b)
    return {
        "metric": metric,
        "a": None if a is None else round(float(a), 6),
        "b": None if b is None else round(float(b), 6),
        "delta": None if a is None or b is None else round(float(b) - float(a), 6),
        "delta_pct": None if pct is None else round(pct, 2),
        "regression": bool(regression),
        "note": note,
    }


def diff_summaries(
    a: RunSummary, b: RunSummary, thresholds: Optional[DiffThresholds] = None
) -> dict:
    """Compare candidate ``b`` against baseline ``a``.

    Returns ``{"a": ..., "b": ..., "rows": [...], "regressions": [...],
    "ok": bool}`` where each row carries both values, absolute and relative
    delta, and whether it breached a threshold.
    """
    t = thresholds or DiffThresholds()
    rows: list = []

    # --- overall wall time and cache behaviour (informational) ----------
    rows.append(_row("wall_s", a.wall_s, b.wall_s))
    rows.append(_row("cache_hit_ratio", a.cache_hit_ratio, b.cache_hit_ratio))
    rows.append(_row("executed", float(a.executed), float(b.executed)))

    # --- throughput -----------------------------------------------------
    pct = _pct_change(a.throughput_sps, b.throughput_sps)
    throughput_regressed = pct is not None and pct < -t.throughput_pct
    rows.append(
        _row(
            "throughput_sps",
            a.throughput_sps,
            b.throughput_sps,
            regression=throughput_regressed,
            note=f"fails below -{t.throughput_pct:g}%" if throughput_regressed else "",
        )
    )

    # --- phase wall times ------------------------------------------------
    for phase in sorted(set(a.phases) | set(b.phases)):
        pa, pb = a.phases.get(phase), b.phases.get(phase)
        pct = _pct_change(pa, pb)
        regressed = (
            pa is not None
            and pb is not None
            and pa >= t.min_phase_s
            and pct is not None
            and pct > t.phase_pct
        )
        rows.append(
            _row(
                f"phase.{phase}_s",
                pa,
                pb,
                regression=regressed,
                note=f"fails above +{t.phase_pct:g}%" if regressed else "",
            )
        )

    # --- scenario latency quantiles --------------------------------------
    lat_a, lat_b = a.scenario_latency or {}, b.scenario_latency or {}
    for stat in ("p50_s", "p95_s", "p99_s", "max_s", "mean_s"):
        va, vb = lat_a.get(stat), lat_b.get(stat)
        pct = _pct_change(va, vb)
        regressed = (
            stat == "p95_s"
            and va is not None
            and vb is not None
            and va >= t.min_latency_s
            and pct is not None
            and pct > t.p95_pct
        )
        if va is None and vb is None:
            continue
        rows.append(
            _row(
                f"scenario.{stat}",
                va,
                vb,
                regression=regressed,
                note=f"fails above +{t.p95_pct:g}%" if regressed else "",
            )
        )

    # --- per-route p95 (informational: service runs only) ----------------
    for route in sorted(set(a.routes) | set(b.routes)):
        va = (a.routes.get(route) or {}).get("p95_s")
        vb = (b.routes.get(route) or {}).get("p95_s")
        if va is None and vb is None:
            continue
        rows.append(_row(f"route.{route}.p95_s", va, vb))

    # --- CPU seconds and peak RSS (informational) ------------------------
    for key in sorted(set(a.resource) | set(b.resource)):
        rows.append(_row(f"resource.{key}", a.resource.get(key), b.resource.get(key)))

    # --- fault counters ---------------------------------------------------
    for name in sorted(set(a.counters) | set(b.counters)):
        va, vb = a.counters.get(name), b.counters.get(name)
        regressed = (
            t.fail_on_retry_exhausted
            and name == "retry.exhausted"
            and float(vb or 0) > 0
        )
        rows.append(
            _row(
                f"counter.{name}",
                None if va is None else float(va),
                None if vb is None else float(vb),
                regression=regressed,
                note="scenarios failed permanently" if regressed else "",
            )
        )

    regressions = [row for row in rows if row["regression"]]
    return {
        "a": {"label": a.label(), "trace_dir": a.trace_dir, "campaign": a.campaign},
        "b": {"label": b.label(), "trace_dir": b.trace_dir, "campaign": b.campaign},
        "thresholds": {
            "p95_pct": t.p95_pct,
            "throughput_pct": t.throughput_pct,
            "phase_pct": t.phase_pct,
        },
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def format_diff(doc: dict) -> str:
    """Terminal rendering of a diff document."""
    header = {
        "baseline (A)": doc["a"]["label"],
        "candidate (B)": doc["b"]["label"],
        "thresholds": (
            f"p95 +{doc['thresholds']['p95_pct']:g}%  "
            f"throughput -{doc['thresholds']['throughput_pct']:g}%  "
            f"phase +{doc['thresholds']['phase_pct']:g}%"
        ),
        "verdict": "OK" if doc["ok"] else f"{len(doc['regressions'])} REGRESSION(S)",
    }
    blocks = [format_kv(header, title="Run diff (B vs A)")]
    rows = [
        {
            "metric": row["metric"],
            "a": row["a"],
            "b": row["b"],
            "delta_pct": row["delta_pct"],
            "flag": "REGRESSION" if row["regression"] else "",
        }
        for row in doc["rows"]
        if not (row["a"] is None and row["b"] is None)
    ]
    if rows:
        blocks.append(format_table(rows, title="Metric deltas"))
    if not doc["ok"]:
        lines = [
            f"- {row['metric']}: {row['a']} -> {row['b']} "
            f"({'+' if (row['delta_pct'] or 0) >= 0 else ''}{row['delta_pct']}%) {row['note']}"
            for row in doc["regressions"]
        ]
        blocks.append("Regressions:\n" + "\n".join(lines))
    return "\n\n".join(blocks)
