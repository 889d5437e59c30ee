"""Command-line entry point: run the paper's experiments from a terminal.

Examples
--------
Run the governor against a synthetic full-sun harvest for ten minutes::

    repro-pns run --governor power-neutral --duration 600 --weather full_sun

Reproduce Table II (shortened)::

    repro-pns table2 --duration 900

Reproduce a characterisation figure (with a reproducible irradiance seed)::

    repro-pns figure fig12 --seed 3

Run a 24-scenario governor × weather × capacitance campaign on two worker
processes, then resume it (all cells cached)::

    repro-pns sweep --workers 2 --store campaign.jsonl
    repro-pns sweep --workers 2 --store campaign.jsonl --resume

Campaigns are not limited to the outdoor PV rig — swap the supply component
or run a built-in preset::

    repro-pns sweep --supply constant-power --supply-param power_w=2.5
    repro-pns sweep --preset fig11-governors --store fig11.jsonl
    repro-pns sweep --preset constant-power-survival --workers 4

Find a survival boundary by bisection instead of running a dense grid (a
re-run against the same store is pure cache hits)::

    repro-pns boundary --preset min-capacitance --store boundary.jsonl
    repro-pns boundary --preset min-power --workers 4
    repro-pns boundary --path supply.power_w --lo 0.8 --hi 8 \
        --supply constant-power --governors power-neutral,ondemand

Compact a long-lived store (drop superseded records, rebuild the SQLite
inventory sidecar)::

    repro-pns store compact --store campaign.jsonl

Distribute a campaign: run disjoint, content-addressed shards (one per host
or one per terminal), then merge the shard stores into the one store every
other subcommand consumes::

    repro-pns shard --preset table2-pv --num-shards 2 --shard-index 0 --store shard-0.jsonl
    repro-pns shard --preset table2-pv --num-shards 2 --shard-index 1 --store shard-1.jsonl
    repro-pns store merge campaign.jsonl shard-0.jsonl shard-1.jsonl
    repro-pns sweep --preset table2-pv --store campaign.jsonl --resume   # executed: 0

Any campaign or boundary search can solve the PV supply exactly (Lambert-W
per step, on the same simulator loop) instead of interpolating the tabulated
I-V surface (``--exact``); the engine is not part of the scenario identity,
so both engines share one store::

    repro-pns sweep --preset table2-pv --exact --store campaign.jsonl

Trace a campaign (``--trace`` works on sweep, boundary and shard; every
process writes its own trace file into the directory), then read the trace
back — live or aggregated::

    repro-pns sweep --preset table2-pv --store campaign.jsonl --trace trace/
    repro-pns obs tail trace/ --follow     # live, from another terminal
    repro-pns obs report trace/            # phases, slowest-N, utilisation
    repro-pns boundary --preset min-capacitance --trace trace/ --profile
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from .analysis.reporting import format_kv, format_series, format_table
from .obs import (
    DISABLED,
    DiffThresholds,
    ProgressRenderer,
    RunLedger,
    Telemetry,
    build_report,
    diff_summaries,
    follow_trace,
    format_diff,
    format_event,
    format_report,
    ledger_path,
    load_events,
    run_top,
    summarize_run,
)
from .obs.resource import rusage_totals
from .energy.irradiance import WeatherCondition
from .experiments import characterisation, evaluation
from .experiments.scenarios import run_pv_experiment
from . import sweep as sweep_module

__all__ = ["main", "build_parser"]

#: Characterisation figure generators selectable from the command line.
FIGURE_FUNCTIONS: dict[str, Callable[[], dict]] = {
    "fig1": characterisation.fig1_solar_day,
    "fig3": characterisation.fig3_concept,
    "fig4": characterisation.fig4_power_vs_frequency,
    "fig6": characterisation.fig6_shadowing_simulation,
    "fig7": characterisation.fig7_performance_vs_power,
    "fig10": characterisation.fig10_transition_latency,
    "table1": characterisation.table1_buffer_capacitance,
    "fig11": evaluation.fig11_controlled_supply,
    "fig12": evaluation.fig12_voltage_stability,
    "fig13": evaluation.fig13_iv_and_operating_voltage,
    "fig14": evaluation.fig14_power_tracking,
    "fig15": evaluation.fig15_overhead,
}


def _bounded(convert: Callable, minimum: float, strict: bool = False) -> Callable:
    """An argparse ``type``: ``convert`` the text and refuse values below
    ``minimum`` (or equal to it, when ``strict``), so a bad value exits 2
    with a one-line message before any work starts."""

    def parse(text: str):
        value = convert(text)  # a ValueError reads "invalid <convert> value"
        if not (value > minimum if strict else value >= minimum):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {minimum:g} (got {text})"
            )
        return value

    parse.__name__ = convert.__name__
    return parse


#: The ``type`` of every duration flag: a positive number of seconds.
_SECONDS = _bounded(float, 0.0, strict=True)

#: The run flags the campaign commands share, each declared once here; a
#: command takes the ones it needs through ``parents=[_run_flags(...)]``.
_RUN_FLAGS: dict[str, dict] = {
    "--workers": {
        "type": _bounded(int, 1),
        "default": 2,
        "help": "worker processes (1 = inline; default: %(default)s)",
    },
    "--timeout": {
        "type": _SECONDS,
        "default": 600.0,
        "metavar": "S",
        "help": "per-scenario wall-clock budget in seconds (default: %(default)s)",
    },
    "--store": {
        "default": "sweep_results.jsonl",
        "help": "JSONL result store path (default: %(default)s)",
    },
    "--fresh": {
        "action": "store_true",
        "help": "delete the existing store (and a shard's manifest) first and recompute everything",
    },
    "--series": {
        "type": _bounded(int, 0),
        "default": 0,
        "metavar": "N",
        "help": "store each scenario's time series decimated to N samples (0 = summaries only)",
    },
    "--exact": {
        "action": "store_true",
        "help": (
            "solve the PV supply exactly (Lambert-W per step, build_system(fast=False)) "
            "instead of interpolating the tabulated I-V surface; same simulator loop, "
            "an execution detail only — stores stay comparable because the engine "
            "is not part of the scenario hash"
        ),
    },
    "--quiet": {
        "action": "store_true",
        "help": "suppress the progress lines (serve: the startup banner)",
    },
    "--trace": {
        "default": None,
        "metavar": "DIR",
        "help": (
            "write JSONL trace events (phase spans, per-scenario timings, "
            "counters, the command's CPU seconds and peak RSS from "
            "getrusage; serve: request spans) to per-process files in DIR; "
            "inspect with 'obs tail DIR' / 'obs report DIR' / 'obs top DIR'"
        ),
    },
    "--profile": {
        "action": "store_true",
        "help": (
            "run the campaign under cProfile: print the hottest functions and "
            "dump the full profile next to the trace (or the store)"
        ),
    },
    "--ledger": {
        "default": None,
        "metavar": "FILE",
        "help": (
            "append a run summary to this performance-history ledger after a "
            "traced run (default: <store>.ledger.jsonl; pass 'none' to "
            "disable); compare runs with 'obs diff'"
        ),
    },
}

#: The run flags of the commands that execute a campaign into a store.
_CAMPAIGN_FLAGS = (
    "--workers",
    "--timeout",
    "--store",
    "--fresh",
    "--exact",
    "--quiet",
    "--trace",
    "--profile",
    "--ledger",
)


def _run_flags(*names: str, **defaults) -> argparse.ArgumentParser:
    """A parent parser holding the named :data:`_RUN_FLAGS` with ``defaults``.

    A new parser per command: argparse shares a parent's actions with every
    child, so a default set on a shared parent would leak into the others.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(name, **_RUN_FLAGS[name])
    parent.set_defaults(**defaults)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-pns",
        description="Power-neutral performance scaling for energy-harvesting MP-SoCs (DATE 2017) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one governor against a synthetic solar harvest")
    run.add_argument("--governor", choices=sorted(sweep_module.GOVERNORS), default="power-neutral")
    run.add_argument("--duration", type=float, default=600.0, help="simulated duration in seconds")
    run.add_argument(
        "--weather",
        choices=[w.value for w in WeatherCondition],
        default=WeatherCondition.FULL_SUN.value,
    )
    run.add_argument("--seed", type=int, default=7, help="irradiance generator seed")
    run.add_argument("--capacitance-mf", type=float, default=47.0, help="buffer capacitance in mF")

    table2 = sub.add_parser("table2", help="reproduce the Table II governor comparison")
    table2.add_argument("--duration", type=float, default=900.0)
    table2.add_argument("--seed", type=int, default=11)

    figure = sub.add_parser("figure", help="reproduce one characterisation/evaluation figure")
    figure.add_argument("name", choices=sorted(FIGURE_FUNCTIONS))
    figure.add_argument(
        "--seed",
        type=int,
        default=None,
        help="irradiance generator seed (applied when the figure takes one)",
    )
    figure.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated duration in seconds (applied when the figure takes one)",
    )

    sweep = sub.add_parser(
        "sweep",
        parents=[_run_flags(*_CAMPAIGN_FLAGS, "--series")],
        help="run a scenario campaign (any supply/platform/capacitor/governor combination) over worker processes",
        description=(
            "Expand a declarative scenario grid, run it serially or over a process "
            "pool, and persist one JSONL record per scenario keyed by the config's "
            "content hash. Re-running against the same store (--resume) recomputes "
            "nothing that already succeeded. The rig is composable: --supply picks "
            "the source (pv-array, controlled-voltage, constant-power, trace-file) "
            "with --supply-param KEY=VALUE knobs, or --preset runs a built-in "
            "campaign (e.g. the Fig. 11 controlled-supply governor sweep)."
        ),
    )
    _add_grid_flags(sweep)
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume against the existing store, skipping every scenario it already "
            "completed (this is also the default behaviour; the flag makes it explicit)"
        ),
    )
    _add_export_flags(sweep, "per-record summary rows")

    shard = sub.add_parser(
        "shard",
        parents=[_run_flags(*_CAMPAIGN_FLAGS, "--series", workers=1, store=None)],
        help="run one shard of a partitioned campaign against its own store (distributed worker)",
        description=(
            "Execute shard INDEX of a campaign split NUM ways. Sharding is "
            "deterministic and content-addressed (a scenario's shard is a pure "
            "function of its config hash), so N workers given the same spec — "
            "via --spec FILE, --preset, or identical grid flags — run disjoint "
            "subsets covering the whole campaign. The shard's store carries a "
            "JSON manifest (<store>.manifest.json) stamping the campaign hash, "
            "shard geometry and engine; re-invocations verify it and refuse to "
            "mix campaigns in one shard store (default store: "
            "shard-<INDEX>.jsonl). Assemble the final store with "
            "'store merge'; re-running a shard against the merged store "
            "recomputes nothing."
        ),
    )
    _add_grid_flags(shard)
    shard.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help=(
            "JSON campaign spec (SweepSpec.to_dict()) or shard manifest to run, "
            "instead of composing a grid from flags"
        ),
    )
    shard.add_argument(
        "--num-shards", type=int, required=True, metavar="N", help="total shard count"
    )
    shard.add_argument(
        "--shard-index", type=int, required=True, metavar="I", help="this worker's shard (0-based)"
    )
    shard.add_argument(
        "--manifest",
        default=None,
        metavar="FILE",
        help="shard manifest path (default: <store>.manifest.json)",
    )

    boundary = sub.add_parser(
        "boundary",
        parents=[_run_flags(*_CAMPAIGN_FLAGS, store="boundary_results.jsonl")],
        help="bisect a numeric scenario parameter to its survival (or custom-predicate) boundary",
        description=(
            "Find the critical value of one numeric dotted config path "
            "(capacitor.capacitance_f, supply.power_w, ...) where a predicate over "
            "completed scenarios flips — for every combination of the outer axes. "
            "Each round batches one probe per unconverged cell into a single "
            "campaign run, and every probe lands in the content-addressed store: "
            "re-running a finished query performs zero new simulations, and an "
            "interrupted search resumes from its stored probes. Run a built-in "
            "query with --preset (min-capacitance, min-power) or compose one with "
            "--path/--lo/--hi."
        ),
    )
    boundary.add_argument(
        "--preset",
        choices=sweep_module.boundary_preset_names(),
        default=None,
        help="run a built-in boundary query instead of composing one from flags",
    )
    boundary.add_argument(
        "--path",
        default=None,
        help="numeric dotted config path to bisect, e.g. capacitor.capacitance_f",
    )
    boundary.add_argument("--lo", type=float, default=None, help="initial bracket low end")
    boundary.add_argument("--hi", type=float, default=None, help="initial bracket high end")
    boundary.add_argument(
        "--predicate",
        choices=sorted(sweep_module.PREDICATES),
        default="survived",
        help="predicate whose flip is searched for (default: %(default)s)",
    )
    boundary.add_argument(
        "--decreasing",
        action="store_true",
        help="predicate passes below the boundary instead of above it",
    )
    boundary.add_argument(
        "--scale",
        choices=("linear", "log"),
        default=None,
        help="bisection scale (default: linear, or the preset's own choice)",
    )
    boundary.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        help="relative bracket-width tolerance (default: 0.05, or the preset's)",
    )
    boundary.add_argument(
        "--abs-tol", type=float, default=None, help="absolute bracket-width tolerance"
    )
    boundary.add_argument(
        "--max-probes",
        type=int,
        default=None,
        help="per-cell probe budget (default: 48)",
    )
    boundary.add_argument(
        "--governors",
        default=None,
        help=(
            "comma-separated outer governor axis (min-power preset or custom "
            "queries; a single name just pins the governor)"
        ),
    )
    boundary.add_argument(
        "--weather",
        default=None,
        help=(
            "comma-separated outer weather axis (min-capacitance preset or custom "
            "pv-array queries)"
        ),
    )
    boundary.add_argument(
        "--supply",
        choices=sweep_module.SUPPLIES.names(),
        default=None,
        help="supply component kind for custom queries (default: pv-array)",
    )
    boundary.add_argument(
        "--supply-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set one supply parameter for custom queries (repeatable)",
    )
    boundary.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds per probe (default: 60, or the preset's own default)",
    )
    _add_export_flags(boundary, "per-cell boundary rows")

    store = sub.add_parser(
        "store",
        parents=[_run_flags("--store")],
        help="maintain JSONL result stores (compact, merge shards, stats)",
        description=(
            "Store maintenance. 'compact' rewrites the JSONL keeping only the "
            "newest record per scenario id and rebuilds the store's SQLite "
            "inventory sidecar (<store>.sqlite), stamping the compacted size as "
            "the baseline 'stats' measures growth against. 'merge DEST SRC "
            "[SRC ...]' unions shard stores into DEST (creating it if "
            "needed): successful records always supersede failures, later "
            "sources win ties, legacy v1 records are upgraded and re-keyed, "
            "and DEST is compacted — ready for sweep --resume, boundary, or "
            "aggregation. 'stats [PATH]' prints the store inventory — record "
            "counts by status and schema version, bytes and records appended "
            "since the last compact — served from the SQLite sidecar without "
            "opening the store (a broken SQLite sidecar falls back to opening "
            "it). A run's cache-hit ratio is in its trace ('obs report') and "
            "the run ledger."
        ),
    )
    store.add_argument(
        "action", choices=("compact", "merge", "stats"), help="maintenance action"
    )
    store.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "for merge: DEST SRC [SRC ...]; for stats: the store path "
            "(ignored by compact, which uses --store)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        parents=[
            _run_flags(
                "--workers", "--timeout", "--store", "--series", "--exact", "--quiet", "--trace",
                store="serve_results.jsonl",
            )
        ],
        help="run the long-lived campaign service (HTTP submissions + SSE progress)",
        description=(
            "Start the asyncio campaign service. Clients POST SweepSpec / "
            "BoundaryQuery JSON snapshots to /campaigns (deduped by content "
            "hash — identical submissions return the existing campaign), "
            "poll /campaigns/{id}, stream live trace events from "
            "/campaigns/{id}/events (Server-Sent Events), and fetch results "
            "from /campaigns/{id}/records and /aggregate, filtered from the "
            "records the open store holds. GET /metrics serves the service's "
            "own series (requests, scheduler, scenario latency) and reads the "
            "process's RSS, CPU seconds, open fds and threads when it is "
            "scraped; the registry is written to <data-dir>/metrics.json at "
            "shutdown. Each finished campaign appends its run summary, cache "
            "hits included, to <data-dir>/ledger.jsonl. "
            "Submit with 'repro submit' or any HTTP client; stop with Ctrl-C."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port, 0 = ephemeral (default: %(default)s)"
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="campaign trace/scratch directory (default: <store>.serve/)",
    )
    serve.add_argument(
        "--token",
        default=None,
        help="require 'Authorization: Bearer TOKEN' on every endpoint except /healthz",
    )
    serve.add_argument(
        "--watchdog",
        type=_SECONDS,
        default=None,
        metavar="S",
        help=(
            "per-campaign wall-clock budget: a campaign running longer is stopped and "
            "failed (scheduler.watchdog_timeout) so it cannot wedge the "
            "queue (default: no limit)"
        ),
    )

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a running campaign service",
        description=(
            "Submit a campaign over HTTP and (by default) wait for it to "
            "finish, printing the result summary and aggregate totals. "
            "Resubmitting an identical spec is a cache hit: the service "
            "returns the existing campaign id and schedules nothing."
        ),
    )
    submit.add_argument(
        "--url",
        default=None,
        help=(
            "service base URL (default: $REPRO_SERVE_URL, "
            "falling back to http://127.0.0.1:8765)"
        ),
    )
    submit.add_argument(
        "--token", default=None, help="bearer token for a --token-protected service"
    )
    submit.add_argument(
        "--preset",
        choices=sweep_module.preset_names(),
        default=None,
        help="submit a named sweep preset",
    )
    submit.add_argument(
        "--boundary-preset",
        choices=sweep_module.boundary_preset_names(),
        default=None,
        help="submit a named boundary-query preset",
    )
    submit.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help=(
            "submit a JSON file: a SweepSpec snapshot, a BoundaryQuery "
            "snapshot, or a shard manifest (its embedded spec is submitted)"
        ),
    )
    submit.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="override the preset's simulated duration per scenario",
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help="stream the campaign's live trace events (SSE) while waiting",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="return immediately after submission instead of waiting",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=900.0,
        metavar="S",
        help="how long to wait for completion (default: %(default)s)",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the final campaign document as JSON instead of tables",
    )

    obs = sub.add_parser(
        "obs",
        help="inspect campaign telemetry traces (live tail, report, top view)",
        description=(
            "Read the JSONL trace events a campaign wrote under --trace DIR. "
            "'tail' replays the merged event stream as one line per event "
            "(--follow keeps polling for new events, across files appearing "
            "mid-campaign — e.g. shard workers starting up). 'report' "
            "aggregates the stream: per-phase wall-time breakdown with "
            "coverage, cache-hit ratio, slowest scenarios, per-worker "
            "utilisation and queue-wait statistics, exact scenario-latency "
            "quantiles over every process's scenario spans, counter totals, "
            "HTTP route latencies, and the command's CPU seconds and peak "
            "RSS (getrusage, worker slots included). 'top' is the live view: "
            "a refreshing terminal frame of throughput, scenario p95 and "
            "request p50/p95 per route, fed by the same polling the SSE "
            "endpoint uses. 'diff' compares two runs "
            "(two trace directories, or one against the run ledger) and "
            "exits 1 when a regression threshold is breached — wire it into "
            "CI to catch performance regressions."
        ),
    )
    obs.add_argument(
        "action",
        choices=("tail", "report", "top", "diff"),
        help="what to do with the trace",
    )
    obs.add_argument(
        "trace",
        metavar="TRACE",
        help="trace directory (files merged in timestamp order) or one trace-*.jsonl file",
    )
    obs.add_argument(
        "trace_b",
        nargs="?",
        default=None,
        metavar="TRACE_B",
        help="diff: the candidate trace directory (TRACE is the baseline)",
    )
    obs.add_argument(
        "--against-ledger",
        default=None,
        metavar="LEDGER",
        help=(
            "diff: compare TRACE against the most recent other entry in this "
            "run-history ledger instead of a second trace directory"
        ),
    )
    obs.add_argument(
        "--p95-threshold",
        type=float,
        default=20.0,
        metavar="PCT",
        help="diff: flag a scenario-latency p95 increase above PCT%% (default: %(default)s)",
    )
    obs.add_argument(
        "--throughput-threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="diff: flag a throughput drop above PCT%% (default: %(default)s)",
    )
    obs.add_argument(
        "--phase-threshold",
        type=float,
        default=50.0,
        metavar="PCT",
        help="diff: flag a phase wall-time increase above PCT%% (default: %(default)s)",
    )
    obs.add_argument(
        "--follow",
        action="store_true",
        help="tail: keep polling for appended events until interrupted (Ctrl-C)",
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="tail --follow / top refresh interval in seconds (default: %(default)s)",
    )
    obs.add_argument(
        "--slowest",
        type=int,
        default=10,
        metavar="N",
        help="report: how many slowest scenarios to list (default: %(default)s)",
    )
    obs.add_argument(
        "--json", action="store_true", help="report: emit the report document as JSON"
    )
    obs.add_argument(
        "--once",
        action="store_true",
        help="top: print a single frame and exit (no screen clearing)",
    )

    return parser


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The campaign-shaping flags shared by ``sweep`` and ``shard``."""
    parser.add_argument(
        "--preset",
        choices=sweep_module.preset_names(),
        default=None,
        help="run a built-in campaign preset instead of composing a grid from flags",
    )
    parser.add_argument(
        "--supply",
        choices=sweep_module.SUPPLIES.names(),
        default="pv-array",
        help="supply component kind driving every scenario (default: %(default)s)",
    )
    parser.add_argument(
        "--supply-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set one supply parameter, e.g. power_w=2.5 or profile=fig11 (repeatable)",
    )
    parser.add_argument(
        "--governors",
        default="power-neutral,powersave,ondemand,conservative",
        help="comma-separated governor names, or 'all' (default: %(default)s)",
    )
    parser.add_argument(
        "--weather",
        default="full_sun,partial_sun,cloud",
        help="comma-separated weather presets (pv-array supply only; default: %(default)s)",
    )
    parser.add_argument(
        "--capacitance-mf",
        default="15.4,47",
        help="comma-separated buffer capacitances in mF (default: %(default)s)",
    )
    parser.add_argument(
        "--seeds",
        default="7",
        help="comma-separated irradiance seeds (pv-array supply only; default: %(default)s)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds per scenario (default: 60, or the preset's own default)",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(sweep_module.WORKLOADS),
        default="table2-render",
        help="work-unit model for throughput metrics",
    )
    parser.add_argument(
        "--shadow",
        action="append",
        default=[],
        metavar="START:DURATION:ATTENUATION",
        help="add a deterministic shadowing event to every scenario (pv-array only; repeatable)",
    )


def _add_export_flags(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--export",
        choices=("csv", "json"),
        default=None,
        help=f"also write the {what} to a file ({{csv,json}})",
    )
    parser.add_argument(
        "--export-path",
        default=None,
        metavar="FILE",
        help="export destination (default: <store>.summary.<format>)",
    )


def _command_run(args: argparse.Namespace) -> int:
    governor = sweep_module.build_governor(args.governor)
    result = run_pv_experiment(
        governor,
        duration_s=args.duration,
        weather=WeatherCondition(args.weather),
        seed=args.seed,
        capacitance_f=args.capacitance_mf * 1e-3,
    )
    print(format_kv(result.summary(), title=f"Run summary ({args.governor})"))
    print()
    print(format_series("V_C", result.times, result.supply_voltage, units="V"))
    print(format_series("consumed power", result.times, result.consumed_power, units="W"))
    return 0


def _command_table2(args: argparse.Namespace) -> int:
    spec = sweep_module.build_preset(
        "table2-shootout", duration_s=args.duration, seeds=[args.seed]
    )
    # Inline and serial, into a throwaway store: the campaign engine is the
    # one Table II path, and this command leaves no file behind.
    with tempfile.TemporaryDirectory() as tmp:
        store = sweep_module.ResultStore(Path(tmp) / "table2.jsonl")
        report = sweep_module.SweepRunner(store, workers=1).run(spec)
    rows = sweep_module.table2_rows(report.ok_records())
    print(format_table(rows, title=f"Table II ({args.duration:.0f} s test)"))
    by_scheme = {row["scheme"]: row["instructions_billions"] for row in rows}
    proposed = by_scheme.get("Proposed Approach")
    powersave = by_scheme.get("Linux Powersave")
    if proposed is not None and powersave:
        paper = evaluation.TABLE2_PAPER_REFERENCE["improvement_vs_powersave"]
        print(
            f"\nInstructions vs Linux Powersave: "
            f"{100.0 * (proposed / powersave - 1.0):.1f}% more "
            f"(paper: +{100.0 * paper:.1f}%)"
        )
    _print_failures(report.records)
    return 0 if report.succeeded else 1


def _command_figure(args: argparse.Namespace) -> int:
    function = FIGURE_FUNCTIONS[args.name]
    accepted = set(inspect.signature(function).parameters)
    kwargs = {}
    for flag, parameter in (("seed", "seed"), ("duration", "duration_s")):
        value = getattr(args, flag)
        if value is None:
            continue
        if parameter in accepted:
            kwargs[parameter] = value
        else:
            print(f"note: {args.name} does not take --{flag}; ignoring", file=sys.stderr)
    data = function(**kwargs)
    for key, value in data.items():
        if key.startswith("_"):
            continue
        if key.endswith("rows") and isinstance(value, list):
            print(format_table(value, title=key))
            print()
        elif isinstance(value, dict) and "times" not in value:
            print(format_kv(value, title=key))
            print()
        elif not isinstance(value, (list, dict)):
            print(f"{key}: {value}")
    return 0


def _parse_csv(text: str, convert: Callable = str) -> list:
    try:
        values = [convert(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"bad list option {text!r}; expected comma-separated {convert.__name__} values"
        ) from None
    if not values:
        raise SystemExit(f"empty list option: {text!r}")
    return values


def _parse_shadow(text: str) -> "sweep_module.ShadowSpec":
    try:
        start, duration, attenuation = (float(p) for p in text.split(":"))
    except ValueError:
        raise SystemExit(
            f"bad --shadow {text!r}; expected START:DURATION:ATTENUATION, e.g. 20:10:0.2"
        ) from None
    return sweep_module.ShadowSpec(start_s=start, duration_s=duration, attenuation=attenuation)


def _parse_param_value(text: str):
    """KEY=VALUE values: booleans, numbers, or strings."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return float(text)
    except ValueError:
        return text.strip()


def _parse_params(pairs: list[str], flag: str) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise SystemExit(f"bad {flag} {pair!r}; expected KEY=VALUE, e.g. power_w=2.5")
        params[key.strip()] = _parse_param_value(value)
    return params


#: The grid-shaping sweep flags whose "explicitly passed vs left at default"
#: status matters (for --preset conflicts and for not clobbering
#: --supply-param values with built-in default grids).
_SWEEP_GRID_FLAGS: tuple[str, ...] = (
    "governors",
    "weather",
    "capacitance_mf",
    "seeds",
    "workload",
    "supply",
    "supply_param",
    "shadow",
)


@functools.lru_cache(maxsize=1)
def _sweep_grid_flag_defaults() -> dict:
    """The parser's own defaults for the grid-shaping flags.

    Derived by parsing a bare ``sweep`` invocation so this never drifts from
    :func:`build_parser` (the single source of truth for defaults).
    """
    defaults = build_parser().parse_args(["sweep"])
    return {name: getattr(defaults, name) for name in _SWEEP_GRID_FLAGS}


def _explicit_grid_flags(args: argparse.Namespace) -> list[str]:
    """The grid-shaping flags the user actually set (differ from defaults)."""
    return [
        "--" + name.replace("_", "-")
        for name, default in _sweep_grid_flag_defaults().items()
        if getattr(args, name) != default
    ]


def _build_sweep_spec(args: argparse.Namespace) -> "sweep_module.SweepSpec":
    """Turn the sweep flags (or a preset name) into a SweepSpec."""
    if args.preset is not None:
        conflicting = _explicit_grid_flags(args)
        if conflicting:
            raise SystemExit(
                f"--preset {args.preset} composes its own grid; "
                f"drop the conflicting flag(s): {', '.join(conflicting)}"
            )
        try:
            return sweep_module.build_preset(args.preset, duration_s=args.duration)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

    if args.governors.strip().lower() == "all":
        governors = sweep_module.GOVERNORS.names()
    else:
        governors = _parse_csv(args.governors)
    for name in governors:
        if name not in sweep_module.GOVERNORS:
            raise SystemExit(
                f"unknown governor {name!r}; known: {', '.join(sweep_module.GOVERNORS.names())}"
            )

    supply = sweep_module.ComponentSpec(
        kind=args.supply, params=_parse_params(args.supply_param, "--supply-param")
    )
    pv = supply.kind == "pv-array"
    weather_explicit = args.weather != _sweep_grid_flag_defaults()["weather"]
    seeds_explicit = args.seeds != _sweep_grid_flag_defaults()["seeds"]

    if not pv:
        # Weather/seed/shadowing are pv-array dimensions; reject them loudly
        # instead of silently running a different campaign.
        for flag, explicit in (("--weather", weather_explicit), ("--seeds", seeds_explicit)):
            if explicit:
                raise SystemExit(
                    f"{flag} only applies to the pv-array supply (got {supply.kind!r})"
                )
        if args.shadow:
            raise SystemExit(f"--shadow only applies to the pv-array supply (got {supply.kind!r})")
        weather = None
        seeds = None
    else:
        weather = _parse_csv(args.weather)
        for name in weather:
            try:
                WeatherCondition(name)
            except ValueError:
                raise SystemExit(
                    f"unknown weather {name!r}; known: {', '.join(w.value for w in WeatherCondition)}"
                ) from None
        seeds = _parse_csv(args.seeds, int)
        # A condition pinned via --supply-param stays authoritative unless
        # the corresponding axis flag was passed explicitly.
        if supply.get("weather") is not None and not weather_explicit:
            weather = None
        if supply.get("seed") is not None and not seeds_explicit:
            seeds = None

    try:
        return sweep_module.SweepSpec.grid(
            governors=governors,
            weather=weather,
            capacitances_f=[1e-3 * c for c in _parse_csv(args.capacitance_mf, float)],
            seeds=seeds,
            duration_s=args.duration if args.duration is not None else 60.0,
            workload=args.workload,
            shadowing=[_parse_shadow(s) for s in args.shadow],
            supply=supply,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _export_rows(args: argparse.Namespace, rows: list[dict], payload=None) -> None:
    """Write the summary rows to --export-path as CSV or JSON (if requested).

    ``payload`` overrides the JSON document (e.g. a full boundary report);
    CSV always writes the flat rows.
    """
    if args.export is None:
        return
    destination = Path(
        args.export_path
        if args.export_path is not None
        else str(Path(args.store)) + f".summary.{args.export}"
    )
    if args.export == "csv":
        text = sweep_module.rows_to_csv(rows)
    else:
        text = json.dumps(payload if payload is not None else rows, indent=2, default=str) + "\n"
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(text, encoding="utf-8")
    print(f"exported {len(rows)} row(s) to {destination}")


def _run_campaign(
    args: argparse.Namespace,
    body: Callable,
    kind: str,
    campaign: str,
    engine: str,
    progress=None,
    worker: str = "main",
):
    """The execution sweep, shard and boundary share; returns ``body(runner)``.

    Opens the store (:func:`_open_store`) with telemetry enabled iff
    ``--trace DIR`` was passed, builds the :class:`SweepRunner` from the run
    flags and calls ``body``; with --profile, under cProfile: the binary
    profile lands in ``<trace>/profile.prof`` (or ``<store>.prof``) and the
    15 hottest functions are printed.  A traced run then emits one
    ``command.run`` span carrying the process's ``getrusage`` totals since
    exec (worker slots included), closes the tracer and appends a
    :class:`RunSummary` to the performance-history ledger (``--ledger``,
    default ``<store>.ledger.jsonl``) for ``obs diff``.
    """
    started = time.perf_counter()
    telemetry = (
        Telemetry.create(args.trace, worker=worker, campaign=campaign) if args.trace else DISABLED
    )
    store = _open_store(args, telemetry)
    runner = sweep_module.SweepRunner(
        store,
        workers=args.workers,
        timeout_s=args.timeout,
        series_samples=getattr(args, "series", 0),
        progress=progress,
        fast=engine == "fast",
        telemetry=telemetry,
    )
    if not args.profile:
        result = body(runner)
    else:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(body, runner)
        destination = (
            Path(args.trace) / "profile.prof" if args.trace else Path(str(store.path) + ".prof")
        )
        destination.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(destination)
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(15)
        print(f"profile written to {destination}")
        print(stream.getvalue())

    if telemetry.trace_dir is None:
        return result
    cpu_s, peak_rss = rusage_totals()
    telemetry.tracer.span_event(
        "command.run",
        time.perf_counter() - started,
        cpu_s=round(cpu_s, 6),
        max_rss_bytes=peak_rss,
    )
    telemetry.close()
    print(
        f"telemetry: trace in {telemetry.trace_dir}/ (obs report {telemetry.trace_dir})"
    )
    if args.ledger == "none":
        return result
    ledger_file = Path(args.ledger) if args.ledger else ledger_path(store.path)
    try:
        summary = summarize_run(
            telemetry.trace_dir, kind=kind, campaign=campaign, engine=engine
        )
        RunLedger(ledger_file).append(summary)
    except (OSError, FileNotFoundError, ValueError) as exc:
        print(f"ledger: skipped ({exc})", file=sys.stderr)
        return result
    print(f"ledger: appended run summary to {ledger_file} (compare with 'obs diff')")
    return result


def _mode(args: argparse.Namespace) -> str:
    """How a campaign command runs its scenarios, for its header line."""
    mode = f"{args.workers} worker processes" if args.workers > 1 else "inline"
    mode += f", {args.timeout:g} s per scenario"
    return mode + (", exact engine" if args.exact else "")


def _print_failures(records: list[dict]) -> None:
    """One ``FAILED`` line on stderr per record that did not succeed."""
    for record in records:
        if record.get("status") not in (None, "ok"):
            governor = record.get("config", {}).get("governor")
            if isinstance(governor, dict):
                governor = governor.get("kind")
            print(
                f"FAILED {record.get('scenario_id')} ({governor}): {record.get('error')}",
                file=sys.stderr,
            )


def _open_store(args: argparse.Namespace, telemetry: Telemetry) -> "sweep_module.ResultStore":
    """Open the campaign store honouring --fresh, with resume/legacy notes.

    The store file is created even when the run will append nothing: a
    content-addressed shard may be left with no scenarios, and the merge
    step expects one store per shard.
    """
    store_path = Path(args.store)
    if store_path.exists() and args.fresh:
        store_path.unlink()
        # The inventory sidecar is derived from the file just deleted; drop it
        # (and its compaction baseline) with the store.
        sweep_module.sqlite_index_path(store_path).unlink(missing_ok=True)
        print(f"starting fresh campaign (deleted existing {store_path})")
    store = sweep_module.ResultStore(store_path, telemetry=telemetry)
    if len(store):
        print(
            f"resuming: {len(store)} record(s) already in {store_path} "
            "(pass --fresh to recompute everything)"
        )
    if store.legacy_count:
        versions = ", ".join(
            f"v{v}: {n}"
            for v, n in store.version_counts().items()
            if v < sweep_module.SCHEMA_VERSION
        )
        print(
            f"note: {store.legacy_count} record(s) use an older config schema "
            f"({versions}); they are kept but will not cache-hit new-schema scenarios"
        )
    store_path.parent.mkdir(parents=True, exist_ok=True)
    store_path.touch(exist_ok=True)
    return store


def _command_sweep(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)

    if args.fresh and args.resume:
        raise SystemExit("--fresh and --resume are mutually exclusive")
    title = f"preset {args.preset!r}" if args.preset else "sweep"
    print(f"{title}: {len(spec)} scenarios over {_mode(args)} -> {args.store}")
    report = _run_campaign(
        args,
        lambda runner: runner.run(spec),
        kind="sweep",
        campaign=spec.campaign_hash(),
        engine="exact" if args.exact else "fast",
        progress=ProgressRenderer(quiet=args.quiet).scenario,
    )

    print()
    print(format_kv(report.summary(), title="Campaign"))
    tables = sweep_module.campaign_tables(report.records, [axis.name for axis in spec.axes])
    ok_records = report.ok_records()
    if ok_records:
        print()
        print(format_kv(tables["overview"], title="Totals"))
        for axis in spec.axes:
            print()
            print(
                format_table(
                    tables["axes"][axis.name],
                    title=f"By {axis.name} (mean/p50/p95 across the other axes)",
                )
            )
        if any(sweep_module.resolve_axis_path(axis.name) == "governor" for axis in spec.axes):
            print()
            print(format_table(sweep_module.table2_rows(ok_records), title="Table II view"))
    _export_rows(args, tables["rows"])
    _print_failures(report.records)
    return 0 if report.succeeded else 1


def _validate_boundary_axis_names(governors, weather) -> None:
    """Reject unknown governor/weather names before any simulation starts."""
    for name in governors or ():
        if name not in sweep_module.GOVERNORS:
            raise SystemExit(
                f"unknown governor {name!r}; known: {', '.join(sweep_module.GOVERNORS.names())}"
            )
    for name in weather or ():
        try:
            WeatherCondition(name)
        except ValueError:
            raise SystemExit(
                f"unknown weather {name!r}; known: {', '.join(w.value for w in WeatherCondition)}"
            ) from None


def _build_boundary_query(args: argparse.Namespace) -> "sweep_module.BoundaryQuery":
    """Turn the boundary flags (or a preset name) into a BoundaryQuery."""
    governors = _parse_csv(args.governors) if args.governors is not None else None
    weather = _parse_csv(args.weather) if args.weather is not None else None
    _validate_boundary_axis_names(governors, weather)
    if args.preset is not None:
        for flag in ("path", "lo", "hi", "supply"):
            if getattr(args, flag) is not None:
                raise SystemExit(
                    f"--preset {args.preset} defines its own search; drop --{flag}"
                )
        if args.supply_param:
            raise SystemExit(f"--preset {args.preset} defines its own rig; drop --supply-param")
        try:
            query = sweep_module.build_boundary_preset(
                args.preset,
                duration_s=args.duration,
                rel_tol=args.rel_tol,
                weather=weather,
                governors=governors,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        # The remaining search knobs apply uniformly to any query.
        overrides = {
            name: value
            for name, value in (
                ("abs_tol", args.abs_tol),
                ("max_probes", args.max_probes),
                ("scale", args.scale),
            )
            if value is not None
        }
        if args.predicate != "survived":
            overrides["predicate"] = args.predicate
        if args.decreasing:
            overrides["increasing"] = False
        if overrides:
            query = dataclasses.replace(query, **overrides)
        return query

    missing = [flag for flag in ("path", "lo", "hi") if getattr(args, flag) is None]
    if missing:
        raise SystemExit(
            "a custom boundary query needs " + ", ".join(f"--{m}" for m in missing) + " "
            f"(or use --preset {{{','.join(sweep_module.boundary_preset_names())}}})"
        )
    if governors is None:
        governors = ["power-neutral"]
    supply = sweep_module.ComponentSpec(
        kind=args.supply if args.supply is not None else "pv-array",
        params=_parse_params(args.supply_param, "--supply-param"),
    )
    if weather is not None and supply.kind != "pv-array":
        raise SystemExit(f"--weather only applies to the pv-array supply (got {supply.kind!r})")
    axes: list[sweep_module.Axis] = []
    if len(governors) > 1:
        axes.append(sweep_module.Axis("governor", governors))
    if weather is not None and len(weather) > 1:
        axes.append(sweep_module.Axis("supply.weather", weather))
    try:
        base = sweep_module.ScenarioConfig(
            governor=governors[0],
            supply=supply,
            weather=weather[0] if weather else None,
            duration_s=args.duration if args.duration is not None else 60.0,
        )
        return sweep_module.BoundaryQuery(
            base=base,
            path=args.path,
            lo=args.lo,
            hi=args.hi,
            outer_axes=tuple(axes),
            predicate=args.predicate,
            increasing=not args.decreasing,
            rel_tol=args.rel_tol if args.rel_tol is not None else 0.05,
            abs_tol=args.abs_tol if args.abs_tol is not None else 0.0,
            scale=args.scale if args.scale is not None else "linear",
            max_probes=args.max_probes if args.max_probes is not None else 48,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _command_boundary(args: argparse.Namespace) -> int:
    query = _build_boundary_query(args)
    title = f"preset {args.preset!r}" if args.preset else f"search on {query.path!r}"
    print(
        f"boundary {title}: {len(query.cells())} cell(s), predicate "
        f"{query.predicate_name!r}, bracket [{query.lo:g}, {query.hi:g}] over {_mode(args)} "
        f"-> {args.store}"
    )
    renderer = ProgressRenderer(quiet=args.quiet)
    report = _run_campaign(
        args,
        lambda runner: sweep_module.BoundarySearch(
            query, runner, progress=renderer.round, telemetry=runner.telemetry
        ).run(),
        kind="boundary",
        campaign=query.query_hash(),
        engine="exact" if args.exact else "fast",
    )

    print()
    print(format_kv(report.summary(), title="Boundary search"))
    print()
    print(
        format_table(
            report.rows(),
            title=f"Critical {query.path} per cell (predicate: {report.predicate})",
        )
    )
    _export_rows(args, report.rows(), payload=report.to_dict())
    for cell in report.cells:
        if cell.status != "converged":
            where = ", ".join(f"{k}={v}" for k, v in cell.outer.items()) or "(single cell)"
            print(f"NOT CONVERGED [{where}]: {cell.status} — {cell.detail}", file=sys.stderr)
    return 0 if report.converged else 1


def _load_spec_file(
    path: str,
) -> "tuple[sweep_module.SweepSpec, sweep_module.ShardPlan | None]":
    """Read a campaign from a JSON file: a SweepSpec snapshot or a manifest.

    Returns ``(spec, plan)`` where ``plan`` is the *verified* source plan
    when the file is a shard manifest (``None`` for a plain spec snapshot).
    The caller must honour the plan's stamped engine — a worker pointed at
    an exact-engine manifest must not quietly contribute fast-engine records
    — and can re-slice it with :meth:`ShardPlan.with_geometry`, reusing the
    expansion the verification already paid for.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"unreadable --spec file {path}: {exc}") from None
    try:
        if isinstance(data, dict) and "spec" in data and "campaign_hash" in data:
            plan = sweep_module.ShardPlan.from_manifest(data)
            return plan.spec, plan
        return sweep_module.SweepSpec.from_dict(data), None
    except (ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"invalid --spec file {path}: {exc}") from None


def _command_shard(args: argparse.Namespace) -> int:
    if args.num_shards < 1:
        raise SystemExit("--num-shards must be at least 1")
    if not 0 <= args.shard_index < args.num_shards:
        raise SystemExit(
            f"--shard-index must be in [0, {args.num_shards}) (got {args.shard_index})"
        )
    source_plan = None
    if args.spec is not None:
        conflicting = _explicit_grid_flags(args)
        if args.preset is not None:
            conflicting.insert(0, "--preset")
        if conflicting:
            raise SystemExit(
                f"--spec carries the whole campaign; "
                f"drop the conflicting flag(s): {', '.join(conflicting)}"
            )
        spec, source_plan = _load_spec_file(args.spec)
        if args.duration is not None:
            raise SystemExit("--spec carries the whole campaign; drop --duration")
    else:
        spec = _build_sweep_spec(args)

    engine = "exact" if args.exact else "fast"
    if source_plan is not None and source_plan.engine != engine:
        if args.exact:
            # The user explicitly demanded the opposite of the manifest:
            # refuse rather than fracture the campaign across engines.
            raise SystemExit(
                f"--spec manifest stamps the {source_plan.engine!r} engine but "
                f"--exact was passed; all shards of a campaign must agree on "
                f"the engine"
            )
        engine = source_plan.engine
        print(f"adopting the {engine!r} engine stamped in {args.spec}")
    if source_plan is not None:
        # Re-slice the verified plan: the manifest check already paid for
        # the campaign expansion, so this worker's geometry costs nothing.
        plan = source_plan.with_geometry(args.num_shards, args.shard_index, engine)
    else:
        plan = sweep_module.ShardPlan.partition(
            spec, args.num_shards, args.shard_index, engine=engine
        )
    args.store = str(args.store if args.store else f"shard-{args.shard_index}.jsonl")
    manifest_path = Path(
        args.manifest if args.manifest else args.store + ".manifest.json"
    )
    if args.fresh and manifest_path.exists():
        manifest_path.unlink()
    if manifest_path.exists():
        # Compare the stamped identity fields only — the snapshot behind
        # them is irrelevant here (this invocation runs `plan` either way),
        # and skipping its re-expansion keeps resuming a 100k-cell shard at
        # one expansion total.
        try:
            stamped = json.loads(manifest_path.read_text(encoding="utf-8"))
            if not isinstance(stamped, dict):
                raise ValueError("not a JSON object")
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise SystemExit(f"corrupt shard manifest {manifest_path}: {exc}") from None
        matches = (
            stamped.get("campaign_hash") == plan.campaign_hash
            and stamped.get("n_shards") == plan.n_shards
            and stamped.get("shard_index") == plan.shard_index
            and stamped.get("engine", "fast") == plan.engine
        )
        if not matches:
            raise SystemExit(
                f"store {args.store} belongs to campaign "
                f"{stamped.get('campaign_hash')} shard "
                f"{stamped.get('shard_index', 0) + 1}/{stamped.get('n_shards', 0)} "
                f"({stamped.get('engine', 'fast')} engine) but this invocation is "
                f"campaign {plan.campaign_hash} shard "
                f"{plan.shard_index + 1}/{plan.n_shards} ({plan.engine} engine); "
                f"use a different --store or --fresh"
            )
    else:
        plan.write_manifest(manifest_path)

    configs = plan.configs()
    print(
        f"shard {plan.shard_index + 1}/{plan.n_shards} of campaign {plan.campaign_hash}: "
        f"{len(configs)} of {len(spec)} scenario(s), {plan.engine} engine -> {args.store}"
    )

    # Records computed during the run (in this process or in the worker
    # slots it forks, which inherit the environment) carry the shard index
    # in their worker stamp; the caller's environment is restored after.
    previous_shard = os.environ.get(sweep_module.SHARD_INDEX_ENV)
    os.environ[sweep_module.SHARD_INDEX_ENV] = str(plan.shard_index)
    try:
        report = _run_campaign(
            args,
            lambda runner: runner.run(configs),
            kind="shard",
            campaign=plan.campaign_hash,
            engine=plan.engine,
            progress=ProgressRenderer(quiet=args.quiet).scenario,
            worker=f"shard-{plan.shard_index}",
        )
    finally:
        if previous_shard is None:
            os.environ.pop(sweep_module.SHARD_INDEX_ENV, None)
        else:
            os.environ[sweep_module.SHARD_INDEX_ENV] = previous_shard
    print()
    print(
        format_kv(
            report.summary(), title=f"Shard {plan.shard_index + 1}/{plan.n_shards}"
        )
    )
    _print_failures(report.records)
    return 0 if report.succeeded else 1


def _command_store(args: argparse.Namespace) -> int:
    if args.action == "stats":
        if len(args.paths) > 1:
            raise SystemExit("store stats takes at most one store path")
        store_path = Path(args.paths[0]) if args.paths else Path(args.store)
        if not store_path.exists():
            raise SystemExit(f"no store at {store_path}")
        stats = sweep_module.store_stats(store_path)
        flat: dict = {}
        for key, value in stats.items():
            if key == "by_status":
                flat.update({f"status_{k}": v for k, v in value.items()})
            elif key == "by_schema_version":
                flat.update({f"schema_v{k}": v for k, v in value.items()})
            elif key in ("path", "exists"):
                continue
            else:
                flat[key] = value
        print(format_kv(flat, title=f"Store {store_path}"))
        return 0
    if args.action == "merge":
        if len(args.paths) < 2:
            raise SystemExit("store merge needs DEST SRC [SRC ...]")
        dest, *sources = args.paths
        try:
            stats = sweep_module.merge_stores(dest, sources)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        print(format_kv(stats, title=f"Merged {len(sources)} store(s) into {dest}"))
        return 0
    if args.paths:
        raise SystemExit("store compact takes no positional paths; use --store")
    store_path = Path(args.store)
    if not store_path.exists():
        raise SystemExit(f"no store at {store_path}")
    store = sweep_module.ResultStore(store_path)
    stats = store.compact()
    print(format_kv(stats, title=f"Compacted {store_path}"))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve import run_service

    return run_service(
        store_path=args.store,
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        timeout_s=args.timeout,
        series_samples=args.series,
        fast=not args.exact,
        token=args.token,
        quiet=args.quiet,
        trace_dir=args.trace,
        watchdog_s=args.watchdog,
    )


def _command_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeConfig, ServeError

    chosen = [name for name in ("preset", "boundary_preset", "spec") if getattr(args, name)]
    if len(chosen) != 1:
        raise SystemExit("submit needs exactly one of --preset, --boundary-preset, --spec")
    if args.preset:
        payload: dict = {
            "kind": "sweep",
            "spec": sweep_module.build_preset(args.preset, duration_s=args.duration).to_dict(),
        }
    elif args.boundary_preset:
        try:
            query = sweep_module.build_boundary_preset(
                args.boundary_preset, duration_s=args.duration
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        payload = {"kind": "boundary", "spec": query.to_dict()}
    else:
        if args.duration is not None:
            raise SystemExit("--duration only applies to presets")
        try:
            data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"unreadable --spec file {args.spec}: {exc}") from None
        if isinstance(data, dict) and "spec" in data and "campaign_hash" in data:
            data = data["spec"]  # shard manifest: submit its embedded spec
        payload = data  # the service infers sweep vs boundary

    base_url = args.url or os.environ.get("REPRO_SERVE_URL") or "http://127.0.0.1:8765"
    client = ServeClient(ServeConfig(base_url=base_url, api_token=args.token))
    try:
        submission = client.submit(payload)
    except ServeError as exc:
        raise SystemExit(str(exc)) from None
    campaign_id = submission["id"]
    if submission.get("created"):
        print(f"campaign {campaign_id}: accepted")
    else:
        state = submission.get("campaign", {}).get("state", "?")
        print(f"campaign {campaign_id}: cache hit (already {state}, 0 new simulations)")
    if args.no_wait:
        if args.json:
            print(json.dumps(submission, indent=2, default=str))
        return 0

    try:
        if args.watch:
            t0: float | None = None
            for event in client.events(campaign_id, timeout_s=args.timeout):
                if event["event"] == "end":
                    break
                data = event["data"]
                if isinstance(data, dict) and "t" in data:
                    if t0 is None:
                        t0 = float(data["t"])
                    print(format_event(data, t0))
            doc = client.campaign(campaign_id)
        else:
            doc = client.wait(campaign_id, timeout_s=args.timeout)
    except (ServeError, TimeoutError) as exc:
        raise SystemExit(str(exc)) from None

    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    else:
        result = doc.get("result") or {}
        scalars = {
            k: v for k, v in result.items() if not isinstance(v, (list, dict))
        }
        print(format_kv(scalars, title=f"Campaign {campaign_id} ({doc.get('state')})"))
        if doc.get("error"):
            print(f"ERROR: {doc['error']}", file=sys.stderr)
        try:
            aggregate = client.aggregate(campaign_id)
        except ServeError:
            aggregate = None
        if aggregate and aggregate.get("records"):
            print()
            print(format_kv(aggregate["overview"], title="Totals"))
    result = doc.get("result") or {}
    succeeded = doc.get("state") == "done" and bool(result.get("succeeded", True))
    return 0 if succeeded else 1


def _obs_diff(args: argparse.Namespace) -> int:
    """``obs diff``: regression-check one run against another (or the ledger)."""
    if args.trace_b and args.against_ledger:
        print("obs diff takes TRACE_B or --against-ledger, not both", file=sys.stderr)
        return 2
    if not args.trace_b and not args.against_ledger:
        print(
            "obs diff needs a second run: TRACE_B or --against-ledger LEDGER",
            file=sys.stderr,
        )
        return 2
    try:
        if args.against_ledger:
            candidate = summarize_run(args.trace, kind="run")
            entries = RunLedger(args.against_ledger).entries()
            others = [
                e for e in entries if e.trace_dir != candidate.trace_dir
            ] or entries
            if not others:
                print(f"no runs recorded in {args.against_ledger}", file=sys.stderr)
                return 2
            baseline = others[-1]
        else:
            baseline = summarize_run(args.trace, kind="run")
            candidate = summarize_run(args.trace_b, kind="run")
    except FileNotFoundError as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    thresholds = DiffThresholds(
        p95_pct=args.p95_threshold,
        throughput_pct=args.throughput_threshold,
        phase_pct=args.phase_threshold,
    )
    doc = diff_summaries(baseline, candidate, thresholds=thresholds)
    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    else:
        print(format_diff(doc))
    return 0 if doc["ok"] else 1


def _command_obs(args: argparse.Namespace) -> int:
    if args.action == "diff":
        return _obs_diff(args)
    if args.action == "top":
        if args.interval <= 0:
            raise SystemExit("--interval must be positive")
        if not Path(args.trace).exists():
            raise SystemExit(f"no trace at {args.trace}")
        return run_top(args.trace, interval_s=args.interval, once=args.once)
    if args.action == "report":
        try:
            events = load_events(args.trace)
        except FileNotFoundError as exc:
            print(f"obs report: {exc}", file=sys.stderr)
            return 2
        report = build_report(events, slowest=args.slowest)
        if args.json:
            print(json.dumps(report, indent=2, default=str))
        else:
            print(format_report(report, title=f"Telemetry: {args.trace}"))
        return 0

    # tail: replay what exists (and keep following with --follow)
    if args.interval <= 0:
        raise SystemExit("--interval must be positive")
    t0: float | None = None
    try:
        # Without --follow, stop after the first empty poll (pure replay).
        stream = follow_trace(
            args.trace, poll_s=args.interval, max_polls=None if args.follow else 1
        )
        for event in stream:
            if t0 is None:
                t0 = float(event.get("t", 0.0))
            print(format_event(event, t0))
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        pass
    if t0 is None:
        print(f"no events in {args.trace}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point used by the ``repro-pns`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "table2":
        return _command_table2(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "shard":
        return _command_shard(args)
    if args.command == "boundary":
        return _command_boundary(args)
    if args.command == "store":
        return _command_store(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "obs":
        return _command_obs(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
