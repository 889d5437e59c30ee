"""One cold sweep repetition, in a fresh interpreter.

Run by ``run.py`` once per repetition so nothing a process could cache
(imports aside) survives from one cold campaign to the next::

    python3 perfbench/sweep_rep.py --workload sweep-pv-cold --work DIR [--trace]

It expands the workload's preset, runs it through ``SweepRunner`` with the
CLI defaults into an empty store under ``DIR``, then does what a user does
next with that store: resubmits the campaign (every scenario cached), reads
filtered and paged records, and aggregates them.  It prints one JSON line
with the timings, the records' summaries (checked by ``run.py``) and the
follow-up results.  With ``--trace`` the layer wrappers of ``layers.py``
are installed before the pool forks and the runner writes its own trace.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import TIMEOUT_S, WORKERS, cpu_seconds, use_sources

#: The two sweep workloads: (preset, simulated duration override).
PRESETS = {
    "sweep-pv-cold": ("table2-pv", None),
    "sweep-cp-long": ("constant-power-survival", 600.0),
}
#: The smallest size of each sweep, for the benchmark's self-test.
SMOKE_DURATION_S = {"sweep-pv-cold": 5.0, "sweep-cp-long": 20.0}

#: Follow-up cycles per repetition, each one resubmission, one pass over
#: the read plan and one aggregation.  Sized so the follow-ups take about as
#: long as the cold campaign (some 2.5 s): machine speed drifts over seconds,
#: and a short burst would sample it at a single instant per repetition.  A
#: fixed count, so traced repetitions repeat their work counters exactly.
CYCLES = {"sweep-pv-cold": 180, "sweep-cp-long": 250}
PAGE = 10


def build_spec(workload: str, smoke: bool):
    from repro.sweep import build_preset

    preset, duration = PRESETS[workload]
    if smoke:
        duration = SMOKE_DURATION_S[workload]
    return build_preset(preset, duration_s=duration)


def read_plan(configs) -> list[tuple[dict, int]]:
    """Filtered and paged queries over the campaign, with expected row counts."""
    governors = sorted({c.governor.kind for c in configs})
    plan: list[tuple[dict, int]] = []
    for governor in governors:
        n = sum(1 for c in configs if c.governor.kind == governor)
        plan.append(({"governor": governor}, n))
    for offset in range(0, len(configs), PAGE):
        plan.append(
            ({"status": "ok", "limit": PAGE, "offset": offset}, min(PAGE, len(configs) - offset))
        )
    return plan


def follow_ups(spec, store, configs, cycles: int) -> dict:
    """Resubmit, read back and aggregate the campaign just computed."""
    from repro.sweep import SweepRunner
    from repro.sweep.aggregate import axis_summary, campaign_overview, records_table

    errors: list[str] = []
    resubmit_s, read_s, aggregate_s, aggregate_fn_s = [], [], [], []
    plan = read_plan(configs)
    axes = [axis.name for axis in spec.axes]
    for _ in range(cycles):
        t0 = time.perf_counter()
        report = SweepRunner(store, workers=WORKERS, timeout_s=TIMEOUT_S).run(spec)
        resubmit_s.append(time.perf_counter() - t0)
        if report.executed != 0 or report.cached != len(configs):
            errors.append(f"resubmission executed {report.executed}, cached {report.cached}")

        for query, expected in plan:
            t0 = time.perf_counter()
            rows = store.query(**query)
            read_s.append(time.perf_counter() - t0)
            if len(rows) != expected:
                errors.append(f"query {query} returned {len(rows)} rows, expected {expected}")

        t0 = time.perf_counter()
        ok = store.query(status="ok")
        t1 = time.perf_counter()
        campaign_overview(ok)
        table = records_table(ok)
        for axis in axes:
            axis_summary(ok, axis)
        t2 = time.perf_counter()
        aggregate_s.append(t2 - t0)
        aggregate_fn_s.append(t2 - t1)
        if len(table) != len(configs):
            errors.append(f"aggregate has {len(table)} rows, expected {len(configs)}")
    return {
        "resubmit_s": resubmit_s,
        "read_s": read_s,
        "aggregate_s": aggregate_s,
        "aggregate_fn_s": aggregate_fn_s,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRESETS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    use_sources()
    from repro.obs.telemetry import Telemetry
    from repro.sweep import ResultStore, SweepRunner
    from repro.sweep.spec import expand_unique

    args.work.mkdir(parents=True, exist_ok=True)
    trace_dir = args.work / "trace"
    telemetry = None
    if args.trace:
        import layers

        layers.install(trace_dir)
        telemetry = Telemetry.create(trace_dir, worker="bench")
    spec = build_spec(args.workload, args.smoke)
    store = ResultStore(args.work / "store.jsonl")
    runner = SweepRunner(store, workers=WORKERS, timeout_s=TIMEOUT_S, telemetry=telemetry)

    run_wall = time.time()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    report = runner.run(spec)
    run_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    if telemetry is not None:
        telemetry.close()

    configs = expand_unique(spec)
    result = {
        # run.py subtracts its spawn instant: interpreter start-up,
        # imports and campaign construction are the repetition's set-up.
        "run_wall": run_wall,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "total": report.total,
        "executed": report.executed,
        "failed": report.failed + report.timed_out,
        "records": {
            r["scenario_id"]: {
                "status": r.get("status"),
                "summary": r.get("summary", {}),
                "elapsed_s": r.get("elapsed_s", 0.0),
                "queue_wait_s": (r.get("timings") or {}).get("queue_wait_s", 0.0),
                "label": next(
                    (c.label() for c in configs if c.scenario_id == r["scenario_id"]), ""
                ),
            }
            for r in report.records
        },
        "followups": follow_ups(spec, store, configs, 2 if args.smoke else CYCLES[args.workload]),
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
