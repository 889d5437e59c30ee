"""Layered campaign benchmark: cold PV sweep, long constant-power sweep, serve traffic.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-pv-cold --seed 1 --seconds 35 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``sweep-pv-cold`` — the ``table2-pv`` preset run cold through
  ``SweepRunner`` (2 workers, 600 s timeout: the CLI defaults) into an empty
  store, once per fresh interpreter, followed by the resume / read /
  aggregate calls a user makes next on that store;
* ``sweep-cp-long`` — the same for ``constant-power-survival`` at 600 s
  simulated: no I-V table is built, the simulator loop does the work;
* ``serve-mixed`` — ``repro serve`` in a child process over a seeded
  synthetic store, driven by one closed-loop client (``serve_mixed.py``).

The sweep inputs are the presets themselves; ``--seed`` seeds the
``serve-mixed`` store and traffic.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (layer
wrappers from ``layers.py``) next to an untraced one.  Every output is
checked (``reference/`` holds the expected sweep summaries); the last line
of standard output is one JSON object, and the exit code is non-zero when
any check failed.  ``--smoke`` runs each workload at its smallest size.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    WORKERS,
    BenchError,
    child_env,
    median,
    midmean,
    p95,
    peak_rss_mb,
    require_sources,
)

#: End-to-end metrics: every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scenarios_per_s": "1/s",
    "cpu_s_per_scenario": "s",
    "fresh_campaign_p50_s": "s",
    "cached_submit_p50_ms": "ms",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "aggregate_p50_ms": "ms",
    "requests_per_s": "1/s",
}

#: Per-layer metrics of a traced run (0 where a workload skips the layer).
PER_LAYER = {
    "supplies.tables_built": "count",
    "supplies.tabulate_s": "s",
    "supplies.tabulate_share": "ratio",
    "energy.iv_points": "count",
    "sim.loop_s": "s",
    "sim.supply_evals": "count",
    "sim.us_per_eval": "us",
    "sim.governor_invocations": "count",
    "sim.opp_transitions": "count",
    "build.build_s": "s",
    "scenario.elapsed_p50_s": "s",
    "scenario.elapsed_max_s": "s",
    "runner.expand_s": "s",
    "runner.cache_scan_s": "s",
    "runner.execute_s": "s",
    "runner.queue_wait_p50_s": "s",
    "runner.busy_ratio": "ratio",
    "spec.expand_s": "s",
    "spec.hash_s": "s",
    "spec.ids_hashed": "count",
    "store.appends": "count",
    "store.append_p50_ms": "ms",
    "store.open_s": "s",
    "store.query_p50_ms": "ms",
    "store.records_read": "count",
    "sqlindex.rebuilds": "count",
    "sqlindex.tail_refreshes": "count",
    "aggregate.server_ms": "ms",
    "serve.server_p50_ms.campaigns": "ms",
    "serve.server_p50_ms.campaign": "ms",
    "serve.server_p50_ms.records": "ms",
    "serve.server_p50_ms.aggregate": "ms",
    "serve.transport_ms": "ms",
    "scheduler.queue_wait_s": "s",
    "scheduler.run_s": "s",
    "serve.poll_wait_ms": "ms",
    "obs.trace_overhead": "ratio",
}

#: Deterministic work counters: two traced runs of one seed must agree.
WORK_COUNTERS = (
    "supplies.tables_built",
    "energy.iv_points",
    "sim.supply_evals",
    "sim.governor_invocations",
    "sim.opp_transitions",
    "store.appends",
    "spec.ids_hashed",
    "sqlindex.rebuilds",
)

#: Fast-vs-exact parity tolerance of benchmarks/bench_perf_sim.py.
PARITY_REL_TOL = 0.01
PARITY_CONTINUOUS = ("instructions", "harvested_energy_j", "consumed_energy_j")
PARITY_EXACT = ("brownouts", "survived")

#: Fewest repetitions of a sweep per run, whatever ``--seconds`` says.
MIN_REPS = 3
CHILD_TIMEOUT_S = 170.0


class Outcome:
    """Operation accounting and output checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def count_ok(self, n: int) -> None:
        self.attempted += n


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
def run_sweep_rep(workload: str, work: Path, trace: bool, smoke: bool) -> dict:
    """One cold repetition in a fresh interpreter; returns its report."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "sweep_rep.py"), "--workload", workload,
           "--work", str(work)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    spawned = time.time()
    proc = subprocess.run(
        cmd, env=child_env(work), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"sweep repetition failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["run_wall"] - spawned
    rep["wall_s"] = time.time() - spawned
    return rep


def check_sweep_rep(workload: str, rep: dict, outcome: Outcome, smoke: bool) -> None:
    """Every scenario ran and matches the reference summaries; follow-ups agree."""
    records = rep["records"]
    outcome.check(
        rep["executed"] == rep["total"] == len(records) and rep["failed"] == 0,
        f"{workload}: executed {rep['executed']} of {rep['total']}, failed {rep['failed']}",
    )
    reference = None
    if not smoke:
        reference = json.loads((BENCH_DIR / "reference" / f"{workload}.json").read_text())
    if reference is not None:
        outcome.check(
            set(records) == set(reference),
            f"{workload}: scenario ids differ from the reference",
        )
    for scenario_id, record in records.items():
        ok = record["status"] == "ok"
        want = reference.get(scenario_id) if reference is not None else None
        if ok and want is not None:
            got = record["summary"]
            ok = all(
                math.isclose(got[k], want[k], rel_tol=PARITY_REL_TOL) for k in PARITY_CONTINUOUS
            ) and all(got[k] == want[k] for k in PARITY_EXACT)
        outcome.check(ok, f"{workload}: {record['label']} ({scenario_id}) off reference")
    follow = rep["followups"]
    outcome.count_ok(len(follow["resubmit_s"]) + len(follow["read_s"]) + len(follow["aggregate_s"]))
    for error in follow["errors"]:
        outcome.failed += 1
        outcome.errors.append(f"{workload}: {error}")


def sweep_end_to_end(reps: list[dict]) -> dict:
    """End-to-end metrics over a run's repetitions.

    CPU speed on a shared VM switches between two levels every few seconds, so
    one repetition's campaign (some 3 s) and its follow-ups (some 2 s)
    mostly run at one level.  Throughput and CPU are totals over the run;
    the ``p50`` timings are midmeans (``common.midmean``) over every
    repetition or call of the run.
    """
    def midmean_ms(key: str) -> float:
        return 1e3 * midmean(s for rep in reps for s in rep["followups"][key])

    kinds = ("resubmit_s", "read_s", "aggregate_s")
    follow_ops = sum(len(rep["followups"][k]) for rep in reps for k in kinds)
    follow_s = sum(sum(rep["followups"][k]) for rep in reps for k in kinds)
    executed = sum(rep["executed"] for rep in reps)
    return {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": peak_rss_mb(),
        "scenarios_per_s": executed / sum(rep["run_s"] for rep in reps),
        "cpu_s_per_scenario": sum(rep["cpu_s"] for rep in reps) / executed,
        "fresh_campaign_p50_s": midmean(rep["run_s"] for rep in reps),
        "cached_submit_p50_ms": midmean_ms("resubmit_s"),
        "read_p50_ms": midmean_ms("read_s"),
        "read_p95_ms": 1e3 * p95(s for rep in reps for s in rep["followups"]["read_s"]),
        "aggregate_p50_ms": midmean_ms("aggregate_s"),
        "requests_per_s": follow_ops / follow_s,
    }


def sweep_layers(rep: dict, trace_dir: Path) -> dict:
    """Per-layer metrics of one traced repetition."""
    import layers

    total = layers.summarize(trace_dir)
    records = list(rep["records"].values())
    elapsed = [r["elapsed_s"] for r in records]
    executed = rep["executed"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "supplies.tables_built": total["supplies.tables_built"],
            "supplies.tabulate_s": total["supplies.tabulate_s"],
            "supplies.tabulate_share": total["supplies.tabulate_s"] / total["scenario_s"],
            "energy.iv_points": total["energy.iv_points"],
            "sim.loop_s": total["sim.loop_s"],
            "sim.supply_evals": total["sim.supply_evals"],
            "sim.us_per_eval": 1e6 * total["sim.loop_s"] / max(total["sim.supply_evals"], 1),
            "sim.governor_invocations": total["sim.governor_invocations"],
            "sim.opp_transitions": total["sim.opp_transitions"],
            "build.build_s": total["build.build_s"],
            "scenario.elapsed_p50_s": median(elapsed),
            "scenario.elapsed_max_s": max(elapsed),
            "runner.queue_wait_p50_s": median(r["queue_wait_s"] for r in records),
            "runner.busy_ratio": sum(elapsed) / (rep["run_s"] * min(WORKERS, executed)),
            "spec.expand_s": total["spec.expand_s"],
            "spec.hash_s": total["spec.hash_s"],
            "spec.ids_hashed": total["spec.ids_hashed"],
            "store.appends": total["store.appends"],
            "store.append_p50_ms": 1e3 * median(total["store.append_s"]),
            "store.open_s": sum(total["store.open_s"]),
            "store.query_p50_ms": 1e3 * median(total["store.query_s"]),
            "store.records_read": total["store.records_read"],
            "sqlindex.rebuilds": total["sqlindex.rebuilds"],
            "sqlindex.tail_refreshes": total["sqlindex.tail_refreshes"],
            "aggregate.server_ms": 1e3 * median(rep["followups"]["aggregate_fn_s"]),
        }
    )
    metrics.update(layers.runner_phases(trace_dir))
    return metrics


def run_sweep(args, work: Path, outcome: Outcome) -> dict:
    budget_end = time.monotonic() + args.seconds
    reps: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    while True:
        # A traced run alternates untraced and traced repetitions, so the
        # tracing overhead is measured under the same machine conditions.
        trace = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = work / f"rep-{len(reps)}"
        rep = run_sweep_rep(args.workload, rep_dir, trace, args.smoke)
        check_sweep_rep(args.workload, rep, outcome, args.smoke)
        if trace:
            traced.append((rep, sweep_layers(rep, rep_dir / "trace")))
        reps.append(rep)
        shutil.rmtree(rep_dir)
        min_reps = 4 if args.trace else MIN_REPS
        # Start another repetition only while it would end, on average, by
        # the budget: runs last about --seconds whatever the repetition size.
        if len(reps) >= min_reps and time.monotonic() + rep["wall_s"] / 2 > budget_end:
            break
    if not args.trace:
        return sweep_end_to_end(reps)

    layer_runs = [m for _, m in traced]
    first = layer_runs[0]
    for other in layer_runs[1:]:
        for name in WORK_COUNTERS:
            outcome.check(
                other[name] == first[name],
                f"work counter {name} differs between traced repetitions: "
                f"{first[name]} vs {other[name]}",
            )
    metrics = {
        name: first[name] if name in WORK_COUNTERS else median(m[name] for m in layer_runs)
        for name in PER_LAYER
    }
    untraced_s = median(rep["run_s"] for i, rep in enumerate(reps) if i % 2 == 0)
    traced_s = median(rep["run_s"] for rep, _ in traced)
    metrics["obs.trace_overhead"] = traced_s / untraced_s - 1.0
    return metrics


# ----------------------------------------------------------------------
def run_serve(args, work: Path, outcome: Outcome) -> dict:
    import serve_mixed

    return serve_mixed.run(args, work, outcome, PER_LAYER)


WORKLOADS = {
    "sweep-pv-cold": run_sweep,
    "sweep-cp-long": run_sweep,
    "serve-mixed": run_serve,
}


def print_baseline(workload: str) -> None:
    """The parent-commit medians later performance work cites."""
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
    print(f"baseline ({baseline['measured']}): " + ", ".join(
        f"{name}={value:g}" for name, value in baseline[workload].items()
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size (self-test)")
    args = parser.parse_args(argv)

    try:
        require_sources()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Byte-compile up front so no measured interpreter start pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1, maxlevels=0)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outcome = Outcome()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    try:
        metrics = WORKLOADS[args.workload](args, work, outcome)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print_baseline(args.workload)
    for error in outcome.errors[:20]:
        print(f"CHECK FAILED: {error}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
