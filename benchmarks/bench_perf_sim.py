"""Tabulated vs Lambert-W supply: speedup and parity measurement harness.

Times representative closed-loop scenarios — PV / controlled-voltage /
constant-power supplies crossed with interrupt- and tick-driven governors —
on the one simulator loop twice: "fast" answers the PV supply from the
tabulated I-V surface (the default), "exact" solves the single-diode
equation (Lambert-W) per step on the same loop (``build_system(fast=False)``).
It asserts that the summary metrics agree and writes the measurements to
``BENCH_sim.json``.  The speedup is therefore the cost of per-step Lambert-W
solves over table lookups; supplies without an I-V equation run identically
in both modes.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_perf_sim.py            # full
    PYTHONPATH=src python benchmarks/bench_perf_sim.py --quick    # CI smoke

The exit code reflects *parity only* (continuous metrics within
``--max-drift``, brown-out counts exactly equal): raw timing never fails the
run, so CI stays robust on noisy runners while still recording the numbers.
"""

import argparse
import json
import platform as platform_mod
import sys
import time
from pathlib import Path

from _bench_utils import append_ledger, emit, print_header, provenance

from repro.sweep.build import build_system
from repro.sweep.spec import ScenarioConfig

#: Continuous summary metrics compared between the tabulated and exact supply.
PARITY_METRICS = ("total_instructions", "harvested_energy_j", "consumed_energy_j")


def scenarios(duration_s: float) -> list[tuple[str, ScenarioConfig]]:
    """The representative scenario matrix (supply kind x governor style)."""
    return [
        (
            # The default rig: PV array + the paper's interrupt-driven
            # governor.
            "pv-interrupt",
            ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=duration_s),
        ),
        (
            "pv-tick",
            ScenarioConfig(governor="ondemand", supply="pv-array", duration_s=duration_s),
        ),
        (
            "controlled-interrupt",
            ScenarioConfig(
                governor="power-neutral-fig11",
                supply="controlled-voltage",
                duration_s=duration_s,
            ),
        ),
        (
            "constant-power-tick",
            ScenarioConfig(
                governor="ondemand",
                supply={"kind": "constant-power", "power_w": 2.5},
                duration_s=duration_s,
            ),
        ),
    ]


def _metrics(result) -> dict:
    out = {name: float(getattr(result, name)) for name in PARITY_METRICS}
    out["brownout_count"] = int(result.brownout_count)
    return out


def _time_engine(config: ScenarioConfig, fast: bool, repeats: int) -> dict:
    """Build + warm + time one supply mode; returns timings and summary metrics."""
    t0 = time.perf_counter()
    built = build_system(config, fast=fast)
    cold_build_s = time.perf_counter() - t0

    result = built.run()  # warm-up (and the parity-checked result)
    timings = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        built.run()
        timings.append(time.perf_counter() - t0)
    return {
        "cold_build_s": cold_build_s,
        "warm_run_s": min(timings),
        "warm_run_median_s": sorted(timings)[len(timings) // 2],
        "metrics": _metrics(result),
    }


def run_bench(duration_s: float, repeats: int, max_drift: float) -> dict:
    rows = []
    failures = []
    for name, config in scenarios(duration_s):
        fast = _time_engine(config, fast=True, repeats=repeats)
        exact = _time_engine(config, fast=False, repeats=repeats)
        speedup = exact["warm_run_s"] / max(fast["warm_run_s"], 1e-12)

        drift = 0.0
        for metric in PARITY_METRICS:
            a = fast["metrics"][metric]
            b = exact["metrics"][metric]
            drift = max(drift, abs(a - b) / max(abs(b), 1e-12))
        brownouts_equal = fast["metrics"]["brownout_count"] == exact["metrics"]["brownout_count"]
        if drift > max_drift:
            failures.append(f"{name}: metric drift {drift:.3%} exceeds {max_drift:.1%}")
        if not brownouts_equal:
            failures.append(
                f"{name}: brownout counts differ "
                f"(fast {fast['metrics']['brownout_count']} vs "
                f"exact {exact['metrics']['brownout_count']})"
            )

        rows.append(
            {
                "scenario": name,
                "duration_s": duration_s,
                "fast": fast,
                "exact": exact,
                "speedup": speedup,
                "max_metric_drift": drift,
                "brownouts_equal": brownouts_equal,
            }
        )
        emit(
            f"{name:22s}  table {fast['warm_run_s'] * 1e3:8.1f} ms   "
            f"lambert-w {exact['warm_run_s'] * 1e3:8.1f} ms   "
            f"speedup {speedup:5.2f}x   drift {drift:.2e}   "
            f"brownouts {fast['metrics']['brownout_count']}/"
            f"{exact['metrics']['brownout_count']}"
        )

    return {
        "bench": "bench_perf_sim",
        "duration_s": duration_s,
        "repeats": repeats,
        "max_drift": max_drift,
        "python": sys.version.split()[0],
        "machine": platform_mod.machine(),
        "provenance": provenance(),
        "scenarios": rows,
        "parity_failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="short durations / fewer repeats (CI smoke)"
    )
    parser.add_argument(
        "--duration", type=float, default=None, help="simulated seconds per scenario"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed repetitions per supply mode"
    )
    parser.add_argument(
        "--max-drift",
        type=float,
        default=0.01,
        help="fail when any continuous table-vs-Lambert-W metric drifts more than this fraction",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_sim.json"),
        help="where to write the measurement record",
    )
    args = parser.parse_args(argv)

    duration = args.duration if args.duration is not None else (10.0 if args.quick else 40.0)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 4)

    print_header(
        "Tabulated vs Lambert-W supply on one simulator loop: speedup and parity",
        "none (performance harness)",
    )
    record = run_bench(duration, repeats, args.max_drift)

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    emit(f"\nwrote {args.out}")

    pv = next(r for r in record["scenarios"] if r["scenario"] == "pv-interrupt")

    ledger = append_ledger(
        args.out,
        "bench.perf_sim",
        campaign="bench_perf_sim",
        engine="fast+exact",
        scenarios=len(record["scenarios"]),
        executed=len(record["scenarios"]),
        phases={
            f"{row['scenario']}.{engine}_warm_run": row[engine]["warm_run_s"]
            for row in record["scenarios"]
            for engine in ("fast", "exact")
        },
        meta={
            "pv_interrupt_speedup": round(pv["speedup"], 3),
            "duration_s": duration,
            "repeats": repeats,
        },
    )
    emit(f"appended run summary to {ledger}")

    if record["parity_failures"]:
        for failure in record["parity_failures"]:
            emit(f"PARITY FAILURE: {failure}")
        return 1
    emit("parity: all scenarios within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
