"""Regenerate the reference summaries the sweep workloads are checked against.

    python3 perfbench/make_reference.py

Runs each sweep workload's preset once, serially, and writes
``perfbench/reference/<workload>.json``: per scenario id, the summary
fields the benchmark compares (continuous metrics within 1%, brown-out count
and survival exactly — the fast-vs-exact parity rule of
``benchmarks/bench_perf_sim.py``).  The references come from the exact
engine, so a run of the fast engine passing the check is also a parity
check.
"""

from __future__ import annotations

import json
import sys

from common import BENCH_DIR, use_sources

FIELDS = ("instructions", "harvested_energy_j", "consumed_energy_j", "brownouts", "survived")


def main() -> int:
    use_sources()
    from repro.sweep.scenario import run_scenario
    from repro.sweep.spec import expand_unique

    from sweep_rep import PRESETS, build_spec

    out_dir = BENCH_DIR / "reference"
    out_dir.mkdir(exist_ok=True)
    for workload in PRESETS:
        reference = {}
        for config in expand_unique(build_spec(workload, smoke=False)):
            record = run_scenario(config, fast=False)
            reference[config.scenario_id] = {
                "label": config.label(),
                **{k: record["summary"][k] for k in FIELDS},
            }
        with open(out_dir / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(reference)} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
