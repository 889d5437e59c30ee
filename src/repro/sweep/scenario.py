"""Scenario execution: turn a :class:`ScenarioConfig` into metrics.

The component registries themselves live in :mod:`repro.sweep.components`
(supply / platform / capacitor / governor / workload) and the one-path system
assembly in :mod:`repro.sweep.build`; this module keeps the campaign-facing
surface:

* :data:`TABLE2_GOVERNOR_AXIS` — the paper's Table II governor axis;
* :data:`WORKLOADS` — a dict view over the workload registry;
* :func:`run_scenario` — the single worker entry point: it resolves the
  config through :func:`~repro.sweep.build.build_system`, runs the
  closed-loop simulation and returns a JSON-ready *record* holding the
  config (composed schema v2), the summary metrics, and (optionally)
  decimated time series.  It is a plain top-level function over plain-data
  arguments, so it pickles cleanly into ``multiprocessing`` workers.
"""

from __future__ import annotations

import math
import os
import time

from .. import __version__
from ..energy.profiles import PV_TARGET_VOLTAGE
from ..sim.result import SimulationResult
from ..workloads.workload import Workload
from .build import build_governor, build_system, build_workload
from .components import GOVERNORS, WORKLOADS_REGISTRY
from .spec import SCHEMA_VERSION, ScenarioConfig

__all__ = [
    "TABLE2_GOVERNOR_AXIS",
    "WORKLOADS",
    "governor_label",
    "build_governor",
    "run_scenario",
    "scenario_summary",
    "worker_stamp",
]

#: Environment variable ``repro shard`` sets while it runs, so records it
#: computes, in-process or in the worker slots it forks (which inherit the
#: environment), are stamped with the shard they ran in.
SHARD_INDEX_ENV = "REPRO_SHARD_INDEX"


def worker_stamp() -> dict:
    """Who computed a record: pid, plus the shard index when sharded.

    Purely descriptive (a post-mortem/telemetry field): it is stamped into
    the record, never into the config, so it does not enter the scenario
    hash and stores stay cache-comparable across worker layouts.
    """
    stamp: dict = {"pid": os.getpid()}
    shard = os.environ.get(SHARD_INDEX_ENV)
    if shard is not None:
        try:
            stamp["shard"] = int(shard)
        except ValueError:
            pass
    return stamp


#: The governor axis reproducing the paper's Table II, in the table's row
#: order.  Shared by the CLI, the shoot-out example and the Table II bench.
TABLE2_GOVERNOR_AXIS: tuple[str, ...] = (
    "performance",
    "ondemand",
    "interactive",
    "conservative",
    "powersave",
    "single-core-dfs",
    "solartune",
    "power-neutral",
)

#: Work-unit models referenced by name from scenario configs (dict view of
#: the workload registry's parameter-free instantiations).
WORKLOADS: dict[str, Workload] = {
    name: build_workload(name) for name in WORKLOADS_REGISTRY
}


def governor_label(name: str) -> str:
    """The report label for a registered governor name."""
    return GOVERNORS.get(name).label if name in GOVERNORS else name


def scenario_summary(result: SimulationResult, workload: Workload) -> dict:
    """The metrics a sweep record stores for one completed scenario."""
    summary = result.summary()
    summary.update(
        {
            "lifetime_s": result.lifetime_s,
            "survived": result.survived,
            "instructions_billions": result.total_instructions / 1e9,
            "renders_per_minute": result.renders_per_minute(workload.instructions_per_unit),
            "fraction_within_5pct": result.fraction_within(PV_TARGET_VOLTAGE),
            "harvest_utilisation": result.harvest_utilisation(),
        }
    )
    return summary


def run_scenario(
    config: ScenarioConfig,
    series_samples: int = 0,
    fast: bool = True,
    deadline: float = math.inf,
) -> dict:
    """Run one scenario and return its store record.

    The record always contains ``scenario_id``, ``schema_version``,
    ``config`` (composed schema), ``status``, ``summary``, ``engine`` and
    ``elapsed_s``; when ``series_samples`` > 0 it also carries the full
    :meth:`SimulationResult.to_dict` payload decimated to that many samples
    under ``"series"``.  ``fast=False`` runs the exact path
    (``build_system(fast=False)``: Lambert-W supply solves on the same
    simulator loop); the choice is stamped into the record as ``"engine"``
    for post-mortems but is *not* part of the scenario identity, so stores
    stay comparable across engines.  ``deadline`` (a :func:`time.monotonic`
    instant) is set on the built simulation, which raises
    :class:`~repro.sim.simulator.DeadlineExceeded` at the first record tick
    past it.

    Telemetry stamps (all additive, all outside the scenario hash):
    ``wall_time_s`` (Unix completion time), ``worker`` (pid, shard index
    when sharded), ``repro_version``, and ``timings`` splitting the elapsed
    wall time into the ``build_s``, ``tabulate_s`` (the fast-mode PV I-V
    table: about 0 on a per-process cache hit, 0 for exact or non-PV
    supplies) and ``simulate_s`` (the simulator loop) phases, plus
    ``cpu_s``, the CPU time this process spent on the scenario (the runner
    adds ``queue_wait_s``; its own span adds ``record_write_s``).
    """
    cpu_started = time.process_time()
    started = time.perf_counter()
    built = build_system(config, fast=fast)
    built.simulation.deadline = deadline
    built_at = time.perf_counter()
    # Materialise a fast-mode PV table (a cache hit once this process has
    # built it; None for exact or non-PV supplies) so simulate_s is the loop.
    getattr(built.simulation.supply, "iv_table", None)
    tabulated_at = time.perf_counter()
    result = built.run()
    simulate_s = time.perf_counter() - tabulated_at
    record = {
        "scenario_id": built.config.scenario_id,
        "schema_version": SCHEMA_VERSION,
        "config": built.config.to_dict(),
        "status": "ok",
        "summary": scenario_summary(result, built.workload),
        "engine": "fast" if fast else "exact",
        "elapsed_s": time.perf_counter() - started,
        "wall_time_s": time.time(),
        "worker": worker_stamp(),
        "repro_version": __version__,
        "timings": {
            "build_s": round(built_at - started, 6),
            "tabulate_s": round(tabulated_at - built_at, 6),
            "simulate_s": round(simulate_s, 6),
            "cpu_s": round(time.process_time() - cpu_started, 6),
        },
    }
    if series_samples > 0:
        record["series"] = result.to_dict(max_samples=series_samples)
    return record
