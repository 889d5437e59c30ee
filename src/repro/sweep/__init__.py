"""repro.sweep — parallel scenario campaigns with a persistent result store.

The paper's evaluation spans two rigs (the outdoor PV-array system and the
controlled laboratory supply) crossed with governors, parameters and
conditions; this subsystem runs such grids as *campaigns* over pluggable,
registry-backed scenario components:

* :mod:`repro.sweep.components` — the component registries: ``SUPPLIES``
  (pv-array / controlled-voltage / constant-power / trace-file),
  ``PLATFORMS``, ``CAPACITORS``, ``GOVERNORS`` and workloads, all open for
  extension via :class:`repro.registry.Registry`;
* :mod:`repro.sweep.spec`     — declarative grids (:class:`Axis` with dotted
  component paths, :class:`SweepSpec`) expanding into content-addressed
  :class:`ScenarioConfig` cells composed of five component specs;
* :mod:`repro.sweep.build`    — the one construction path resolving a config
  into a live :class:`~repro.sim.simulator.EnergyHarvestingSimulation`;
* :mod:`repro.sweep.scenario` — the per-cell simulation worker and flat
  governor/workload views;
* :mod:`repro.sweep.store`    — an append-only JSONL store keyed by config
  hash, giving cache hits, resume-after-interrupt and schema-version
  tolerance; :meth:`ResultStore.query` filters the records an open store
  holds;
* :mod:`repro.sweep.sqlindex` — the SQLite sidecar behind ``store stats``:
  counts by status and schema version and the compaction baseline of a
  store, without opening it;
* :mod:`repro.sweep.runner`   — inline or worker-slot execution with
  per-scenario timeouts and progress reporting;
* :mod:`repro.sweep.aggregate`— per-axis mean/p50/p95 tables, Table II
  reconstruction and CSV export from stored records;
* :mod:`repro.sweep.adaptive` — survival-boundary search: bisection of any
  numeric config path (with bracket expansion and non-monotonicity
  detection) batched through the runner/store, one probe per outer cell per
  round;
* :mod:`repro.sweep.dist`     — sharded (multi-host) campaign execution:
  deterministic content-addressed partitioning (:class:`ShardPlan` + JSON
  shard manifests) for ``repro shard`` on each host, then store merging;
* :mod:`repro.sweep.presets`  — ready-made campaigns (Table II outdoor grid,
  the Fig. 11 controlled-supply sweep, a constant-power survival survey) and
  boundary queries (``min-capacitance``, ``min-power``).

Quick start::

    from repro.sweep import Axis, ResultStore, SweepRunner, SweepSpec, axis_summary

    spec = SweepSpec.grid(
        governors=["power-neutral", "powersave", "ondemand"],
        weather=["full_sun", "cloud"],
        capacitances_f=[15.4e-3, 47e-3],
        duration_s=120.0,
    )
    store = ResultStore("campaign.jsonl")
    report = SweepRunner(store, workers=4).run(spec)
    print(axis_summary(report.ok_records(), "governor"))

Axes address *inside* components (``Axis("supply.weather", [...])``,
``Axis("capacitor.capacitance_f", [...])``, ``Axis("supply.power_w", [...])``
on a constant-power supply), and whole components swap with
``supply={"kind": "controlled-voltage"}``.  Re-running the same campaign (or
any campaign sharing cells) against the same store recomputes nothing.
"""

from ..registry import ComponentSpec, Registry, RegistryEntry
from .adaptive import (
    PREDICATES,
    BoundaryQuery,
    BoundaryReport,
    BoundarySearch,
    CellResult,
    find_boundary,
)
from .aggregate import (
    METRIC_FIELDS,
    axis_summary,
    campaign_overview,
    campaign_tables,
    records_table,
    rows_to_csv,
    table2_rows,
)
from .build import (
    BuiltSystem,
    build_capacitor,
    build_governor,
    build_platform,
    build_supply,
    build_system,
    build_workload,
    run_system,
)
from .components import CAPACITORS, GOVERNORS, PLATFORMS, SUPPLIES, WORKLOADS_REGISTRY
from .dist import (
    MANIFEST_VERSION,
    ShardPlan,
    partition_scenarios,
    shard_index_of,
)
from .presets import (
    BOUNDARY_PRESETS,
    CAMPAIGN_PRESETS,
    boundary_preset_names,
    build_boundary_preset,
    build_preset,
    preset_names,
)
from .runner import SweepReport, SweepRunner, expand_unique
from .scenario import (
    SHARD_INDEX_ENV,
    TABLE2_GOVERNOR_AXIS,
    WORKLOADS,
    governor_label,
    run_scenario,
    scenario_summary,
    worker_stamp,
)
from .spec import (
    AXIS_ALIASES,
    SCHEMA_VERSION,
    Axis,
    ScenarioConfig,
    ShadowSpec,
    SweepSpec,
    resolve_axis_path,
)
from .sqlindex import SqliteIndex, sqlite_index_path
from .store import (
    VOLATILE_RECORD_FIELDS,
    ResultStore,
    merge_stores,
    store_stats,
    strip_volatile,
)

__all__ = [
    "Axis",
    "AXIS_ALIASES",
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "ShadowSpec",
    "SweepSpec",
    "resolve_axis_path",
    "ComponentSpec",
    "Registry",
    "RegistryEntry",
    "SUPPLIES",
    "PLATFORMS",
    "CAPACITORS",
    "GOVERNORS",
    "WORKLOADS_REGISTRY",
    "BuiltSystem",
    "build_system",
    "run_system",
    "build_supply",
    "build_platform",
    "build_capacitor",
    "build_governor",
    "build_workload",
    "CAMPAIGN_PRESETS",
    "build_preset",
    "preset_names",
    "BOUNDARY_PRESETS",
    "boundary_preset_names",
    "build_boundary_preset",
    "PREDICATES",
    "BoundaryQuery",
    "BoundaryReport",
    "BoundarySearch",
    "CellResult",
    "find_boundary",
    "ResultStore",
    "merge_stores",
    "store_stats",
    "SqliteIndex",
    "sqlite_index_path",
    "VOLATILE_RECORD_FIELDS",
    "strip_volatile",
    "SweepReport",
    "SweepRunner",
    "expand_unique",
    "MANIFEST_VERSION",
    "ShardPlan",
    "shard_index_of",
    "partition_scenarios",
    "TABLE2_GOVERNOR_AXIS",
    "WORKLOADS",
    "governor_label",
    "run_scenario",
    "scenario_summary",
    "worker_stamp",
    "SHARD_INDEX_ENV",
    "axis_summary",
    "campaign_overview",
    "campaign_tables",
    "records_table",
    "rows_to_csv",
    "table2_rows",
    "METRIC_FIELDS",
]
