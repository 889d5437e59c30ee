"""repro.obs — structured telemetry for campaign execution.

Observability for every execution layer of the campaign engine.  Each
number it reports has one source: the trace the run writes, or the kernel.
It is built from four small parts:

* :mod:`repro.obs.tracer`  — :class:`Tracer`: append-only JSONL trace events
  (spans with monotonic durations, counters, gauges, point events), stamped
  with pid / worker label / campaign hash, one file per writing process so
  multi-process campaigns merge traces exactly like they merge result
  stores;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: the campaign
  service's in-memory counters / gauges / histograms behind ``GET
  /metrics`` (campaign code reports only through its trace);
* :mod:`repro.obs.resource` — CPU seconds and peak RSS from ``getrusage``
  (stamped on each ``campaign.run`` span, worker slots included, and on
  the ``command.run`` span a traced CLI command ends with) and the process
  gauges ``/metrics`` reads when it is scraped;
* :mod:`repro.obs.telemetry` — :class:`Telemetry`: the bundle the execution
  layers (:class:`~repro.sweep.runner.SweepRunner`,
  :class:`~repro.sweep.adaptive.BoundarySearch`,
  :class:`~repro.sweep.store.ResultStore`) thread through.  The
  :data:`DISABLED` singleton they default to is built from no-op callables:
  with telemetry off, instrumented code creates no files and adds nothing
  but a method call to the fast path.

The read side lives in :mod:`repro.obs.report` (`load_events` merges
per-process trace files in timestamp order; `build_report` computes the
per-phase breakdown, cache-hit ratio, slowest-N scenarios, worker
utilisation, scenario latency and CPU behind ``python -m repro obs report``;
`follow_trace` feeds ``obs tail``), and :mod:`repro.obs.progress` holds the
one live-progress renderer all campaign CLI commands share.

Quick start::

    from repro.obs import Telemetry
    from repro.sweep import ResultStore, SweepRunner

    telemetry = Telemetry.create("trace/", worker="main")
    store = ResultStore("campaign.jsonl", telemetry=telemetry)
    SweepRunner(store, workers=4, telemetry=telemetry).run(spec)
    telemetry.close()

then ``python -m repro obs report trace/``.
"""

from .metrics import MetricsRegistry, series_key, split_series_key
from .diff import DiffThresholds, diff_summaries, format_diff
from .history import (
    RunLedger,
    RunSummary,
    git_revision,
    ledger_path,
    run_provenance,
    summarize_run,
)
from .progress import ProgressRenderer, format_scenario_line
from .promexport import PROMETHEUS_CONTENT_TYPE, render_prometheus, sanitise_metric_name
from .report import (
    TracePoller,
    build_report,
    follow_trace,
    format_event,
    format_report,
    load_events,
    trace_files,
)
from .resource import read_resource_sample
from .telemetry import DISABLED, Telemetry
from .timeseries import (
    DEFAULT_LATENCY_BOUNDARIES,
    Histogram,
    RollingWindow,
    exact_quantile,
    log_bucket_boundaries,
)
from .top import TopView, run_top
from .tracer import NULL_TRACER, NullTracer, Tracer, trace_file_name

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "trace_file_name",
    "MetricsRegistry",
    "series_key",
    "split_series_key",
    "Histogram",
    "RollingWindow",
    "log_bucket_boundaries",
    "exact_quantile",
    "DEFAULT_LATENCY_BOUNDARIES",
    "render_prometheus",
    "sanitise_metric_name",
    "PROMETHEUS_CONTENT_TYPE",
    "read_resource_sample",
    "Telemetry",
    "DISABLED",
    "ProgressRenderer",
    "format_scenario_line",
    "trace_files",
    "load_events",
    "build_report",
    "format_report",
    "format_event",
    "follow_trace",
    "TracePoller",
    "TopView",
    "run_top",
    "RunSummary",
    "RunLedger",
    "ledger_path",
    "summarize_run",
    "run_provenance",
    "git_revision",
    "DiffThresholds",
    "diff_summaries",
    "format_diff",
]
