"""Tests for the telemetry subsystem (repro.obs) and its CLI surface.

The acceptance contract: disabled telemetry is a *true* no-op (no files on
disk, records identical to an un-instrumented run modulo volatile stamps),
per-process trace files merge into one timestamp-ordered stream exactly like
shard stores do, and ``obs report`` over a warm re-run of a distributed
campaign shows a 1.0 cache-hit ratio with the phase breakdown covering the
runner wall time.
"""

import json
import os
import time
import types
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    DISABLED,
    MetricsRegistry,
    ProgressRenderer,
    Telemetry,
    Tracer,
    build_report,
    follow_trace,
    format_event,
    format_report,
    format_scenario_line,
    load_events,
    trace_files,
)
from repro.sweep import (
    ResultStore,
    SweepRunner,
    SweepSpec,
    strip_volatile,
)

#: Short simulated duration keeping each scenario ~tens of milliseconds.
DURATION_S = 2.0

#: A 4-cell campaign split 3/1 over two shards.
SHARD_GRID = [
    "--governors", "power-neutral,powersave", "--weather", "full_sun,cloud",
    "--capacitance-mf", "47", "--duration", str(DURATION_S), "--quiet",
]


def run_shards(tmp_path: Path, trace: Path) -> None:
    """Both shards of one campaign as in-process `repro shard` runs sharing a trace dir."""
    for index in (0, 1):
        argv = [
            "shard", *SHARD_GRID, "--num-shards", "2", "--shard-index", str(index),
            "--store", str(tmp_path / f"shard-{index}.jsonl"), "--trace", str(trace),
        ]
        assert main(argv) == 0


def small_spec(**overrides) -> SweepSpec:
    settings = dict(
        governors=["power-neutral", "powersave"],
        weather=["full_sun"],
        duration_s=DURATION_S,
    )
    settings.update(overrides)
    return SweepSpec.grid(**settings)


# ----------------------------------------------------------------------
# Tracer / metrics primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_events_counters_and_gauges_round_trip(self, tmp_path):
        tracer = Tracer(tmp_path / "trace-main-1.jsonl", worker="main", campaign="abc")
        with tracer.span("campaign.run", workers=2) as span:
            span.set(scenarios=4)
        tracer.event("worker.start", shard=0)
        tracer.counter("campaign.cache_hits")
        tracer.gauge("boundary.bracket_width", 0.5, round=1)
        tracer.close()

        events = load_events(tmp_path / "trace-main-1.jsonl")
        assert [e["kind"] for e in events] == ["span", "event", "counter", "gauge"]
        span_event = events[0]
        assert span_event["name"] == "campaign.run"
        assert span_event["dur_s"] >= 0
        assert span_event["attrs"] == {"workers": 2, "scenarios": 4}
        assert all(e["worker"] == "main" and e["campaign"] == "abc" for e in events)
        assert all("pid" in e and "t" in e for e in events)

    def test_file_is_created_lazily_on_first_event(self, tmp_path):
        path = tmp_path / "trace-main-1.jsonl"
        tracer = Tracer(path, worker="main")
        assert not path.exists()
        tracer.event("worker.start")
        assert path.exists()
        tracer.close()

    def test_span_records_exceptions_without_suppressing(self, tmp_path):
        tracer = Tracer(tmp_path / "trace-main-1.jsonl")
        with pytest.raises(RuntimeError):
            with tracer.span("campaign.run"):
                raise RuntimeError("boom")
        tracer.close()
        (event,) = load_events(tmp_path / "trace-main-1.jsonl")
        assert "RuntimeError" in event["attrs"]["error"]


class TestMetrics:
    def test_counters_gauges_timers_roll_up(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.counter("campaign.cache_hits")
        metrics.counter("campaign.cache_hits", 2)
        metrics.gauge("open_cells", 3)
        snapshot = metrics.write(tmp_path / "metrics.json")
        assert snapshot == tmp_path / "metrics.json"
        data = json.loads(snapshot.read_text())
        assert data["counters"]["campaign.cache_hits"] == 3
        assert data["gauges"]["open_cells"] == 3


# ----------------------------------------------------------------------
# Disabled telemetry is a true no-op
# ----------------------------------------------------------------------
class TestDisabledTelemetry:
    def test_disabled_bundle_creates_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = ResultStore(tmp_path / "campaign.jsonl", telemetry=DISABLED)
        report = SweepRunner(store, telemetry=DISABLED).run(small_spec())
        assert report.executed == 2
        store.compact()
        DISABLED.close()
        # Only the store and its index sidecar exist — no trace files, no
        # metrics sidecar, nothing else.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "campaign.jsonl",
            "campaign.jsonl.sqlite",
        ]

    def test_records_identical_with_and_without_telemetry(self, tmp_path):
        spec = small_spec()
        plain_store = ResultStore(tmp_path / "plain.jsonl")
        SweepRunner(plain_store).run(spec)

        telemetry = Telemetry.create(tmp_path / "trace", worker="main")
        traced_store = ResultStore(tmp_path / "traced.jsonl", telemetry=telemetry)
        SweepRunner(traced_store, telemetry=telemetry).run(spec)
        telemetry.close()

        plain = {r["scenario_id"]: strip_volatile(r) for r in plain_store.records()}
        traced = {r["scenario_id"]: strip_volatile(r) for r in traced_store.records()}
        assert plain == traced

    def test_worker_stamp_and_timings_are_volatile_not_identity(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        SweepRunner(store).run(small_spec())
        record = next(iter(store.records()))
        assert record["worker"]["pid"] > 0
        assert record["wall_time_s"] == pytest.approx(time.time(), abs=120)
        assert set(record["timings"]) >= {"build_s", "simulate_s", "queue_wait_s"}
        stripped = strip_volatile(record)
        for volatile in ("elapsed_s", "wall_time_s", "worker", "timings"):
            assert volatile not in stripped
        assert stripped["scenario_id"] == record["scenario_id"]
        # A warm re-run still cache-hits: the stamps never enter the identity.
        rerun = SweepRunner(ResultStore(tmp_path / "campaign.jsonl")).run(small_spec())
        assert rerun.executed == 0 and rerun.cached == 2


# ----------------------------------------------------------------------
# Multi-process traces merge like stores
# ----------------------------------------------------------------------
class TestTraceMerging:
    def test_files_merge_in_timestamp_order(self, tmp_path):
        a = Tracer(tmp_path / "trace-main-1.jsonl", worker="main")
        b = Tracer(tmp_path / "trace-shard-0-2.jsonl", worker="shard-0")
        a.event("first")
        b.event("second")
        a.event("third")
        a.close()
        b.close()
        events = load_events(tmp_path)
        assert [e["name"] for e in events] == ["first", "second", "third"]
        assert [e["worker"] for e in events] == ["main", "shard-0", "main"]
        assert len(trace_files(tmp_path)) == 2

    def test_dist_run_writes_one_trace_file_per_process(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        run_shards(tmp_path, trace_dir)
        capsys.readouterr()

        workers = {e["worker"] for e in load_events(trace_dir)}
        assert workers == {"shard-0", "shard-1"}
        assert len(trace_files(trace_dir)) == 2
        # The shards report only through their traces: no sidecar beside a store.
        assert not list(tmp_path.glob("*.metrics.json"))
        # Records are stamped with the shard that computed them.
        for index in (0, 1):
            records = list(ResultStore(tmp_path / f"shard-{index}.jsonl").records())
            assert records and all(r["worker"]["shard"] == index for r in records)

    def test_torn_trailing_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace-main-1.jsonl"
        tracer = Tracer(path, worker="main")
        tracer.event("ok")
        tracer.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"t": 1.0, "kind": "event", "name": "torn"')  # no newline
        assert [e["name"] for e in load_events(path)] == ["ok"]
        assert [e["name"] for e in follow_trace(path, poll_s=0.01, max_polls=1)] == ["ok"]


# ----------------------------------------------------------------------
# obs report round-trips a real two-shard campaign
# ----------------------------------------------------------------------
class TestReport:
    def test_warm_dist_rerun_reports_pure_cache_hits(self, tmp_path, capsys):
        run_shards(tmp_path, tmp_path / "cold")
        run_shards(tmp_path, tmp_path / "warm")
        capsys.readouterr()

        doc = build_report(load_events(tmp_path / "warm"))
        assert doc["cache_hit_ratio"] == 1.0
        assert doc["executed"] == 0
        assert doc["cached"] == 4
        assert doc["coverage"] >= 0.95
        assert doc["runs"] == 2
        assert set(doc["phases"]) == {"expand", "cache-scan"}
        text = format_report(doc, title="warm")
        assert "cache_hit_ratio" in text and "Per-phase breakdown" in text

    def test_cold_dist_report_has_workers_phases_and_slowest(self, tmp_path, capsys):
        run_shards(tmp_path, tmp_path / "trace")
        capsys.readouterr()

        doc = build_report(load_events(tmp_path / "trace"), slowest=3)
        assert doc["executed"] == 4 and doc["cache_hit_ratio"] == 0.0
        assert doc["coverage"] >= 0.95
        assert {"expand", "cache-scan", "execute"} <= set(doc["phases"])
        assert len(doc["slowest"]) == 3
        assert set(doc["workers"]) == {"shard-0", "shard-1"}
        for label in ("shard-0", "shard-1"):
            assert doc["workers"][label]["busy_s"] > 0
        phases = doc["scenario_phases"]
        assert phases["simulate_s"] > 0 and phases["build_s"] > 0
        # Queue wait is waiting, not busy time: it has its own quantiles.
        assert "queue_wait_s" not in phases
        wait = doc["queue_wait"]
        assert wait["p50_s"] is not None
        assert 0.0 <= wait["p50_s"] <= wait["p95_s"] <= wait["max_s"]
        text = format_report(doc)
        assert "Queue wait per scenario" in text

    def test_empty_event_stream_reports_zeroes(self):
        doc = build_report([])
        assert doc["events"] == 0 and doc["cache_hit_ratio"] is None

    def test_boundary_rounds_and_gauges_appear(self, tmp_path):
        from repro.sweep import BoundaryQuery, BoundarySearch, ScenarioConfig

        telemetry = Telemetry.create(tmp_path / "trace", worker="main")
        store = ResultStore(tmp_path / "boundary.jsonl", telemetry=telemetry)
        runner = SweepRunner(store, telemetry=telemetry)
        query = BoundaryQuery(
            base=ScenarioConfig(governor="power-neutral", duration_s=DURATION_S),
            path="capacitor.capacitance_f",
            lo=2e-3,
            hi=60e-3,
            rel_tol=0.5,
        )
        report = BoundarySearch(query, runner, telemetry=telemetry).run()
        telemetry.close()
        assert report.rounds >= 2

        events = load_events(tmp_path / "trace")
        doc = build_report(events)
        assert doc["rounds"] == report.rounds
        widths = [e for e in events if e["name"] == "boundary.bracket_width"]
        assert widths and all(e["kind"] == "gauge" for e in widths)


# ----------------------------------------------------------------------
# Shared progress renderer
# ----------------------------------------------------------------------
class TestProgressRenderer:
    RECORD = {"scenario_id": "a" * 16, "status": "ok", "elapsed_s": 1.25}

    def test_scenario_and_round_lines(self, capsys):
        renderer = ProgressRenderer()
        renderer.scenario(1, 4, dict(self.RECORD), cached=False)
        renderer.scenario(2, 4, dict(self.RECORD), cached=True)
        renderer.round(1, "round 1: 3 probe(s)")
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("  [1/4] ok") and out[0].endswith("(1.2s)")
        assert out[1].startswith("  [2/4] cached") and "1.2s" not in out[1]
        assert out[2] == "  round 1: 3 probe(s)"

    def test_quiet_suppresses_everything(self, capsys):
        renderer = ProgressRenderer(quiet=True)
        renderer.scenario(1, 4, dict(self.RECORD), cached=False)
        renderer.round(1, "message")
        assert capsys.readouterr().out == ""

    def test_line_format_is_shared(self):
        line = format_scenario_line(3, 8, dict(self.RECORD), cached=False)
        assert line == f"  [3/8] ok      {'a' * 12} (1.2s)"


# ----------------------------------------------------------------------
# CLI: --trace / --profile / obs tail / obs report
# ----------------------------------------------------------------------
class TestObsCli:
    SWEEP = ["sweep", "--preset", "dist-smoke", "--duration", "2", "--quiet",
             "--workers", "1"]

    def test_sweep_trace_writes_trace_and_metrics(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        trace = tmp_path / "trace"
        argv = [*self.SWEEP, "--store", str(store), "--trace", str(trace)]
        assert main(argv) == 0
        assert list(trace.glob("trace-main-*.jsonl"))
        assert not list(tmp_path.glob("*.metrics.json"))
        assert "telemetry: trace in" in capsys.readouterr().out

        # obs report over the cold trace sees the executed scenarios.
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cache_hit_ratio : 0" in out and "Per-phase breakdown" in out

        # Warm re-run into a second trace directory: pure cache hits.
        warm = tmp_path / "warm"
        assert main([*self.SWEEP, "--store", str(store), "--trace", str(warm)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(warm), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cache_hit_ratio"] == 1.0
        assert doc["executed"] == 0
        assert doc["coverage"] >= 0.95

    def test_pool_sweep_report_counts_worker_cpu(self, tmp_path, capsys):
        """At --workers 2 the report's CPU covers the worker slots, and its
        scenario latency is the exact quantiles of the trace's spans."""
        store = tmp_path / "campaign.jsonl"
        trace = tmp_path / "trace"
        argv = ["sweep", "--preset", "dist-smoke", "--duration", "2", "--quiet",
                "--workers", "2", "--store", str(store), "--trace", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        worker_cpu_s = campaign_overview(ResultStore(store).records())["worker_cpu_s"]
        assert worker_cpu_s > 0
        assert doc["resource"]["cpu_s"] >= worker_cpu_s
        assert doc["resource"]["max_rss_bytes"] > 0

        durations = [
            e["dur_s"] for e in load_events(trace)
            if e["kind"] == "span" and e["name"] == "scenario" and not e["attrs"]["cached"]
        ]
        latency = doc["latency"]
        assert latency["scenario"]["count"] == len(durations) == 4
        for q in (0.50, 0.95, 0.99):
            assert latency["scenario"][f"p{round(q * 100)}_s"] == exact_quantile(durations, q)
        assert latency["workers"] == ["main"]
        assert sorted(p.name for p in trace.iterdir() if not p.name.startswith("trace-")) == []

    def test_report_counts_the_whole_command(self, tmp_path):
        """A traced command's ``resource.cpu_s`` covers its process tree:
        start-up, imports and preset build as well as the campaign.  Only
        interpreter teardown after the last reading is left out."""
        import resource
        import subprocess
        import sys

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        trace = tmp_path / "trace"
        argv = [sys.executable, "-m", "repro", "sweep", "--preset", "dist-smoke",
                "--workers", "2", "--quiet", "--store", str(tmp_path / "s.jsonl"),
                "--trace", str(trace)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        tree_cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        doc = build_report(load_events(trace))
        assert doc["resource"]["cpu_s"] >= 0.85 * tree_cpu_s
        assert doc["resource"]["cpu_s"] <= tree_cpu_s
        assert doc["runs"] == 1

    def test_obs_tail_replays_events(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        trace = tmp_path / "trace"
        assert main([*self.SWEEP, "--store", str(store), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "tail", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out and "[main]" in out
        assert out.count("scenario") >= 4

    def test_obs_report_on_missing_trace_fails_cleanly(self, tmp_path, capsys):
        # One-line diagnostic + exit code 2, not a traceback: CI-friendly.
        assert main(["obs", "report", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no trace" in err

    def test_obs_report_on_empty_trace_dir_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "report", str(empty)]) == 2
        assert "no trace-*.jsonl files" in capsys.readouterr().err

    def test_profile_writes_prof_next_to_trace(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        trace = tmp_path / "trace"
        argv = [*self.SWEEP, "--store", str(store), "--trace", str(trace), "--profile"]
        assert main(argv) == 0
        assert (trace / "profile.prof").exists()
        assert "profile written to" in capsys.readouterr().out

    def test_profile_without_trace_lands_next_to_store(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        assert main([*self.SWEEP, "--store", str(store), "--profile"]) == 0
        assert (tmp_path / "campaign.jsonl.prof").exists()
        # No trace flag -> no trace files, no metrics sidecar.
        assert not (tmp_path / "campaign.jsonl.metrics.json").exists()
        assert not list(tmp_path.glob("trace-*.jsonl"))

    def test_shard_trace_stamps_campaign_and_shard_worker(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        argv = [
            "shard", "--preset", "dist-smoke", "--duration", "2", "--quiet",
            "--num-shards", "2", "--shard-index", "0",
            "--store", str(tmp_path / "shard-0.jsonl"), "--trace", str(trace),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        events = load_events(trace)
        assert all(e["worker"] == "shard-0" for e in events)
        assert all(e.get("campaign") for e in events)
        # The shard's records carry the shard index (env-propagated stamp).
        records = list(ResultStore(tmp_path / "shard-0.jsonl").records())
        assert records and all(r["worker"]["shard"] == 0 for r in records)
        # The shard index is set for the run only, not left in the caller.
        assert "REPRO_SHARD_INDEX" not in os.environ

    def test_boundary_trace_round_trips(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        argv = [
            "boundary", "--preset", "min-capacitance", "--duration", "4",
            "--rel-tol", "0.5", "--weather", "full_sun", "--workers", "1",
            "--quiet", "--store", str(tmp_path / "b.jsonl"), "--trace", str(trace),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rounds"] >= 2
        assert doc["counters"]["boundary.rounds"] == doc["rounds"]


class TestEventFormatting:
    def test_format_event_lines(self):
        span = {"t": 10.5, "kind": "span", "name": "scenario", "worker": "main",
                "dur_s": 0.25, "attrs": {"status": "ok", "skipped": None}}
        line = format_event(span, t0=10.0)
        assert line.startswith("+    0.500s [main] span    scenario")
        assert "dur=0.2500s" in line and "status=ok" in line and "skipped" not in line
        counter = {"t": 10.0, "kind": "counter", "name": "campaign.cache_hits",
                   "worker": "main", "value": 2, "attrs": {}}
        assert "value=2" in format_event(counter, t0=10.0)


# ----------------------------------------------------------------------
# Histograms, rolling windows, Prometheus exposition, kernel resource
# readings, atomic sidecar writes, the http/resource report sections and
# the `obs top` live view.
# ----------------------------------------------------------------------

import math  # noqa: E402

from repro.obs import (  # noqa: E402
    DEFAULT_LATENCY_BOUNDARIES,
    Histogram,
    RollingWindow,
    TopView,
    exact_quantile,
    log_bucket_boundaries,
    render_prometheus,
    sanitise_metric_name,
    series_key,
    split_series_key,
)
import repro.obs.resource as resource_module  # noqa: E402
from repro.obs.resource import maxrss_bytes, read_resource_sample, rusage_totals  # noqa: E402
from repro.sweep.aggregate import campaign_overview  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "data"


class TestHistogram:
    def test_bucket_placement_and_totals(self):
        h = Histogram(boundaries=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(value)
        assert h.counts == [1, 2, 1, 1]  # last bucket is the overflow
        assert h.count == 5
        assert h.min == 0.005 and h.max == 5.0
        assert h.sum == pytest.approx(5.605)
        assert h.mean == pytest.approx(5.605 / 5)

    def test_boundary_values_fall_in_lower_bucket(self):
        h = Histogram(boundaries=(0.01, 0.1))
        h.observe(0.01)  # exactly on an edge: the le=0.01 bucket (Prometheus style)
        assert h.counts == [1, 0, 0]

    def test_quantiles_are_clamped_to_observed_range(self):
        h = Histogram(boundaries=(0.01, 0.1, 1.0, 10.0))
        samples = [0.02, 0.03, 0.04, 0.05, 0.06, 0.5]
        for value in samples:
            h.observe(value)
        for q in (0.5, 0.95, 0.99, 1.0):
            estimate = h.quantile(q)
            assert h.min <= estimate <= h.max
        assert h.quantile(0.99) <= max(samples)
        # and the estimate is in the right bucket's neighbourhood
        assert h.quantile(0.5) == pytest.approx(exact_quantile(samples, 0.5), abs=0.1)

    def test_quantile_of_empty_histogram_is_none(self):
        h = Histogram()
        assert h.quantile(0.95) is None
        assert h.quantiles() == {"p50": None, "p95": None, "p99": None}
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_merge_adds_bucketwise(self):
        a = Histogram(boundaries=(0.1, 1.0))
        b = Histogram(boundaries=(0.1, 1.0))
        for value in (0.05, 0.5):
            a.observe(value)
        for value in (0.5, 5.0):
            b.observe(value)
        a.merge(b)
        assert a.counts == [1, 2, 1]
        assert a.count == 4
        assert a.min == 0.05 and a.max == 5.0
        assert a.sum == pytest.approx(6.05)

    def test_merge_rejects_different_boundaries(self):
        with pytest.raises(ValueError, match="boundaries"):
            Histogram(boundaries=(0.1, 1.0)).merge(Histogram(boundaries=(0.2, 2.0)))

    def test_roundtrip_through_dict(self):
        h = Histogram(boundaries=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 2.0):
            h.observe(value)
        doc = h.to_dict()
        assert doc["quantiles"]["p95"] <= doc["max"]
        clone = Histogram.from_dict(doc)
        assert clone.counts == h.counts
        assert clone.count == h.count
        assert clone.min == h.min and clone.max == h.max
        assert clone.quantile(0.95) == h.quantile(0.95)
        # a merged clone doubles the counts — fixed boundaries make this safe
        clone.merge(Histogram.from_dict(doc))
        assert clone.count == 2 * h.count

    def test_cumulative_buckets_end_at_inf(self):
        h = Histogram(boundaries=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        pairs = h.cumulative_buckets()
        assert pairs == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        cumulative = [count for _, count in pairs]
        assert cumulative == sorted(cumulative)  # monotone, Prometheus-style

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=())
        with pytest.raises(ValueError):
            Histogram(boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            log_bucket_boundaries(0.0, 1.0)

    def test_log_boundaries_cover_range(self):
        bounds = log_bucket_boundaries(1e-4, 60.0, 3)
        assert bounds[0] == pytest.approx(1e-4)
        assert bounds[-1] >= 60.0
        assert bounds == DEFAULT_LATENCY_BOUNDARIES
        ratios = [b2 / b1 for b1, b2 in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** (1 / 3), rel=1e-3) for r in ratios)


class TestRollingWindow:
    def test_evicts_by_age(self):
        window = RollingWindow(window_s=10.0)
        window.observe(1.0, t=100.0)
        window.observe(2.0, t=105.0)
        window.observe(3.0, t=112.0)  # pushes t=100 out of [102, 112]
        assert window.values(now=112.0) == [2.0, 3.0]
        assert len(window) == 2

    def test_evicts_by_count(self):
        window = RollingWindow(window_s=1e6, max_samples=3)
        for i in range(5):
            window.observe(float(i), t=float(i))
        assert window.values(now=4.0) == [2.0, 3.0, 4.0]

    def test_quantile_mean_rate(self):
        window = RollingWindow(window_s=60.0)
        for i in range(11):
            window.observe(float(i), t=float(i))
        assert window.quantile(0.5, now=10.0) == 5.0
        assert window.rate(now=10.0) == pytest.approx(11 / 10.0)
        assert RollingWindow().rate(now=0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(window_s=0)
        with pytest.raises(ValueError):
            RollingWindow(max_samples=0)


class TestSeriesKeys:
    def test_roundtrip(self):
        key = series_key("http_requests_total", {"route": "/campaigns", "status": "200"})
        assert key == 'http_requests_total{route="/campaigns",status="200"}'
        name, labels = split_series_key(key)
        assert name == "http_requests_total"
        assert labels == {"route": "/campaigns", "status": "200"}

    def test_unlabelled_passthrough(self):
        assert series_key("plain") == "plain"
        assert split_series_key("plain") == ("plain", {})

    def test_labels_are_sorted(self):
        assert series_key("m", {"b": 2, "a": 1}) == 'm{a="1",b="2"}'


def build_reference_registry() -> MetricsRegistry:
    """A deterministic registry covering every series type (golden input)."""
    registry = MetricsRegistry()
    registry.counter("store.idx_hit", 7)
    registry.counter("http_requests_total", 3, labels={"route": "/healthz", "status": "200"})
    registry.gauge("process_resident_memory_bytes", 64 * 2**20)
    histogram = registry.histogram(
        "http_request_duration_seconds",
        labels={"route": "/healthz"},
        boundaries=(0.001, 0.01, 0.1, 1.0),
    )
    for value in (0.0005, 0.005, 0.005, 0.05, 2.0):
        histogram.observe(value)
    return registry


class TestPrometheusExport:
    def test_matches_golden_file(self):
        rendered = render_prometheus(build_reference_registry())
        golden = (GOLDEN_DIR / "metrics_prometheus.golden.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_renders_from_sidecar_document(self, tmp_path):
        """A metrics.json read back from disk renders identically."""
        registry = build_reference_registry()
        path = registry.write(tmp_path / "m.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert render_prometheus(doc) == render_prometheus(registry)

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = render_prometheus(build_reference_registry())
        buckets = [
            line for line in text.splitlines()
            if line.startswith("http_request_duration_seconds_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1]
        assert counts[-1] == 5.0
        assert "http_request_duration_seconds_sum" in text
        assert 'http_request_duration_seconds_count{route="/healthz"} 5' in text

    def test_name_sanitisation(self):
        assert sanitise_metric_name("store.idx_hit") == "store_idx_hit"
        assert sanitise_metric_name("9lives") == "_9lives"
        assert sanitise_metric_name("a-b c") == "a_b_c"
        text = render_prometheus(build_reference_registry())
        assert "store_idx_hit 7" in text
        assert "store.idx_hit" not in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestResourceSampler:
    """Point-in-time readings of this process's resources."""

    def test_read_resource_sample_shape(self):
        sample = read_resource_sample()
        assert sample["rss_bytes"] > 0
        assert sample["cpu_seconds"] >= 0
        assert sample["threads"] >= 1


class TestKernelAccounting:
    def test_maxrss_is_kib_on_linux_and_bytes_on_macos(self, monkeypatch):
        usage = types.SimpleNamespace(ru_maxrss=2048)
        monkeypatch.setattr(resource_module.sys, "platform", "linux")
        assert maxrss_bytes(usage) == 2048 * 1024
        monkeypatch.setattr(resource_module.sys, "platform", "darwin")
        assert maxrss_bytes(usage) == 2048

    def test_fallback_reports_no_current_rss(self, tmp_path, monkeypatch):
        # Without /proc, getrusage answers CPU; its ru_maxrss is a lifetime
        # peak, so it must not stand in for the current RSS.
        monkeypatch.setattr(resource_module, "Path", lambda _: tmp_path / "no-proc")
        sample = read_resource_sample()
        assert "rss_bytes" not in sample
        assert sample["cpu_seconds"] > 0

    def test_rusage_totals_peak_covers_current_rss(self):
        current = read_resource_sample()["rss_bytes"]
        cpu_s, peak = rusage_totals()
        assert cpu_s > 0
        # The kernel syncs its per-thread RSS counters lazily, so the two
        # readings may differ by some pages; a unit error is a factor 1024.
        assert peak >= 0.9 * current

    def test_process_gauges_on_a_registry(self):
        registry = MetricsRegistry()
        resource_module.record_process_gauges(registry)
        gauges = registry.to_dict()["gauges"]
        assert gauges["process_resident_memory_peak_bytes"] >= (
            gauges["process_resident_memory_bytes"]
        ) > 0
        assert gauges["process_cpu_seconds_total"] > 0
        assert gauges["process_threads"] >= 1


class TestAtomicSidecarWrite:
    def test_mid_write_crash_leaves_previous_snapshot(self, tmp_path, monkeypatch):
        """A crash between tmp-write and rename must not corrupt the sidecar."""
        registry = MetricsRegistry()
        registry.counter("survivors", 1)
        path = tmp_path / "metrics.json"
        registry.write(path)
        before = path.read_text(encoding="utf-8")

        registry.counter("survivors", 1)
        original_write_text = Path.write_text

        def torn_write(self, content, *args, **kwargs):
            if self.name.endswith(".tmp"):
                original_write_text(self, content[: len(content) // 2], *args, **kwargs)
                raise OSError("simulated crash mid-write")
            return original_write_text(self, content, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            registry.write(path)
        monkeypatch.undo()

        # The previous snapshot is untouched and still valid JSON.
        assert path.read_text(encoding="utf-8") == before
        assert json.loads(before)["counters"]["survivors"] == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c", 1)
        path = tmp_path / "m.json"
        # pid-unique tmp names mean two processes never clobber each other's
        # staging file; here we just assert the name carries the pid.
        tmp_name = f"{path.name}.{os.getpid()}.tmp"
        registry.write(path)
        assert json.loads(path.read_text(encoding="utf-8"))["counters"]["c"] == 1
        assert not (tmp_path / tmp_name).exists()


class TestHttpAndResourceReportSections:
    @staticmethod
    def _synthetic_events():
        events = []
        for i, dur in enumerate((0.01, 0.02, 0.03, 0.5)):
            events.append(
                {"t": 100.0 + i, "kind": "span", "name": "http.request",
                 "worker": "serve", "dur_s": dur,
                 "attrs": {"route": "/campaigns", "method": "GET", "status": 200}}
            )
        events.append(
            {"t": 105.0, "kind": "span", "name": "http.request", "worker": "serve",
             "dur_s": 0.001, "attrs": {"route": "/healthz", "method": "GET", "status": 200}}
        )
        for i, (worker, dur, cached) in enumerate(
            (("shard-0", 0.2, False), ("shard-1", 0.4, False), ("shard-1", 0.001, True))
        ):
            events.append(
                {"t": 101.5 + i, "kind": "span", "name": "scenario", "worker": worker,
                 "dur_s": dur, "attrs": {"status": "ok", "cached": cached}}
            )
        for i, (cpu_s, rss) in enumerate(((1.25, 50e6), (0.5, 60e6))):
            events.append(
                {"t": 104.0 + i, "kind": "span", "name": "campaign.run",
                 "worker": f"shard-{i}", "dur_s": 2.0,
                 "attrs": {"cpu_s": cpu_s, "max_rss_bytes": int(rss)}}
            )
        return events

    def test_report_grows_http_and_resource_sections(self):
        report = build_report(self._synthetic_events())
        http = report["http"]
        assert http["/campaigns"]["requests"] == 4
        assert http["/campaigns"]["p95_s"] <= http["/campaigns"]["max_s"] == 0.5
        assert http["/campaigns"]["statuses"] == {"200": 4}
        assert http["/healthz"]["requests"] == 1
        # CPU adds up over the runs; peak RSS is the largest run's peak.
        assert report["resource"] == {"cpu_s": 1.75, "max_rss_bytes": 60_000_000}
        # Latency covers the executed scenario spans of every worker.
        latency = report["latency"]
        assert latency["workers"] == ["shard-0", "shard-1"]
        assert latency["scenario"]["count"] == 2
        assert latency["scenario"]["p50_s"] == pytest.approx(0.3)
        assert latency["scenario"]["max_s"] == 0.4

    def test_command_readings_replace_campaign_readings(self):
        """With ``command.run`` spans in the trace, CPU is the last reading
        of each process (they are cumulative since exec), summed over pids."""
        events = self._synthetic_events()
        for t, pid, cpu_s, rss in (
            (106.0, 1, 2.0, 70e6), (107.0, 2, 0.75, 55e6), (108.0, 1, 3.0, 80e6)
        ):
            events.append(
                {"t": t, "kind": "span", "name": "command.run", "pid": pid,
                 "worker": "main", "dur_s": 2.5,
                 "attrs": {"cpu_s": cpu_s, "max_rss_bytes": int(rss)}}
            )
        report = build_report(events)
        assert report["resource"] == {"cpu_s": 3.75, "max_rss_bytes": 80_000_000}
        assert report["runs"] == 2

    def test_text_renderer_includes_new_blocks(self):
        text = format_report(build_report(self._synthetic_events()))
        assert "HTTP requests" in text
        assert "/campaigns" in text
        assert "Resource usage" in text
        assert "rss_mib" in text
        assert "Scenario latency" in text and "shard-0, shard-1" in text

    def test_sections_absent_without_matching_events(self):
        report = build_report([
            {"t": 1.0, "kind": "span", "name": "scenario", "worker": "m",
             "dur_s": 0.1, "attrs": {}}
        ])
        assert "http" not in report
        assert "resource" not in report


class TestTopView:
    def test_folds_events_and_renders(self, tmp_path):
        view = TopView(tmp_path, window_s=60.0)
        view.update(TestHttpAndResourceReportSections._synthetic_events())
        frame = view.render(now=106.0)
        assert "/campaigns" in frame
        assert "events/s" in frame
        assert "exec p95: 0.390s" in frame  # of the two executed scenario spans
        assert "resources" not in frame and "in-flight" not in frame

    def test_cli_once_frame(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        telemetry = Telemetry.create(trace, worker="main")
        telemetry.tracer.span_event("scenario", 0.25, status="ok")
        telemetry.close()
        assert main(["obs", "top", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro obs top" in out
        assert "scenarios/s" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_cli_top_missing_trace(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "top", str(tmp_path / "nope")])
