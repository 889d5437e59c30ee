"""Tests for the run ledger, ``obs diff`` regression gating and merged
histograms (repro.obs.history / .diff / .timeseries)."""

import json
import math

import pytest

from repro.cli import main
from repro.obs import (
    DiffThresholds,
    RunLedger,
    RunSummary,
    diff_summaries,
    format_diff,
    ledger_path,
    load_events,
    run_provenance,
    summarize_run,
)
from repro.obs.promexport import render_prometheus
from repro.obs.timeseries import Histogram, RollingWindow, exact_quantile

DURATION_S = 4.0


def summary(**overrides) -> RunSummary:
    """A baseline-shaped RunSummary for diff tests."""
    base = dict(
        kind="sweep",
        t=1000.0,
        campaign="abc123",
        engine="fast",
        repro_version="1.0.0",
        trace_dir="/tmp/a",
        wall_s=10.0,
        scenarios=4,
        executed=4,
        cached=0,
        cache_hit_ratio=0.0,
        throughput_sps=2.0,
        phases={"execute": 8.0, "expand": 0.5},
        scenario_latency={"count": 4, "p50_s": 1.0, "p95_s": 2.0, "p99_s": 2.0,
                          "max_s": 2.0, "mean_s": 1.2, "workers": ["main"]},
        counters={},
    )
    base.update(overrides)
    return RunSummary(**base)


# ----------------------------------------------------------------------
# RunLedger + provenance
# ----------------------------------------------------------------------
class TestRunLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "store.jsonl.ledger.jsonl")
        assert len(ledger) == 0 and ledger.last() is None
        ledger.append(summary(campaign="one"))
        ledger.append(summary(campaign="two", throughput_sps=3.5))
        entries = ledger.entries()
        assert [e.campaign for e in entries] == ["one", "two"]
        assert ledger.last().throughput_sps == 3.5
        # every line is complete, compact JSON
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["schema"] == 1 for line in lines)

    def test_torn_lines_are_skipped_and_healed(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = json.dumps(summary(campaign="ok").to_dict())
        path.write_text(good + "\n{torn garba")  # no trailing newline
        ledger = RunLedger(path)
        assert [e.campaign for e in ledger.entries()] == ["ok"]
        ledger.append(summary(campaign="fresh"))
        # the torn tail was newline-healed, so the new line parses
        assert [e.campaign for e in ledger.entries()] == ["ok", "fresh"]

    def test_ledger_path_sits_next_to_store(self, tmp_path):
        assert ledger_path(tmp_path / "c.jsonl") == tmp_path / "c.jsonl.ledger.jsonl"

    def test_provenance_carries_version_and_machine(self):
        prov = run_provenance()
        assert prov["repro_version"]
        assert prov["python"] and prov["machine"]
        # returned as a copy: annotations must not leak between callers
        prov["annotation"] = "x"
        assert "annotation" not in run_provenance()


# ----------------------------------------------------------------------
# summarize_run over a real two-shard trace: the latency quantiles cover
# every process that traced into the directory.
# ----------------------------------------------------------------------
class TestSummarizeRun:
    def test_two_shard_workers_both_feed_the_latency_quantiles(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        for index in (0, 1):
            argv = [
                "shard", "--governors", "power-neutral,powersave",
                "--weather", "full_sun,cloud", "--capacitance-mf", "47",
                "--duration", str(DURATION_S), "--quiet",
                "--num-shards", "2", "--shard-index", str(index),
                "--store", str(tmp_path / f"shard-{index}.jsonl"),
                "--trace", str(trace_dir),
            ]
            assert main(argv) == 0
        capsys.readouterr()
        # the trace is the only per-process output: no metrics mirrors
        assert [p.name for p in trace_dir.iterdir() if not p.name.startswith("trace-")] == []

        doc = summarize_run(trace_dir, kind="shard", engine="fast")
        latency = doc.scenario_latency
        assert latency["workers"] == ["shard-0", "shard-1"]
        # every executed scenario span is in the quantiles: the count is the
        # sum over both shards, not any single worker's view
        durations = [
            e["dur_s"] for e in load_events(trace_dir)
            if e["kind"] == "span" and e["name"] == "scenario" and not e["attrs"]["cached"]
        ]
        assert latency["count"] == len(durations) == 4
        assert latency["p95_s"] == exact_quantile(durations, 0.95)
        assert latency["p95_s"] >= latency["p50_s"] > 0
        # CPU sums both shards' campaign.run stamps
        assert doc.resource["cpu_s"] > 0 and doc.resource["rss_peak_bytes"] > 0
        assert doc.executed == 4 and doc.scenarios == 4
        assert doc.throughput_sps > 0
        assert doc.repro_version == run_provenance()["repro_version"]
        assert "execute" in doc.phases

    def test_missing_or_empty_trace_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize_run(tmp_path / "nowhere")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            summarize_run(empty)


# ----------------------------------------------------------------------
# diff_summaries: the regression gate
# ----------------------------------------------------------------------
class TestDiffSummaries:
    def test_identical_runs_are_ok(self):
        doc = diff_summaries(summary(), summary())
        assert doc["ok"] is True and doc["regressions"] == []
        assert "OK" in format_diff(doc)

    def test_p95_regression_beyond_threshold(self):
        slow = summary(
            scenario_latency={"count": 4, "p50_s": 1.0, "p95_s": 2.6, "p99_s": 2.6,
                              "max_s": 2.6, "mean_s": 1.4, "workers": ["main"]},
        )
        doc = diff_summaries(summary(), slow)  # +30% > default 20%
        assert doc["ok"] is False
        assert any("p95" in r["metric"] for r in doc["regressions"])
        assert "REGRESSION" in format_diff(doc)

    def test_throughput_drop_beyond_threshold(self):
        doc = diff_summaries(summary(), summary(throughput_sps=1.0))  # -50%
        assert doc["ok"] is False
        assert any("throughput" in r["metric"] for r in doc["regressions"])

    def test_phase_blowup_beyond_threshold(self):
        doc = diff_summaries(summary(), summary(phases={"execute": 16.0}))
        assert doc["ok"] is False
        assert any("execute" in r["metric"] for r in doc["regressions"])

    def test_exhausted_retries_always_regress(self):
        doc = diff_summaries(summary(), summary(counters={"retry.exhausted": 1}))
        assert doc["ok"] is False
        assert any("retry.exhausted" in r["metric"] for r in doc["regressions"])

    def test_missing_metrics_on_either_side_never_regress(self):
        # a warm (all-cached) candidate has no execute phase, no latency and
        # no throughput — that is a cache win, not a performance regression
        warm = summary(
            executed=0, cached=4, cache_hit_ratio=1.0, throughput_sps=None,
            phases={"expand": 0.4}, scenario_latency={},
        )
        assert diff_summaries(summary(), warm)["ok"] is True
        # and a cold candidate against a warm baseline has nothing to gate on
        assert diff_summaries(warm, summary())["ok"] is True

    def test_custom_thresholds_tighten_the_gate(self):
        slow = summary(
            scenario_latency={"count": 4, "p50_s": 1.0, "p95_s": 2.2, "p99_s": 2.2,
                              "max_s": 2.2, "mean_s": 1.2, "workers": ["main"]},
        )
        assert diff_summaries(summary(), slow)["ok"] is True  # +10% < 20%
        tight = DiffThresholds(p95_pct=5.0)
        assert diff_summaries(summary(), slow, thresholds=tight)["ok"] is False


# ----------------------------------------------------------------------
# obs diff CLI exit semantics: 0 ok / 1 regression / 2 unusable input
# ----------------------------------------------------------------------
class TestObsDiffCli:
    def _write_trace(self, trace_dir, events):
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / "trace-main-1.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))

    def _events(self, execute_s):
        return [
            {"t": 100.0, "kind": "span", "name": "campaign.run",
             "dur_s": execute_s + 0.2, "pid": 1, "worker": "main",
             "attrs": {"total": 2, "executed": 2, "cached": 0}},
            {"t": 100.1, "kind": "span", "name": "campaign.phase",
             "dur_s": execute_s, "pid": 1, "worker": "main",
             "attrs": {"phase": "execute"}},
            {"t": 100.2, "kind": "span", "name": "scenario", "dur_s": execute_s / 2,
             "pid": 1, "worker": "main",
             "attrs": {"scenario_id": "a", "status": "ok", "cached": False}},
            {"t": 100.3, "kind": "span", "name": "scenario", "dur_s": execute_s / 2,
             "pid": 1, "worker": "main",
             "attrs": {"scenario_id": "b", "status": "ok", "cached": False}},
        ]

    def test_exit_zero_on_par_and_one_on_regression(self, tmp_path, capsys):
        self._write_trace(tmp_path / "a", self._events(1.0))
        self._write_trace(tmp_path / "b", self._events(1.05))
        self._write_trace(tmp_path / "slow", self._events(4.0))
        assert main(["obs", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert main(["obs", "diff", str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "throughput_sps" in out

    def test_json_document_for_ci(self, tmp_path, capsys):
        self._write_trace(tmp_path / "a", self._events(1.0))
        self._write_trace(tmp_path / "b", self._events(1.0))
        argv = ["obs", "diff", str(tmp_path / "a"), str(tmp_path / "b"), "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert {"a", "b", "thresholds", "rows", "regressions"} <= set(doc)

    def test_exit_two_on_missing_trace_or_arguments(self, tmp_path, capsys):
        self._write_trace(tmp_path / "a", self._events(1.0))
        assert main(["obs", "diff", str(tmp_path / "a"), str(tmp_path / "no")]) == 2
        assert main(["obs", "diff", str(tmp_path / "a")]) == 2  # no candidate
        err = capsys.readouterr().err
        assert "no trace" in err and "--against-ledger" in err

    def test_against_ledger_uses_last_other_entry(self, tmp_path, capsys):
        self._write_trace(tmp_path / "slow", self._events(4.0))
        ledger = tmp_path / "ledger.jsonl"
        RunLedger(ledger).append(
            summarize_run(self._seed_baseline(tmp_path), kind="sweep")
        )
        argv = ["obs", "diff", str(tmp_path / "slow"), "--against-ledger", str(ledger)]
        assert main(argv) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # an empty ledger is unusable input, not a pass
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert main(["obs", "diff", str(tmp_path / "slow"),
                     "--against-ledger", str(empty)]) == 2

    def _seed_baseline(self, tmp_path):
        self._write_trace(tmp_path / "base", self._events(1.0))
        return tmp_path / "base"

    def test_threshold_flags_are_honoured(self, tmp_path):
        self._write_trace(tmp_path / "a", self._events(1.0))
        self._write_trace(tmp_path / "b", self._events(1.3))  # +30% execute
        # a slower execute phase also means lower throughput and slower
        # scenario spans: widen those gates so each flag's effect is
        # observed in isolation
        base = ["obs", "diff", str(tmp_path / "a"), str(tmp_path / "b"),
                "--throughput-threshold", "90", "--p95-threshold", "90"]
        assert main([*base, "--phase-threshold", "50"]) == 0
        assert main([*base, "--phase-threshold", "20"]) == 1


# ----------------------------------------------------------------------
# Merged histograms through the Prometheus exposition
# ----------------------------------------------------------------------
class TestMergedHistogramExposition:
    def test_merge_keeps_cumulative_buckets_monotone(self):
        boundaries = [0.1, 0.5, 1.0, 5.0]
        workers = {"shard-0": [0.05, 0.3, 0.7], "shard-1": [0.4, 2.0, 9.0, 0.08]}
        histograms = []
        for samples in workers.values():
            histogram = Histogram(boundaries=boundaries)
            for value in samples:
                histogram.observe(value)
            histograms.append(Histogram.from_dict(histogram.to_dict()))
        combined = histograms[0]
        combined.merge(histograms[1])
        total = sum(len(s) for s in workers.values())
        assert combined.count == total

        pairs = combined.cumulative_buckets()
        counts = [count for _edge, count in pairs]
        assert counts == sorted(counts)  # monotone non-decreasing
        assert pairs[-1] == (math.inf, total)  # le="+Inf" holds everything

        exposition = render_prometheus({"histograms": {
            "scenario_duration_seconds": combined.to_dict()
        }})
        bucket_values = [
            float(line.rsplit(" ", 1)[1])
            for line in exposition.splitlines()
            if line.startswith("scenario_duration_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert bucket_values[-1] == total
        assert f"scenario_duration_seconds_count {total}" in exposition

    def test_divergent_boundaries_keep_first_series(self):
        first = Histogram(boundaries=[0.1, 1.0])
        first.observe(0.5)
        second = Histogram(boundaries=[0.2, 2.0])
        second.observe(0.5)
        with pytest.raises(ValueError, match="boundaries"):
            first.merge(second)
        assert first.count == 1 and first.counts == [0, 1, 0]  # left untouched


# ----------------------------------------------------------------------
# RollingWindow eviction at the exact window boundary
# ----------------------------------------------------------------------
class TestRollingWindowBoundary:
    def test_sample_aged_exactly_window_s_is_kept(self):
        window = RollingWindow(window_s=60.0)
        window.observe(1.0, t=100.0)
        window.observe(2.0, t=130.0)
        # at now=160 the first sample is exactly 60 s old: still in
        assert window.values(now=160.0) == [1.0, 2.0]
        assert len(window) == 2
        # one instant past the boundary it is evicted
        window.observe(3.0, t=160.0 + 1e-6)
        assert window.values(now=160.0 + 1e-6) == [2.0, 3.0]

    def test_quantile_only_sees_surviving_samples(self):
        window = RollingWindow(window_s=10.0)
        window.observe(100.0, t=0.0)
        for i in range(5):
            window.observe(1.0, t=20.0 + i)
        assert window.quantile(0.95, now=30.0) == 1.0  # the 100.0 aged out

