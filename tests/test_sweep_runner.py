"""Tests for campaign execution: caching, resume, failures, parallelism."""

import sys
import threading
import time

import pytest

import repro.sweep.runner as runner_module
from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.sweep import (
    Axis,
    ResultStore,
    ScenarioConfig,
    SweepRunner,
    SweepSpec,
    axis_summary,
    campaign_overview,
    strip_volatile,
    table2_rows,
)
from repro.sweep.runner import _next_for_slot

#: Short simulated duration keeping each scenario ~tens of milliseconds.
DURATION_S = 5.0


def tiny_spec(governors=("power-neutral", "powersave"), seeds=(1,)) -> SweepSpec:
    return SweepSpec.grid(
        governors=list(governors),
        seeds=list(seeds),
        duration_s=DURATION_S,
    )


class TestSerialExecution:
    def test_runs_and_persists_every_cell(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(tiny_spec())
        assert report.total == 2
        assert report.executed == 2
        assert report.cached == 0
        assert report.succeeded
        assert len(store.ok_records()) == 2
        for record in store.ok_records():
            assert record["summary"]["duration_s"] == DURATION_S
            assert "instructions_billions" in record["summary"]

    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(
            store, workers=1, progress=lambda done, total, rec, cached: seen.append((done, total, cached))
        )
        runner.run(tiny_spec())
        assert seen == [(1, 2, False), (2, 2, False)]

    def test_duplicate_scenarios_deduplicated(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral", duration_s=DURATION_S)
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run([config, config, config])
        assert report.total == 1
        assert report.executed == 1


class TestCachingAndResume:
    def test_second_run_is_fully_cached(self, tmp_path):
        path = tmp_path / "s.jsonl"
        spec = tiny_spec()
        first = SweepRunner(ResultStore(path), workers=1).run(spec)
        assert first.executed == 2

        second = SweepRunner(ResultStore(path), workers=1).run(spec)
        assert second.executed == 0
        assert second.cached == 2
        assert second.succeeded
        # Cached rows aggregate identically to computed ones.
        assert len(table2_rows(second.ok_records())) == 2

    def test_report_lists_records_in_expansion_order(self, tmp_path):
        # The last cell is cached, so the cache scan reports it before the
        # cells it executes; the report still follows the spec.
        spec = tiny_spec(governors=("power-neutral", "powersave", "ondemand"))
        store = ResultStore(tmp_path / "s.jsonl")
        SweepRunner(store, workers=1).run(spec.scenarios()[-1:])
        report = SweepRunner(store, workers=1).run(spec)
        assert (report.executed, report.cached) == (2, 1)
        assert [r["scenario_id"] for r in report.records] == spec.scenario_ids()
        assert [row["scheme"] for row in table2_rows(report.records)] == [
            "Proposed Approach",
            "Linux Powersave",
            "Linux Ondemand",
        ]

    def test_resume_after_interrupt_computes_only_the_remainder(self, tmp_path):
        """Simulate an interrupted campaign: half the grid done, then resume."""
        path = tmp_path / "s.jsonl"
        full = tiny_spec(governors=("power-neutral", "powersave"), seeds=(1, 2))
        half = tiny_spec(governors=("power-neutral",), seeds=(1, 2))

        interrupted = SweepRunner(ResultStore(path), workers=1).run(half)
        assert interrupted.executed == 2

        resumed = SweepRunner(ResultStore(path), workers=1).run(full)
        assert resumed.total == 4
        assert resumed.cached == 2
        assert resumed.executed == 2
        assert {r["config"]["governor"]["kind"] for r in resumed.records} == {
            "power-neutral",
            "powersave",
        }

    def test_failed_records_are_retried_on_resume(self, tmp_path):
        # powersave is not tunable, so overrides make the worker fail cleanly.
        bad = ScenarioConfig(
            governor="powersave", duration_s=DURATION_S, governor_overrides={"v_q": 0.1}
        )
        good = ScenarioConfig(governor="powersave", duration_s=DURATION_S)
        path = tmp_path / "s.jsonl"
        report = SweepRunner(ResultStore(path), workers=1).run([bad, good])
        assert report.executed == 2
        assert report.failed == 1
        assert not report.succeeded
        failures = [r for r in report.records if r["status"] == "error"]
        assert "overrides" in failures[0]["error"]

        # The failure is persisted but not treated as complete: it reruns.
        retry = SweepRunner(ResultStore(path), workers=1).run([bad, good])
        assert retry.cached == 1  # the good cell
        assert retry.executed == 1  # the bad cell again
        assert retry.failed == 1


class TestParallelExecution:
    def test_pool_run_matches_serial_results(self, tmp_path):
        # 4 supplies (weather x seed) x 2 governors: slots run cells out of
        # order and reuse each other's supplies, and the records must not care.
        spec = SweepSpec.grid(
            governors=["power-neutral", "powersave"],
            weather=["full_sun", "cloud"],
            seeds=[1, 2],
            duration_s=DURATION_S,
        )
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        SweepRunner(serial_store, workers=1).run(spec)
        pool_store = ResultStore(tmp_path / "pool.jsonl")
        report = SweepRunner(pool_store, workers=2).run(spec)

        assert report.executed == 8
        assert report.succeeded
        for config in spec.scenarios():
            assert strip_volatile(pool_store.get(config)) == strip_volatile(
                serial_store.get(config)
            )

    def test_timeout_is_recorded_and_retried(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral", duration_s=120.0)
        path = tmp_path / "s.jsonl"
        report = SweepRunner(ResultStore(path), workers=2, timeout_s=1e-3).run([config])
        assert report.timed_out == 1
        assert not report.succeeded
        record = ResultStore(path).get(config)
        assert record["status"] == "timeout"
        assert "exceeded 0.001 s budget" in record["error"]
        assert not ResultStore(path).is_complete(config)

    def test_timeout_is_enforced_at_workers_1(self, tmp_path):
        """A timeout is a promise: even workers=1 must stop an overrunning
        scenario (the simulator loop checks the deadline inline) instead of
        silently ignoring the budget."""
        config = ScenarioConfig(governor="power-neutral", duration_s=120.0)
        report = SweepRunner(
            ResultStore(tmp_path / "s.jsonl"), workers=1, timeout_s=1e-3
        ).run([config])
        assert report.timed_out == 1
        assert not report.succeeded


class TestWorkerSlots:
    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        faults.reset()
        yield
        faults.reset()

    def test_slot_keeps_its_supply(self):
        # "c" is fresh to every slot, but this slot's warm "b" comes first.
        assert _next_for_slot(["a", "c", "b", "b"], mine={"b"}, others={"a"}) == 2

    def test_slot_takes_a_supply_no_other_slot_has(self):
        assert _next_for_slot(["a", "b", "c"], mine={"x"}, others={"a", "b"}) == 2

    def test_slot_falls_back_to_the_head(self):
        assert _next_for_slot(["a", "b"], mine={"x"}, others={"a", "b"}) == 0
        assert _next_for_slot(["a", "b"], mine=set(), others=set()) == 0

    def test_crashed_worker_yields_an_error_and_the_campaign_completes(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2))
        faults.install(
            FaultPlan(
                rules=(FaultRule(site="worker.simulate", kind="crash", once=True),),
                state_dir=str(tmp_path / "state"),
            )
        )
        path = tmp_path / "s.jsonl"
        report = SweepRunner(ResultStore(path), workers=2, timeout_s=5.0).run(spec)

        assert report.executed == 4
        assert report.timed_out == 0
        (crashed,) = [r for r in report.records if r["status"] != "ok"]
        assert crashed["status"] == "error"
        assert crashed["error_kind"] == "transient"
        assert "code 86" in crashed["error"]
        assert crashed["worker"]["pid"] > 0

        resumed = SweepRunner(ResultStore(path), workers=2, timeout_s=5.0).run(spec)
        assert resumed.cached == 3
        assert resumed.executed == 1
        assert resumed.succeeded

    def test_overrunning_worker_is_killed_at_its_deadline(self, tmp_path):
        """The slot stops its overrunning scenario at the deadline itself,
        is not killed, and runs the next scenario."""
        spec = tiny_spec(seeds=(1, 2))
        slow = spec.scenarios()[0].scenario_id
        faults.install(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="worker.simulate",
                        kind="delay",
                        delay_s=60.0,
                        match={"scenario_id": slow},
                    ),
                )
            )
        )
        seen = []

        def progress(done, total, record, cached):
            seen.append((record["status"], record["worker"]["pid"]))
            if len(seen) == 1:
                # Hold the coordinator past the slow scenario's deadline, so
                # work is still queued when its slot comes free.
                time.sleep(2.5)

        report = SweepRunner(
            ResultStore(tmp_path / "s.jsonl"), workers=2, timeout_s=2.0, progress=progress
        ).run(spec)
        assert report.timed_out == 1
        (timed_out,) = [r for r in report.records if r["status"] == "timeout"]
        assert timed_out["scenario_id"] == slow
        assert 2.0 <= timed_out["elapsed_s"] < 4.0
        slot_runs = [status for status, pid in seen if pid == timed_out["worker"]["pid"]]
        assert slot_runs[0] == "timeout"
        assert "ok" in slot_runs[1:]

    def test_inline_delay_past_the_budget_times_out_without_a_process(
        self, tmp_path, monkeypatch
    ):
        def no_slot(ctx):
            raise AssertionError("workers=1 must not start a worker process")

        monkeypatch.setattr(runner_module, "_Slot", no_slot)
        faults.install(
            FaultPlan(rules=(FaultRule(site="worker.simulate", kind="delay", delay_s=60.0),))
        )
        config = ScenarioConfig(governor="power-neutral", duration_s=DURATION_S)
        started = time.monotonic()
        report = SweepRunner(
            ResultStore(tmp_path / "s.jsonl"), workers=1, timeout_s=2.0
        ).run([config])
        assert time.monotonic() - started < 10.0
        (record,) = report.records
        assert record["status"] == "timeout"
        assert record["error"] == "scenario exceeded 2 s budget"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timed_out_scenario_is_not_retried(self, tmp_path, workers):
        # The deadline's exit is a TimeoutError, which classify_error calls
        # transient; it must still be recorded at once.
        config = ScenarioConfig(governor="power-neutral", duration_s=120.0)
        report = SweepRunner(
            ResultStore(tmp_path / "s.jsonl"), workers=workers, timeout_s=1e-3
        ).run([config])
        (record,) = report.records
        assert record["status"] == "timeout"
        assert record["attempts"] == 1
        assert report.retried == 0


class TestCampaignDeadline:
    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        faults.reset()
        yield
        faults.reset()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nothing_is_dispatched_after_the_deadline(self, tmp_path, workers):
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(store, workers=workers)

        def progress(done, total, record, cached):
            runner.stop_at(time.monotonic())

        runner.progress = progress
        with pytest.raises(TimeoutError, match="not run"):
            runner.run(tiny_spec(seeds=(1, 2, 3)))
        # The first record stopped the campaign; at workers=2 the other slot
        # may finish the scenario it was already running.
        assert 1 <= len(ResultStore(tmp_path / "s.jsonl")) <= workers

    def test_concurrent_stop_at_keeps_the_earliest_deadline(self, tmp_path):
        runner = SweepRunner(ResultStore(tmp_path / "s.jsonl"))
        deadlines = [[1000.0 + 8 * i + j for i in range(200)] for j in range(8)]

        def hand(values):
            for value in reversed(values):
                runner.stop_at(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hand, args=(d,)) for d in deadlines]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert runner.deadline == 1000.0

    def test_scenario_stopped_by_the_campaign_deadline_leaves_no_record(self, tmp_path):
        spec = tiny_spec(seeds=(1, 2))
        slow = spec.scenarios()[0].scenario_id
        faults.install(
            FaultPlan(
                rules=(
                    FaultRule(
                        site="worker.simulate",
                        kind="delay",
                        delay_s=60.0,
                        match={"scenario_id": slow},
                    ),
                )
            )
        )
        runner = SweepRunner(ResultStore(tmp_path / "s.jsonl"), workers=2, timeout_s=60.0)
        runner.stop_at(time.monotonic() + 2.0)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="1 of 4 scenario"):
            runner.run(spec)
        assert time.monotonic() - started < 10.0
        records = ResultStore(tmp_path / "s.jsonl").records()
        assert [r["status"] for r in records] == ["ok"] * 3
        assert slow not in {r["scenario_id"] for r in records}


class TestAggregation:
    def test_axis_summary_and_overview(self, tmp_path):
        spec = tiny_spec(governors=("power-neutral", "powersave"), seeds=(1, 2))
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(spec)

        rows = axis_summary(report.ok_records(), "governor")
        assert len(rows) == 2
        labels = {row["governor"] for row in rows}
        assert labels == {"Proposed Approach", "Linux Powersave"}
        for row in rows:
            assert row["n"] == 2
            assert row["on_time_p50"] <= row["on_time_p95"] or row["on_time_p50"] == pytest.approx(
                row["on_time_p95"]
            )

        overview = campaign_overview(report.records)
        assert overview["scenarios"] == 4
        assert overview["ok"] == 4
        assert overview["simulated_s"] == pytest.approx(4 * DURATION_S)

    def test_overview_sums_worker_cpu_not_wall_time(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(tiny_spec())
        records = report.ok_records()
        for record in records:
            cpu_s = record["timings"]["cpu_s"]
            assert 0.0 < cpu_s <= record["elapsed_s"] + 0.05
        overview = campaign_overview(records)
        assert overview["worker_cpu_s"] == pytest.approx(
            sum(r["timings"]["cpu_s"] for r in records)
        )
        assert overview["scenario_wall_s"] == pytest.approx(sum(r["elapsed_s"] for r in records))

    def test_table2_rows_shape(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = SweepRunner(store, workers=1).run(tiny_spec())
        rows = table2_rows(report.ok_records())
        for row in rows:
            assert set(row) == {
                "scheme",
                "avg_performance_render_per_min",
                "lifetime_mm_ss",
                "instructions_billions",
                "survived",
            }
