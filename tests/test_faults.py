"""Tests for deterministic fault injection and the retry vocabulary."""

import pytest

from repro import faults
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    InjectedIOFault,
    RetryPolicy,
    classify_error,
)
from repro.obs import MetricsRegistry
from repro.sweep import ResultStore, ScenarioConfig, SweepRunner


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts and ends with the env-resolved injector forgotten."""
    faults.reset()
    yield
    faults.reset()


def plan(*rules, **kwargs) -> FaultPlan:
    return FaultPlan(rules=tuple(rules), **kwargs)


class TestPlanParsing:
    def test_json_round_trip(self):
        original = plan(
            FaultRule(site="worker.simulate", kind="delay", delay_s=0.01),
            FaultRule(site="store.append", kind="crash", after=2, once=True),
            seed=7,
            state_dir="/tmp/x",
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_unknown_rule_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "worker.simulate", "sites": []})

    def test_rule_requires_site(self):
        with pytest.raises(ValueError, match="requires a 'site'"):
            FaultRule.from_dict({"kind": "error"})

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"rules": [], "sed": 1})

    def test_bad_kind_and_probability_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultRule(site="x", kind="explode")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="x", probability=0.0)

    def test_malformed_json_raises_loudly(self):
        with pytest.raises(ValueError, match="invalid fault plan JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")


class TestEnvResolution:
    def test_unset_env_means_no_injector(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.active() is None

    def test_inline_json_env(self, monkeypatch):
        p = plan(FaultRule(site="worker.simulate"))
        monkeypatch.setenv(faults.FAULTS_ENV, p.to_json())
        injector = faults.active()
        assert injector is not None
        assert injector.plan == p

    def test_plan_file_env(self, monkeypatch, tmp_path):
        p = plan(FaultRule(site="store.append", kind="delay"), seed=3)
        path = tmp_path / "plan.json"
        path.write_text(p.to_json(), encoding="utf-8")
        monkeypatch.setenv(faults.FAULTS_ENV, str(path))
        assert faults.active().plan == p

    def test_missing_plan_file_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv(faults.FAULTS_ENV, str(tmp_path / "absent.json"))
        with pytest.raises(ValueError, match="unreadable"):
            faults.active()

    def test_resolution_is_cached_per_process(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.active() is None
        # A later env change is invisible until reset(): one lookup per process.
        monkeypatch.setenv(faults.FAULTS_ENV, plan(FaultRule(site="x")).to_json())
        assert faults.active() is None
        faults.reset()
        assert faults.active() is not None


class TestFiring:
    def test_error_rule_raises_with_site_and_transience(self):
        injector = FaultInjector(plan(FaultRule(site="worker.simulate", message="boom")))
        with pytest.raises(InjectedFault, match="boom") as excinfo:
            injector.fire("worker.simulate")
        assert excinfo.value.site == "worker.simulate"
        assert excinfo.value.transient is True

    def test_io_error_rule_is_an_oserror(self):
        injector = FaultInjector(
            plan(FaultRule(site="sqlindex.refresh", error_type="io", transient=False))
        )
        with pytest.raises(InjectedIOFault) as excinfo:
            injector.fire("sqlindex.refresh")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.transient is False

    def test_times_disarms_rule(self):
        injector = FaultInjector(plan(FaultRule(site="s", times=2)))
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.fire("s")
        assert injector.fire("s") is None

    def test_after_skips_leading_calls(self):
        injector = FaultInjector(plan(FaultRule(site="s", after=2)))
        assert injector.fire("s") is None
        assert injector.fire("s") is None
        with pytest.raises(InjectedFault):
            injector.fire("s")

    def test_match_filters_on_call_attributes(self):
        injector = FaultInjector(plan(FaultRule(site="s", match={"shard": 1})))
        assert injector.fire("s", shard=0) is None
        with pytest.raises(InjectedFault):
            injector.fire("s", shard=1)

    def test_delay_rule_returns_and_counts(self):
        registry = MetricsRegistry()
        injector = FaultInjector(plan(FaultRule(site="s", kind="delay", delay_s=0.0)))
        rule = injector.fire("s", metrics=registry)
        assert rule is not None and rule.kind == "delay"
        assert registry.to_dict()["counters"]["faults.injected"] == 1

    def test_torn_write_rule_is_returned_for_caller(self):
        injector = FaultInjector(plan(FaultRule(site="store.append", kind="torn-write")))
        rule = injector.fire("store.append")
        assert rule is not None and rule.kind == "torn-write"

    def test_probability_draws_are_deterministic(self):
        def pattern():
            injector = FaultInjector(
                plan(FaultRule(site="s", probability=0.5, times=0), seed=42)
            )
            out = []
            for _ in range(32):
                try:
                    injector.fire("s")
                    out.append(0)
                except InjectedFault:
                    out.append(1)
            return out

        first, second = pattern(), pattern()
        assert first == second
        assert 0 < sum(first) < 32  # actually probabilistic, not degenerate

    def test_once_without_state_dir_caps_times_in_process(self):
        injector = FaultInjector(plan(FaultRule(site="s", times=5, once=True)))
        with pytest.raises(InjectedFault):
            injector.fire("s")
        assert injector.fire("s") is None

    def test_once_with_state_dir_holds_across_injectors(self, tmp_path):
        p = plan(FaultRule(site="s", once=True), state_dir=str(tmp_path))
        first = FaultInjector(p)
        with pytest.raises(InjectedFault):
            first.fire("s")
        # A second injector over the same plan models a respawned process:
        # the breadcrumb keeps the one-shot rule from re-firing.
        second = FaultInjector(p)
        assert second.fire("s") is None
        assert (tmp_path / "fault-rule-0.fired").exists()


class TestErrorTaxonomy:
    def test_explicit_transient_attribute_wins(self):
        assert classify_error(InjectedFault("x", transient=True)) == "transient"
        assert classify_error(InjectedFault("x", transient=False)) == "deterministic"

    def test_io_shapes_are_transient_by_default(self):
        assert classify_error(ConnectionResetError("peer")) == "transient"
        assert classify_error(OSError("disk")) == "transient"
        assert classify_error(ValueError("bad config")) == "deterministic"
        assert classify_error(KeyError("missing")) == "deterministic"


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1, max_delay_s=0.4, jitter=0.0)
        delays = [policy.delay_s(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy()
        assert policy.delay_s(2, key="abc") == policy.delay_s(2, key="abc")
        assert policy.delay_s(2, key="abc") != policy.delay_s(2, key="abd")

    def test_round_trip_and_default(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert RetryPolicy.from_dict(None) is DEFAULT_RETRY_POLICY

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)


#: Fast per-scenario retry policy so injected-failure tests stay quick.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001, max_delay_s=0.002)


class TestRunnerSelfHealing:
    def test_transient_faults_are_retried_to_success(self, tmp_path):
        faults.install(
            plan(FaultRule(site="worker.simulate", times=2, message="injected chaos"))
        )
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(store, workers=1, retry=FAST_RETRY)
        report = runner.run([ScenarioConfig(governor="power-neutral", duration_s=2.0)])
        assert report.succeeded
        assert report.failed == 0
        assert report.retried == 2
        (record,) = store.ok_records()
        assert record["attempts"] == 3
        assert record["faults_injected"] == 2

    def test_exhausted_transient_fault_fails_with_kind(self, tmp_path):
        faults.install(plan(FaultRule(site="worker.simulate", times=0)))
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(store, workers=1, retry=FAST_RETRY)
        report = runner.run([ScenarioConfig(governor="power-neutral", duration_s=2.0)])
        assert report.failed == 1
        (record,) = store.query(status="error")
        assert record["error_kind"] == "transient"
        assert record["attempts"] == FAST_RETRY.max_attempts

    def test_deterministic_faults_are_not_retried(self, tmp_path):
        faults.install(
            plan(FaultRule(site="worker.simulate", times=0, transient=False))
        )
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(store, workers=1, retry=FAST_RETRY)
        report = runner.run([ScenarioConfig(governor="power-neutral", duration_s=2.0)])
        assert report.failed == 1
        assert report.retried == 0
        (record,) = store.query(status="error")
        assert record["error_kind"] == "deterministic"
        assert record["attempts"] == 1

    def test_attempts_do_not_change_scenario_identity(self, tmp_path):
        from repro.sweep.store import strip_volatile

        config = ScenarioConfig(governor="power-neutral", duration_s=2.0)
        faults.install(plan(FaultRule(site="worker.simulate", times=1)))
        chaos_store = ResultStore(tmp_path / "chaos.jsonl")
        SweepRunner(chaos_store, workers=1, retry=FAST_RETRY).run([config])
        faults.install(None)
        clean_store = ResultStore(tmp_path / "clean.jsonl")
        SweepRunner(clean_store, workers=1).run([config])
        (chaos,) = chaos_store.ok_records()
        (clean,) = clean_store.ok_records()
        assert strip_volatile(chaos) == strip_volatile(clean)

    def test_retry_counters_reach_telemetry(self, tmp_path):
        from repro.obs import Telemetry, build_report, load_events

        faults.install(plan(FaultRule(site="worker.simulate", times=1)))
        telemetry = Telemetry.create(tmp_path / "obs")
        store = ResultStore(tmp_path / "s.jsonl")
        runner = SweepRunner(store, workers=1, retry=FAST_RETRY, telemetry=telemetry)
        runner.run([ScenarioConfig(governor="power-neutral", duration_s=2.0)])
        telemetry.close()
        counters = build_report(load_events(tmp_path / "obs"))["counters"]
        assert counters["retry.attempt"] == 1
        assert counters["faults.injected"] == 1
