"""Tests for the campaign service (repro.serve): config, submission parsing,
and the HTTP service end to end on an ephemeral port."""

import json
import time
import urllib.error
import urllib.request

import pytest

import repro.sweep.runner as runner_module
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServiceThread,
    parse_submission,
)
from repro.serve.scheduler import MAX_SCENARIO_DURATION_S
from repro.sweep import BoundaryQuery, build_boundary_preset, build_preset
from repro.sweep.spec import Axis, ScenarioConfig, SweepSpec

from test_sweep_adaptive import fake_executor  # noqa: F401 — shared helper


def smoke_spec():
    return build_preset("dist-smoke", duration_s=2.0)


def huge_spec():
    """A 10**9-cell grid: three axes of 1,000 values."""
    return SweepSpec(
        base=ScenarioConfig(governor="power-neutral"),
        axes=(
            Axis("supply.seed", range(1000)),
            Axis("capacitor.capacitance_f", [(i + 1) * 1e-4 for i in range(1000)]),
            Axis("duration_s", range(1, 1001)),
        ),
    )


def overlong_spec():
    """One cell that would simulate a second longer than the cap."""
    return SweepSpec(
        base=ScenarioConfig(governor="power-neutral", duration_s=MAX_SCENARIO_DURATION_S + 1)
    )


class TestServeConfig:
    def test_base_url_is_normalised(self):
        config = ServeConfig(base_url="http://localhost:9000/")
        assert config.base_url == "http://localhost:9000"
        assert config.url("/healthz") == "http://localhost:9000/healthz"
        assert config.url("healthz") == "http://localhost:9000/healthz"

    def test_for_host(self):
        config = ServeConfig.for_host("10.0.0.5", 8080)
        assert config.base_url == "http://10.0.0.5:8080"

    def test_headers_carry_token_and_extras(self):
        config = ServeConfig(
            base_url="http://x",
            api_token="sesame",
            extra_headers={"X-Lab": "pv"},
        )
        headers = config.build_headers("application/json")
        assert headers["Authorization"] == "Bearer sesame"
        assert headers["Content-Type"] == "application/json"
        assert headers["X-Lab"] == "pv"

    def test_rejects_bad_timeouts(self):
        with pytest.raises(ValueError):
            ServeConfig(base_url="http://x", timeout_s=0)
        with pytest.raises(ValueError):
            ServeConfig(base_url="http://x", poll_interval_s=-1)


class TestParseSubmission:
    def test_preset_by_name(self):
        kind, snapshot, campaign_id, ids = parse_submission({"preset": "dist-smoke"})
        assert kind == "sweep"
        assert campaign_id == build_preset("dist-smoke").campaign_hash()
        assert len(ids) == 4

    def test_explicit_sweep_spec(self):
        spec = smoke_spec()
        kind, snapshot, campaign_id, ids = parse_submission(
            {"kind": "sweep", "spec": spec.to_dict()}
        )
        assert kind == "sweep"
        assert campaign_id == spec.campaign_hash()
        assert snapshot == spec.to_dict()

    def test_bare_sweep_snapshot(self):
        spec = smoke_spec()
        kind, _snapshot, campaign_id, _ids = parse_submission(spec.to_dict())
        assert kind == "sweep" and campaign_id == spec.campaign_hash()

    def test_bare_boundary_snapshot_is_inferred(self):
        query = build_boundary_preset("min-capacitance")
        kind, _snapshot, campaign_id, ids = parse_submission(query.to_dict())
        assert kind == "boundary"
        assert campaign_id == query.query_hash()
        assert ids == ()  # probes are discovered during the search

    def test_oversized_sweep_is_refused_without_expanding(self, monkeypatch):
        def no_expansion(self):
            raise AssertionError("the sweep was expanded")

        monkeypatch.setattr(SweepSpec, "iter_scenarios", no_expansion)
        snapshot = huge_spec().to_dict()
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="cells"):
            parse_submission(snapshot)
        assert time.perf_counter() - t0 < 0.05

    def test_overlong_base_duration_is_refused_without_expanding(self, monkeypatch):
        at_cap = SweepSpec(
            base=ScenarioConfig(governor="power-neutral", duration_s=MAX_SCENARIO_DURATION_S)
        )
        assert len(parse_submission(at_cap.to_dict())[3]) == 1

        def no_expansion(self):
            raise AssertionError("the sweep was expanded")

        monkeypatch.setattr(SweepSpec, "iter_scenarios", no_expansion)
        with pytest.raises(ValueError, match="per scenario"):
            parse_submission(overlong_spec().to_dict())

    def test_overlong_duration_axis_value_is_refused(self):
        spec = SweepSpec(
            base=ScenarioConfig(governor="power-neutral"),
            axes=(Axis("duration_s", [60.0, MAX_SCENARIO_DURATION_S + 1]),),
        )
        with pytest.raises(ValueError, match="per scenario"):
            parse_submission({"kind": "sweep", "spec": spec.to_dict()})
        junk = spec.to_dict()
        junk["axes"] = [{"name": "duration_s", "values": [60.0, None]}]
        with pytest.raises(ValueError, match="must be a number"):
            parse_submission(junk)

    def test_overlong_boundary_hi_is_refused(self):
        base = ScenarioConfig(governor="power-neutral", duration_s=10.0)
        query = BoundaryQuery(base=base, path="duration_s", lo=10.0, hi=2 * MAX_SCENARIO_DURATION_S)
        with pytest.raises(ValueError, match="per scenario"):
            parse_submission(query.to_dict())
        # The bracket may grow above hi: its furthest reach counts too.
        growing = BoundaryQuery(base=base, path="duration_s", lo=10.0, hi=600.0)
        with pytest.raises(ValueError, match="per scenario"):
            parse_submission(growing.to_dict())
        fixed = BoundaryQuery(
            base=base, path="duration_s", lo=10.0, hi=600.0, max_expansions=0
        )
        assert parse_submission(fixed.to_dict())[0] == "boundary"

    def test_junk_is_rejected(self):
        with pytest.raises(ValueError):
            parse_submission({"hello": "world"})
        with pytest.raises(ValueError):
            parse_submission({"preset": "no-such-preset"})
        with pytest.raises(ValueError):
            parse_submission([1, 2, 3])


class TestServiceEndToEnd:
    def test_sweep_campaign_lifecycle(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        spec = smoke_spec()
        with ServiceThread(store_path=store_path, port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            health = client.health()
            assert health["status"] == "ok" and health["campaigns"] == 0

            submitted = client.submit(spec)
            assert submitted["created"] is True
            campaign_id = submitted["id"]
            assert campaign_id == spec.campaign_hash()

            done = client.wait(campaign_id, timeout_s=180)
            assert done["state"] == "done"
            assert done["result"]["executed"] == 4
            assert done["result"]["succeeded"] is True

            # Identical resubmission: same campaign, nothing scheduled.
            again = client.submit(spec)
            assert again["id"] == campaign_id
            assert again["created"] is False and again["cached"] is True
            assert again["executed"] == 0
            assert again["campaign"]["submissions"] == 2

            # Records come back filtered, series stripped.
            records = client.records(campaign_id, status="ok")
            assert len(records) == 4
            assert all("series" not in r for r in records)
            survivors = client.records(campaign_id, status="ok", survived=True)
            assert 0 < len(survivors) <= 4

            aggregate = client.aggregate(campaign_id)
            assert aggregate["records"] == 4
            assert aggregate["overview"]["scenarios"] == 4
            assert len(aggregate["rows"]) == 4
            assert set(aggregate["axes"]) == {"governor", "supply.weather"}
            assert len(aggregate["axes"]["governor"]) == 2

            # The SSE stream replays the campaign's phases then ends.
            events = list(client.events(campaign_id, timeout_s=60))
            names = [e["event"] for e in events]
            phases = [
                e["data"].get("attrs", {}).get("phase")
                for e in events
                if e["event"] == "campaign.phase"
            ]
            assert names[-1] == "end"
            assert phases == ["expand", "cache-scan", "execute"]

    def test_warm_resubmission_on_fresh_service_executes_nothing(self, tmp_path):
        """A brand-new service over an existing store re-serves the campaign
        from cache: the content-addressed records make the re-run free."""
        store_path = tmp_path / "store.jsonl"
        spec = smoke_spec()
        with ServiceThread(store_path=store_path, port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            done = client.submit_and_wait(spec, timeout_s=180)
            assert done["result"]["executed"] == 4

        with ServiceThread(store_path=store_path, port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            submitted = client.submit(spec)
            assert submitted["created"] is True  # new process, same content hash
            assert submitted["id"] == spec.campaign_hash()
            done = client.wait(submitted["id"], timeout_s=180)
            assert done["state"] == "done"
            assert done["result"]["executed"] == 0
            assert done["result"]["cached"] == 4

    def test_boundary_campaign_round_trip(self, tmp_path, monkeypatch):
        def survived(config):
            return config.capacitance_f >= 0.02

        monkeypatch.setattr(runner_module, "_execute_payload", fake_executor(survived))
        query = build_boundary_preset("min-capacitance")
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            submitted = client.submit(query)
            assert submitted["id"] == query.query_hash()
            done = client.wait(submitted["id"], timeout_s=180)
            assert done["state"] == "done"
            assert done["kind"] == "boundary"
            assert done["result"]["succeeded"] is True
            assert done["scenarios"] > 0  # probes registered as they ran
            records = client.records(submitted["id"], status="ok")
            assert 0 < len(records) == done["scenarios"]

    def test_errors_and_auth(self, tmp_path):
        with ServiceThread(
            store_path=tmp_path / "store.jsonl", port=0, workers=1, token="sesame"
        ) as service:
            anonymous = ServeClient(ServeConfig(base_url=service.base_url))
            assert anonymous.health()["status"] == "ok"  # healthz is exempt
            with pytest.raises(ServeError) as err:
                anonymous.campaigns()
            assert err.value.status == 401

            client = ServeClient(
                ServeConfig(base_url=service.base_url, api_token="sesame")
            )
            assert client.campaigns() == []
            with pytest.raises(ServeError) as err:
                client.campaign("no-such-id")
            assert err.value.status == 404
            for payload in ({"nonsense": True}, huge_spec(), overlong_spec()):
                with pytest.raises(ServeError) as err:
                    client.submit(payload)
                assert err.value.status == 400

            done = client.submit_and_wait(smoke_spec(), timeout_s=180)
            for query in ({"bogus_filter": "x"}, {"limit": -1}, {"offset": -5}):
                with pytest.raises(ServeError) as err:
                    client.records(done["id"], **query)
                assert err.value.status == 400, query

    def test_plain_http_surface(self, tmp_path):
        """The endpoints answer plain urllib GETs (the curl surface)."""
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            with urllib.request.urlopen(f"{service.base_url}/healthz", timeout=30) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
            for path in ("/no-such", "/alerts"):
                request = urllib.request.Request(f"{service.base_url}{path}", method="GET")
                try:
                    urllib.request.urlopen(request, timeout=30)
                except urllib.error.HTTPError as exc:
                    assert exc.code == 404, path
                else:
                    raise AssertionError(f"expected a 404 for {path}")


# ----------------------------------------------------------------------
# PR 8: service-level observability — probes, Prometheus exposition, the
# dashboard, request histograms and graceful shutdown.
# ----------------------------------------------------------------------

import asyncio  # noqa: E402

from repro.obs.promexport import PROMETHEUS_CONTENT_TYPE  # noqa: E402
from repro.serve import CampaignScheduler, route_template  # noqa: E402
from repro.serve.scheduler import TERMINAL_STATES  # noqa: E402
from repro.sweep import ResultStore  # noqa: E402


class TestRouteTemplating:
    def test_known_routes_pass_through(self):
        for path in ("/healthz", "/readyz", "/metrics", "/dashboard", "/campaigns"):
            assert route_template(path) == path

    def test_campaign_ids_collapse(self):
        assert route_template("/campaigns/abc123") == "/campaigns/{id}"
        assert route_template("/campaigns/abc123/records") == "/campaigns/{id}/records"
        assert route_template("/campaigns/x/events") == "/campaigns/{id}/events"
        assert route_template("/campaigns/x/aggregate") == "/campaigns/{id}/aggregate"

    def test_junk_is_bounded(self):
        # unknown paths share one label: request metrics stay bounded however
        # creative the client
        assert route_template("/etc/passwd") == "/other"
        assert route_template("/alerts") == "/other"
        assert route_template("/campaigns/x/nonsense") == "/other"
        assert route_template("/") == "/other"


class TestObservabilityEndpoints:
    def test_probes_prometheus_and_dashboard(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        spec = smoke_spec()
        with ServiceThread(
            store_path=store_path, port=0, workers=1, trace_dir=tmp_path / "trace",
        ) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            ready = client.ready()
            assert ready["status"] == "ready"
            assert ready["checks"] == {
                "scheduler_alive": True, "not_draining": True, "store_open": True,
            }

            done = client.submit_and_wait(spec, timeout_s=180)
            campaign_id = done["id"]

            # --- Prometheus exposition over the live registry -------------
            with urllib.request.urlopen(
                f"{service.base_url}/metrics?format=prometheus", timeout=30
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
                text = resp.read().decode("utf-8")
            assert "# TYPE http_request_duration_seconds histogram" in text
            assert "http_request_duration_seconds_bucket" in text
            assert "process_resident_memory_bytes" in text

            # cumulative buckets per series: monotone, ending at +Inf == count
            series: dict = {}
            for line in text.splitlines():
                if line.startswith("http_request_duration_seconds_bucket"):
                    labels, value = line.rsplit(" ", 1)
                    key = labels.split('route="', 1)[1].split('"', 1)[0]
                    series.setdefault(key, []).append(float(value))
            assert series  # at least one route measured
            for route, counts in series.items():
                assert counts == sorted(counts), route

            # --- request histograms: p95 can never exceed the max observed
            metrics = client.metrics()
            http_series = {
                key: doc for key, doc in metrics["histograms"].items()
                if key.startswith("http_request_duration_seconds")
            }
            assert http_series
            assert any('route="/campaigns/{id}"' in key for key in http_series)
            for key, doc in http_series.items():
                assert doc["quantiles"]["p95"] <= doc["max"], key
            assert metrics["gauges"]["http_requests_in_flight"] >= 0
            assert metrics["gauges"]["process_resident_memory_bytes"] > 0

            # --- the dashboard references live campaign data --------------
            html = client.dashboard()
            assert html.lstrip().startswith("<!DOCTYPE html>")
            assert campaign_id in html  # server-side bootstrap carries it
            # every result field the campaign table prints is one the result has
            shown = set(re.findall(r"\$\{r\.(\w+) \?\?", html))
            assert {"executed", "cached"} <= shown <= set(done["result"]), shown
            assert str(store_path) in html
            assert "/campaigns" in html and "EventSource" in html
            # no alert surface: a fetch of the unknown /alerts route inside
            # poll()'s Promise.all would reject every poll
            for gone in ("/alerts", "kpi-alerts", "budget"):
                assert gone not in html, gone

            # the service's own trace carries the request spans obs top reads
            assert list((tmp_path / "trace").glob("trace-serve-*.jsonl"))

    def test_service_metrics_survive_in_data_dir_snapshot(self, tmp_path):
        """stop() leaves the registry, process gauges included, in the data dir."""
        snapshot = tmp_path / "data" / "metrics.json"
        with ServiceThread(
            store_path=tmp_path / "store.jsonl", data_dir=tmp_path / "data",
            port=0, workers=1,
        ) as service:
            ServeClient(ServeConfig(base_url=service.base_url)).health()
            assert not snapshot.exists()  # written once, at stop()
        doc = json.loads(snapshot.read_text(encoding="utf-8"))
        assert doc["gauges"]["process_resident_memory_bytes"] > 0
        assert doc["gauges"]["process_cpu_seconds_total"] > 0
        assert any(key.startswith("http_requests_total") for key in doc["counters"])

    def test_metrics_read_process_gauges_at_scrape_time(self, tmp_path):
        """/metrics answers a growing CPU counter with no sampler thread."""
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            before = client.metrics()["gauges"]["process_cpu_seconds_total"]
            burn_until = time.process_time() + 0.2
            while time.process_time() < burn_until:
                pass
            after = client.metrics()["gauges"]["process_cpu_seconds_total"]
            assert after >= before + 0.15
            assert "repro-resource-sampler" not in {t.name for t in threading.enumerate()}

    def test_readyz_exempt_from_auth(self, tmp_path):
        with ServiceThread(
            store_path=tmp_path / "store.jsonl", port=0, workers=1, token="sesame"
        ) as service:
            anonymous = ServeClient(ServeConfig(base_url=service.base_url))
            assert anonymous.ready()["status"] == "ready"
            with pytest.raises(ServeError) as err:
                anonymous.dashboard()  # the dashboard itself is protected
            assert err.value.status == 401


class TestGracefulShutdown:
    def test_drain_fails_queued_refuses_new_and_readyz_reflects_it(self, tmp_path):
        async def scenario():
            store = ResultStore(tmp_path / "s.jsonl")
            scheduler = CampaignScheduler(store, tmp_path / "data")
            assert scheduler.alive is False  # worker not started yet
            campaign, created = await scheduler.submit({"preset": "dist-smoke"})
            assert created and campaign.state == "queued"
            await scheduler.drain()
            assert scheduler.draining is True
            assert campaign.state == "failed"
            assert "before campaign started" in campaign.error
            with pytest.raises(RuntimeError, match="draining"):
                await scheduler.submit({"preset": "dist-smoke"})

        asyncio.run(scenario())

    def test_shutdown_completes_running_campaign(self, tmp_path):
        """shutdown() lets the in-flight campaign finish: its records are in
        the shared store, so abandoning it would waste paid-for work."""
        spec = smoke_spec()
        service = ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1)
        service.start()
        try:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            submitted = client.submit(spec)
            campaign_id = submitted["id"]
            # shut down while the campaign runs; drain must let it finish
            service.shutdown(timeout_s=180)
            campaign = service.service.scheduler.get(campaign_id)
            assert campaign.state == "done"
            assert campaign.result["executed"] == 4
            with pytest.raises(ServeError):
                client.health()  # the listener is gone
        finally:
            service.stop()

    def test_submit_during_drain_is_503(self, tmp_path):
        from repro.faults import RetryPolicy
        from repro.serve.handlers import DRAIN_RETRY_AFTER_S

        service = ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1)
        service.start()
        try:
            # One attempt: this test inspects the 503 itself, not the retry.
            client = ServeClient(
                ServeConfig(base_url=service.base_url),
                retry=RetryPolicy(max_attempts=1),
            )
            # flip the scheduler into draining without tearing the listener
            # down, then exercise the HTTP surface of the drain
            service.service.scheduler.draining = True
            with pytest.raises(ServeError) as err:
                client.submit(smoke_spec())
            assert err.value.status == 503
            assert err.value.retryable
            assert err.value.retry_after_s == float(DRAIN_RETRY_AFTER_S)
            assert err.value.payload["draining"] is True
            ready = client.ready()
            assert ready["status"] == "unavailable"
            assert ready["checks"]["not_draining"] is False
            assert ready["draining"] is True
            # The Retry-After header is on the wire for /readyz too.
            try:
                urllib.request.urlopen(service.base_url + "/readyz")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                assert exc.headers["Retry-After"] == str(DRAIN_RETRY_AFTER_S)
            else:
                raise AssertionError("expected a 503 from /readyz while draining")
        finally:
            service.stop()


class TestSchedulerSupervision:
    """The worker task is supervised: an injected death restarts it, queued
    campaigns survive, and a wedged campaign is failed by the watchdog."""

    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        from repro import faults

        faults.reset()
        yield
        faults.reset()

    def test_injected_worker_death_is_restarted_and_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        from repro import faults
        from repro.faults import FaultPlan, FaultRule
        from repro.obs import MetricsRegistry

        faults.install(
            FaultPlan(
                rules=(
                    FaultRule(site="serve.scheduler", message="injected scheduler death"),
                )
            )
        )
        monkeypatch.setattr(
            CampaignScheduler,
            "_execute",
            lambda self, campaign: {"kind": "sweep", "succeeded": True},
        )

        async def scenario():
            registry = MetricsRegistry()
            scheduler = CampaignScheduler(
                ResultStore(tmp_path / "s.jsonl"), tmp_path / "data", metrics=registry
            )
            await scheduler.start()
            campaign, created = await scheduler.submit({"preset": "dist-smoke"})
            assert created
            deadline = time.monotonic() + 30
            while campaign.state not in TERMINAL_STATES:
                assert time.monotonic() < deadline, "campaign never finished"
                await asyncio.sleep(0.01)
            assert campaign.state == "done"
            # The first worker incarnation died to the injected fault before
            # it could dequeue; the supervisor's replacement ran the campaign.
            assert scheduler.restarts >= 1
            assert scheduler.alive
            counters = registry.to_dict()["counters"]
            assert counters["scheduler.restart"] >= 1
            assert counters["faults.injected"] >= 1
            await scheduler.stop()

        asyncio.run(scenario())

    @staticmethod
    def _wedge_first_scenario(spec) -> None:
        """Delay the first scenario of ``spec`` far past any budget."""
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        wedged = spec.scenarios()[0].scenario_id
        rule = FaultRule(
            site="worker.simulate", kind="delay", delay_s=60.0, match={"scenario_id": wedged}
        )
        faults.install(FaultPlan(rules=(rule,)))

    @staticmethod
    def _lines_of(store_path, scenario_ids) -> int:
        if not store_path.exists():
            return 0
        lines = store_path.read_text(encoding="utf-8").splitlines()
        return sum(json.loads(line)["scenario_id"] in scenario_ids for line in lines)

    def test_watchdog_fails_wedged_campaign_and_queue_moves_on(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import MetricsRegistry

        stuck_spec = build_preset("dist-smoke")
        self._wedge_first_scenario(stuck_spec)
        store_path = tmp_path / "s.jsonl"
        stuck_ids = set(stuck_spec.scenario_ids())
        executions = []
        execute = CampaignScheduler._execute

        def traced_execute(self, campaign):
            executions.append(("start", campaign.id))
            try:
                return execute(self, campaign)
            finally:
                executions.append(("end", campaign.id))

        monkeypatch.setattr(CampaignScheduler, "_execute", traced_execute)

        async def scenario():
            registry = MetricsRegistry()
            scheduler = CampaignScheduler(
                ResultStore(store_path),
                tmp_path / "data",
                metrics=registry,
                watchdog_s=2.0,
            )
            await scheduler.start()
            stuck, _ = await scheduler.submit({"preset": "dist-smoke"})
            healthy, _ = await scheduler.submit(
                {"kind": "sweep", "spec": smoke_spec().to_dict()}
            )
            deadline = time.monotonic() + 30
            stuck_lines_at_failure = None
            while healthy.state not in TERMINAL_STATES:
                assert time.monotonic() < deadline, "queue never moved on"
                if stuck_lines_at_failure is None and stuck.state == "failed":
                    stuck_lines_at_failure = self._lines_of(store_path, stuck_ids)
                await asyncio.sleep(0.01)
            assert stuck.state == "failed"
            assert "watchdog" in stuck.error
            assert healthy.state == "done"
            assert registry.to_dict()["counters"]["scheduler.watchdog_timeout"] == 1
            # The wedged scenario was stopped, not left running: the failed
            # campaign appended nothing more, and the next campaign started
            # only after its thread had returned.
            await asyncio.sleep(0.5)
            assert stuck_lines_at_failure is not None
            assert self._lines_of(store_path, stuck_ids) == stuck_lines_at_failure
            assert stuck_lines_at_failure < len(stuck_ids)
            assert executions == [
                ("start", stuck.id),
                ("end", stuck.id),
                ("start", healthy.id),
                ("end", healthy.id),
            ]
            await scheduler.stop()

        asyncio.run(scenario())

    def test_stop_mid_campaign_returns_after_the_last_append(self, tmp_path):
        spec = build_preset("dist-smoke")
        self._wedge_first_scenario(spec)
        store_path = tmp_path / "s.jsonl"
        ids = set(spec.scenario_ids())

        async def scenario():
            scheduler = CampaignScheduler(
                ResultStore(store_path), tmp_path / "data", timeout_s=2.0
            )
            await scheduler.start()
            campaign, _ = await scheduler.submit({"preset": "dist-smoke"})
            deadline = time.monotonic() + 30
            while self._lines_of(store_path, ids) == 0:
                assert time.monotonic() < deadline, "campaign never appended"
                await asyncio.sleep(0.01)
            await scheduler.stop()
            assert campaign.state == "failed"
            assert campaign.error == "service shut down mid-run"
            return self._lines_of(store_path, ids)

        lines_at_stop = asyncio.run(scenario())
        time.sleep(0.5)
        assert self._lines_of(store_path, ids) == lines_at_stop

    def test_watchdog_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="watchdog_s"):
            CampaignScheduler(
                ResultStore(tmp_path / "s.jsonl"), tmp_path / "data", watchdog_s=0
            )


class TestClientRetry:
    """ServeClient.submit rides out transport failures and drain 503s."""

    def _client(self, **retry_kwargs):
        from repro.faults import RetryPolicy

        policy = RetryPolicy(
            max_attempts=retry_kwargs.pop("max_attempts", 3),
            base_delay_s=0.001,
            max_delay_s=0.002,
            **retry_kwargs,
        )
        return ServeClient(ServeConfig(base_url="http://127.0.0.1:1"), retry=policy)

    def test_submit_retries_transport_failures_then_succeeds(self, monkeypatch):
        client = self._client()
        calls = []

        def flaky(method, path, payload=None, timeout_s=None):
            calls.append(method)
            if len(calls) < 3:
                raise ServeError("cannot reach campaign service")
            return {"id": "abc", "created": True}

        monkeypatch.setattr(client, "_request", flaky)
        assert client.submit({"preset": "dist-smoke"})["id"] == "abc"
        assert len(calls) == 3

    def test_submit_honours_retry_after_from_503(self, monkeypatch):
        client = self._client(max_attempts=2)
        calls, slept = [], []

        def draining_once(method, path, payload=None, timeout_s=None):
            calls.append(method)
            if len(calls) == 1:
                raise ServeError("draining", status=503, retry_after_s=0.005)
            return {"id": "abc"}

        monkeypatch.setattr(client, "_request", draining_once)
        monkeypatch.setattr(time, "sleep", slept.append)
        assert client.submit({"preset": "dist-smoke"})["id"] == "abc"
        # The server's Retry-After floor beats the policy's tiny backoff.
        assert slept == [0.005]

    def test_submit_does_not_retry_client_errors(self, monkeypatch):
        client = self._client()
        calls = []

        def bad_request(method, path, payload=None, timeout_s=None):
            calls.append(method)
            raise ServeError("malformed spec", status=400)

        monkeypatch.setattr(client, "_request", bad_request)
        with pytest.raises(ServeError):
            client.submit({"preset": "dist-smoke"})
        assert len(calls) == 1

    def test_submit_exhausts_attempts_and_raises(self, monkeypatch):
        client = self._client(max_attempts=2)
        calls = []

        def always_down(method, path, payload=None, timeout_s=None):
            calls.append(method)
            raise ServeError("cannot reach campaign service")

        monkeypatch.setattr(client, "_request", always_down)
        with pytest.raises(ServeError):
            client.submit({"preset": "dist-smoke"})
        assert len(calls) == 2


# ----------------------------------------------------------------------
# The service's run ledger and its scenario-latency histogram.
# ----------------------------------------------------------------------

from repro.obs import RunLedger  # noqa: E402


class TestServiceLedger:
    def test_finished_campaign_lands_in_ledger_and_metrics(self, tmp_path):
        """A finished campaign appends one RunSummary to the ledger, and its
        executed scenarios feed the scenario_duration_seconds histogram."""
        with ServiceThread(
            store_path=tmp_path / "store.jsonl", data_dir=tmp_path / "data",
            port=0, workers=1,
        ) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            done = client.submit_and_wait(smoke_spec(), timeout_s=180)
            assert done["result"]["executed"] == 4

            entries = RunLedger(tmp_path / "data" / "ledger.jsonl").entries()
            assert [e.kind for e in entries] == ["serve.sweep"]
            assert entries[0].executed == 4
            assert entries[0].scenario_latency.get("count") == 4

            with urllib.request.urlopen(
                f"{service.base_url}/metrics?format=prometheus", timeout=30
            ) as resp:
                text = resp.read().decode("utf-8")
            assert "scenario_duration_seconds_count 4" in text.splitlines()

    def test_served_campaign_writes_no_sidecar_beside_the_store(self, tmp_path):
        """A campaign reports through its trace and ledger line; the service
        registry is snapshotted once, in the data dir, at stop()."""
        with ServiceThread(
            store_path=tmp_path / "store.jsonl", data_dir=tmp_path / "data",
            port=0, workers=1, trace_dir=tmp_path / "trace",
        ) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            done = client.submit_and_wait(smoke_spec(), timeout_s=180)
            assert done["result"]["executed"] == 4
        assert not list(tmp_path.glob("*.metrics.json"))
        assert (tmp_path / "data" / "metrics.json").exists()


import os  # noqa: E402
import re  # noqa: E402
import select  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro.serve.app as app_module  # noqa: E402


class TestServiceRobustness:
    def test_worker_pool_does_not_stop_the_service(self, tmp_path):
        """Terminating the campaign pool must not hand SIGTERM to the service:
        forked workers used to inherit its signal wake-up fd."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
                "--store", str(tmp_path / "store.jsonl"), "--data-dir", str(tmp_path / "data"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            assert select.select([proc.stdout], [], [], 60)[0], "no banner within 60 s"
            banner = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", banner)
            assert match, banner
            client = ServeClient(ServeConfig(base_url=match.group(1)))
            for power_w in (6.0, 6.1, 6.2):
                spec = SweepSpec(
                    base=ScenarioConfig(
                        governor="power-neutral",
                        supply={"kind": "constant-power", "power_w": power_w},
                        duration_s=2.0,
                    )
                )
                done = client.submit_and_wait(spec, timeout_s=120)
                assert done["state"] == "done" and done["result"]["executed"] == 1
            time.sleep(0.5)  # let a stray wake-up byte reach the loop
            assert client.health()["status"] == "ok"
            assert proc.poll() is None
        finally:
            proc.terminate()
            proc.communicate(timeout=60)

    def test_idle_connection_is_closed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app_module, "_REQUEST_READ_TIMEOUT_S", 0.3)
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            host, port = service.base_url.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                assert sock.recv(1) == b""  # closed by the service, not by us
            deadline = time.monotonic() + 10
            while service.service._in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.service._in_flight == 0
            gauges = service.service.metrics.to_dict()["gauges"]
            assert gauges["http_requests_in_flight"] == 0


import threading  # noqa: E402

import repro.serve.scheduler as scheduler_module  # noqa: E402


def _blocking_parse(monkeypatch):
    """Make ``parse_submission`` wait on an event; returns (started, release)."""
    started, release = threading.Event(), threading.Event()
    real_parse = scheduler_module.parse_submission

    def parse(payload):
        started.set()
        assert release.wait(timeout=60), "parse was never released"
        return real_parse(payload)

    monkeypatch.setattr(scheduler_module, "parse_submission", parse)
    return started, release


class TestSubmitOffTheEventLoop:
    def test_healthz_answers_while_a_submission_is_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            CampaignScheduler,
            "_execute",
            lambda self, campaign: {"kind": "sweep", "succeeded": True},
        )
        started, release = _blocking_parse(monkeypatch)
        body = json.dumps({"preset": "dist-smoke"}).encode()
        statuses: list = []
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url, timeout_s=10.0))

            def post():
                request = urllib.request.Request(
                    service.base_url + "/campaigns",
                    data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    statuses.append(response.status)

            poster = threading.Thread(target=post)
            poster.start()
            try:
                assert started.wait(timeout=30), "the submission never reached the parse"
                # The parse is blocked in its thread; the loop still serves.
                assert client.health()["status"] == "ok"
                assert service.service.scheduler.campaigns == {}
            finally:
                release.set()
                poster.join(timeout=60)
            assert not poster.is_alive()
            assert statuses == [201]
            assert len(service.service.scheduler.campaigns) == 1

    def test_drain_during_the_parse_refuses_registration(self, tmp_path, monkeypatch):
        started, release = _blocking_parse(monkeypatch)

        async def scenario():
            scheduler = CampaignScheduler(ResultStore(tmp_path / "s.jsonl"), tmp_path / "data")
            submit = asyncio.ensure_future(scheduler.submit({"preset": "dist-smoke"}))
            deadline = time.monotonic() + 30
            while not started.is_set():
                assert time.monotonic() < deadline, "the submission never reached the parse"
                await asyncio.sleep(0.01)
            await scheduler.drain()
            release.set()
            with pytest.raises(RuntimeError, match="draining"):
                await submit
            assert scheduler.campaigns == {}

        asyncio.run(scenario())


import repro.serve.handlers as handlers_module  # noqa: E402


class TestAggregateOffTheEventLoop:
    def test_healthz_answers_while_an_aggregate_is_built(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            CampaignScheduler,
            "_execute",
            lambda self, campaign: {"kind": "sweep", "succeeded": True},
        )
        started, release = threading.Event(), threading.Event()
        real_tables = handlers_module.campaign_tables

        def campaign_tables(records, axes):
            started.set()
            assert release.wait(timeout=60), "campaign_tables was never released"
            return real_tables(records, axes)

        monkeypatch.setattr(handlers_module, "campaign_tables", campaign_tables)
        docs: list = []
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url, timeout_s=10.0))
            reader_client = ServeClient(ServeConfig(base_url=service.base_url, timeout_s=60.0))
            campaign_id = client.submit({"preset": "dist-smoke"})["id"]
            reader = threading.Thread(
                target=lambda: docs.append(reader_client.aggregate(campaign_id))
            )
            reader.start()
            try:
                assert started.wait(timeout=30), "the aggregate never reached campaign_tables"
                # The document is blocked in its thread; the loop still serves.
                assert client.health()["status"] == "ok"
                assert docs == []
            finally:
                release.set()
                reader.join(timeout=60)
            assert not reader.is_alive()
            assert docs and docs[0]["campaign"] == campaign_id and docs[0]["rows"] == []

    def test_healthz_answers_while_an_aggregate_is_encoded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            CampaignScheduler,
            "_execute",
            lambda self, campaign: {"kind": "sweep", "succeeded": True},
        )
        started, release = threading.Event(), threading.Event()
        real_encode = handlers_module.encode_json

        def encode_json(payload):
            if isinstance(payload, dict) and "rows" in payload:  # the aggregate body
                started.set()
                assert release.wait(timeout=60), "the encode was never released"
            return real_encode(payload)

        monkeypatch.setattr(handlers_module, "encode_json", encode_json)
        bodies: list = []
        with ServiceThread(store_path=tmp_path / "store.jsonl", port=0, workers=1) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url, timeout_s=10.0))
            campaign_id = client.submit({"preset": "dist-smoke"})["id"]
            url = f"{service.base_url}/campaigns/{campaign_id}/aggregate"

            def read():
                with urllib.request.urlopen(url, timeout=60) as response:
                    bodies.append((response.headers["Content-Type"], response.read()))

            reader = threading.Thread(target=read)
            reader.start()
            try:
                assert started.wait(timeout=30), "the aggregate never reached its encode"
                # The encode is blocked in its thread; the loop still serves.
                assert client.health()["status"] == "ok"
                assert bodies == []
            finally:
                release.set()
                reader.join(timeout=60)
            assert not reader.is_alive()
        ((content_type, body),) = bodies
        assert content_type == "application/json"
        doc = json.loads(body)
        assert doc["campaign"] == campaign_id and doc["rows"] == []
        # The same bytes the JSON responses carry: compact, newline-terminated.
        assert body == (json.dumps(doc) + "\n").encode("utf-8")
