"""The ``serve-mixed`` workload: ``repro serve`` under one closed-loop client.

Inputs, all drawn from ``--seed``:

* a synthetic store of 7,200 records from seven grid campaigns (PV-array
  grids over the eight Table II governors and constant-power grids), each
  record carrying a real scenario id and the shape of one real
  ``run_scenario`` record computed first;
* a traffic mix, one client with one connection at a time.  Every round
  holds, in seeded order: 36 filtered and paged ``/records`` reads, 12
  ``/campaigns/{id}`` status reads, one ``/aggregate``, one resubmission of
  a campaign the service already holds (answered ``executed: 0``), and two
  new 1-cell constant-power campaigns, each submitted and polled every 10 ms
  until done, then read back (that read pays the SQLite tail refresh for
  the record the campaign appended, and is not timed as a read).

Set-up is what a restarted service pays before it answers traffic: start
the process over the store (a fresh copy, no index sidecar), register the
two campaigns the traffic reads (submitted once; every scenario is already
stored), and the first read, which builds the SQLite index.  It is repeated
three times per run and reported as the median; the traffic runs against
the third service.  The other five campaigns are history the index covers
but no request names.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    BenchError,
    child_env,
    lower_quartile,
    median,
    midmean,
    p95,
    peak_rss_mb,
    use_sources,
)

#: Grid shapes: the read campaigns and the PV history grids are
#: 8 governors x 3 weather x (capacitances, seeds); the constant-power
#: history grids 4 governors x (capacitances, power levels).  In all
#: 2 x 600 + 2 x 1,200 + 3 x 1,200 = 7,200 records.
SHAPES = {"read": (5, 5), "pv": (5, 10), "cp": (10, 30)}
#: Smallest size, for the self-test.
SMOKE_SHAPES = {"read": (1, 1), "pv": (1, 2), "cp": (1, 12)}
#: Indices of the campaigns the traffic reads (registered at set-up).
REGISTERED = (0, 1)
#: One service process: campaigns run inline in the service's scheduler
#: thread.  (With a worker pool, a pool worker terminated at the end of a
#: campaign can hand its SIGTERM to the service through the inherited
#: asyncio signal wake-up fd, and the service drains and exits mid-run.)
SERVICE_WORKERS = 1
SETUPS = 3
#: Reads per round: every round holds the same mix of both kinds, so the
#: per-round read quantiles are comparable from round to round.
READS_PER_ROUND = 36
STATUS_PER_ROUND = 12
FRESH_PER_ROUND = 2
#: A fresh campaign: the proposed governor on a constant-power supply for
#: 120 s simulated (about 0.12 s of work, so the store's fsyncs are a small
#: share of it) at a seeded power in [6.5, 6.6) W, where the cost is flat.
FRESH_POWER_W = 6.5
FRESH_DURATION_S = 120.0
PAGE = 10
POLL_S = 0.01
MIN_ROUNDS = 3
#: Rounds of each session of a traced run (fixed, so work counters repeat).
TRACED_ROUNDS = 6
SMOKE_ROUNDS = 2

PV_GOVERNORS = (
    "performance",
    "ondemand",
    "interactive",
    "conservative",
    "powersave",
    "single-core-dfs",
    "solartune",
    "power-neutral",
)
CP_GOVERNORS = ("power-neutral", "performance", "ondemand", "powersave")
WEATHER = ("full_sun", "partial_sun", "cloud")
ROUTES = {
    "campaigns": "/campaigns",
    "campaign": "/campaigns/{id}",
    "records": "/campaigns/{id}/records",
    "aggregate": "/campaigns/{id}/aggregate",
}
_BANNER = re.compile(r"listening on (http://\S+)")


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------
def campaign_specs(rng: random.Random, smoke: bool) -> list:
    """The store's grid campaigns; the first ``len(REGISTERED)`` are read.

    The two read campaigns share one shape, so every request of a kind costs
    the same whichever campaign the seeded mix picks.
    """
    from repro.sweep.spec import Axis, SweepSpec

    def capacitances(n):
        return sorted({round(rng.uniform(5e-3, 100e-3), 6) for _ in range(4 * n)})[:n]

    def pv_grid(n_cap, n_seed):
        return SweepSpec.grid(
            governors=list(PV_GOVERNORS),
            weather=list(WEATHER),
            capacitances_f=capacitances(n_cap),
            seeds=rng.sample(range(1000, 1_000_000), n_seed),
            duration_s=60.0,
        )

    def powers(n):
        return sorted(p / 1000 for p in rng.sample(range(800, 8000), n))

    def cp_grid(n_cap, n_power):
        return SweepSpec.grid(
            governors=list(CP_GOVERNORS),
            supply={"kind": "constant-power"},
            capacitances_f=capacitances(n_cap),
            duration_s=60.0,
            extra_axes=(Axis("supply.power_w", powers(n_power)),),
        )

    shapes = SMOKE_SHAPES if smoke else SHAPES
    return (
        [pv_grid(*shapes["read"]) for _ in REGISTERED]
        + [pv_grid(*shapes["pv"]) for _ in range(2)]
        + [cp_grid(*shapes["cp"]) for _ in range(3)]
    )


def synthetic_record(template: dict, config, rng: random.Random) -> dict:
    """A record shaped like ``template`` for ``config``, with seeded metrics."""
    summary = {}
    for key, value in template["summary"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            summary[key] = value
        elif isinstance(value, int):
            summary[key] = int(value * rng.uniform(0.5, 1.5))
        else:
            summary[key] = value * rng.uniform(0.5, 1.5)
    summary["governor"] = config.governor.kind
    summary["duration_s"] = config.duration_s
    summary["survived"] = rng.random() < 0.7
    return {
        **template,
        "scenario_id": config.scenario_id,
        "config": config.to_dict(),
        "summary": summary,
        "elapsed_s": template["elapsed_s"] * rng.uniform(0.5, 1.5),
    }


def generate(seed: int, work: Path, smoke: bool) -> dict:
    """Write the synthetic store; return its campaigns and expected row sets."""
    from repro.sweep.scenario import run_scenario
    from repro.sweep.spec import ScenarioConfig, expand_unique

    rng = random.Random(seed)
    template = run_scenario(
        ScenarioConfig(
            governor="power-neutral",
            supply={"kind": "constant-power", "power_w": 6.0},
            duration_s=10.0,
        )
    )
    template.pop("series", None)
    path = work / "generated.jsonl"
    campaigns = []
    with open(path, "w", encoding="utf-8") as fh:
        for spec in campaign_specs(rng, smoke):
            rows = []
            for config in expand_unique(spec):
                record = synthetic_record(template, config, rng)
                # The line format of ResultStore.append.
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
                rows.append({"governor": config.governor.kind, "weather": config.weather})
            campaigns.append({"spec": spec, "rows": rows})
    return {"store": path, "campaigns": campaigns}


# ----------------------------------------------------------------------
# One service process
# ----------------------------------------------------------------------
class Session:
    """One ``repro serve`` child over a fresh copy of the generated store."""

    def __init__(self, generated: dict, work: Path, trace_dir=None):
        from repro.serve.client import ServeClient

        self.work = work
        self.generated = generated
        work.mkdir(parents=True)
        store = work / "store.jsonl"
        shutil.copyfile(generated["store"], store)
        cmd = [sys.executable, str(BENCH_DIR / "serve_proc.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += [
            "--", "--port", "0", "--workers", str(SERVICE_WORKERS),
            "--store", str(store), "--data-dir", str(work / "data"),
        ]
        self.started = time.perf_counter()
        self.log = open(work / "serve.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, env=child_env(work), stdout=self.log, stderr=subprocess.STDOUT, text=True
        )
        url = None
        while url is None:
            match = _BANNER.search((work / "serve.log").read_text(encoding="utf-8"))
            url = match.group(1) if match else None
            if url is None and self.proc.poll() is not None:
                self.stop()
                raise BenchError(f"repro serve exited before listening: {self.log_tail()}")
            time.sleep(0.005)
        self.client = ServeClient(base_url=url, timeout_s=120.0)
        self.calls: list[tuple[str, float]] = []  # (route key, client latency s)
        self.ids: dict[int, str] = {}

    def log_tail(self) -> str:
        return (self.work / "serve.log").read_text(encoding="utf-8")[-2000:]

    def call(self, route: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.calls.append((route, time.perf_counter() - t0))
        return result

    def service_cpu_s(self) -> float:
        """Service CPU seconds so far (user + system, reaped children included)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")

    def wait_done(self, campaign_id: str) -> tuple[dict, float]:
        """Poll the campaign every ``POLL_S`` until terminal; (doc, seen wall)."""
        deadline = time.monotonic() + 120.0
        while True:
            doc = self.call("campaign", self.client.campaign, campaign_id)
            if doc.get("state") in ("done", "failed"):
                return doc, time.time()
            if time.monotonic() > deadline:
                raise BenchError(f"campaign {campaign_id} still {doc.get('state')} after 120 s")
            time.sleep(POLL_S)

    def set_up(self, outcome) -> float:
        """Register the read campaigns and build the index; returns set-up seconds."""
        for index in REGISTERED:
            campaign = self.generated["campaigns"][index]
            submitted = self.call("campaigns", self.client.submit, campaign["spec"])
            doc, _ = self.wait_done(submitted["id"])
            result = doc.get("result") or {}
            outcome.check(
                submitted.get("created") is True
                and doc.get("state") == "done"
                and result.get("executed") == 0
                and result.get("cached") == len(campaign["rows"]),
                f"registering campaign {index}: {doc.get('state')} {result}",
            )
            self.ids[index] = submitted["id"]
        rows = self.call("records", self.client.records, self.ids[REGISTERED[0]], limit=1)
        outcome.check(len(rows) == 1, f"first read returned {len(rows)} rows")
        return time.perf_counter() - self.started

    def stop(self) -> None:
        """Graceful SIGINT shutdown (the service drains), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Traffic:
    """The seeded closed-loop mix against one set-up :class:`Session`."""

    def __init__(self, session: Session, rng: random.Random, outcome):
        self.s = session
        self.rng = rng
        self.outcome = outcome
        self.read_s: list[float] = []
        self.round_read_s: list[list[float]] = []  # read_s split by round
        self.aggregate_s: list[float] = []
        self.cached_s: list[float] = []
        self.fresh: list[dict] = []
        self.requests = 0
        # Distinct but nearby power levels: every fresh campaign is new to
        # the store yet costs about the same to simulate.
        self.powers = iter(FRESH_POWER_W + k / 10000 for k in rng.sample(range(1000), 1000))

    def run_round(self) -> None:
        ops = (
            ["read"] * READS_PER_ROUND
            + ["status"] * STATUS_PER_ROUND
            + ["aggregate", "cached"]
            + ["fresh_campaign"] * FRESH_PER_ROUND
        )
        self.rng.shuffle(ops)
        self.round_read_s.append([])
        for op in ops:
            getattr(self, op)()

    def _campaign(self) -> tuple[str, dict]:
        index = self.rng.choice(REGISTERED)
        return self.s.ids[index], self.s.generated["campaigns"][index]

    def _timed(self, route: str, fn, *args, **kwargs):
        from repro.serve.client import ServeError

        t0 = time.perf_counter()
        try:
            result = self.s.call(route, fn, *args, **kwargs)
        except (ServeError, OSError) as exc:  # a failed request is a counted miss
            self.outcome.check(False, f"{route} request failed: {exc}")
            return None, 0.0
        self.requests += 1
        return result, time.perf_counter() - t0

    def _read_done(self, dur: float) -> None:
        self.read_s.append(dur)
        self.round_read_s[-1].append(dur)

    def read(self) -> None:
        campaign_id, campaign = self._campaign()
        filters = {
            "governor": self.rng.choice(PV_GOVERNORS),
            "weather": self.rng.choice(WEATHER),
        }
        matching = sum(all(r[k] == v for k, v in filters.items()) for r in campaign["rows"])
        offset = self.rng.choice((0, PAGE, 2 * PAGE))
        rows, dur = self._timed(
            "records", self.s.client.records, campaign_id, limit=PAGE, offset=offset, **filters
        )
        if rows is not None:
            self._read_done(dur)
            expected = max(0, min(PAGE, matching - offset))
            self.outcome.check(
                len(rows) == expected,
                f"records {filters} offset {offset}: {len(rows)} rows, expected {expected}",
            )

    def status(self) -> None:
        campaign_id, _ = self._campaign()
        doc, dur = self._timed("campaign", self.s.client.campaign, campaign_id)
        if doc is not None:
            self._read_done(dur)
            self.outcome.check(doc.get("state") == "done", f"status {doc.get('state')}")

    def aggregate(self) -> None:
        campaign_id, campaign = self._campaign()
        doc, dur = self._timed("aggregate", self.s.client.aggregate, campaign_id)
        if doc is not None:
            self.aggregate_s.append(dur)
            n = len(campaign["rows"])
            self.outcome.check(
                doc.get("records") == n and len(doc.get("rows", ())) == n,
                f"aggregate: {doc.get('records')} records, expected {n}",
            )

    def cached(self) -> None:
        _, campaign = self._campaign()
        doc, dur = self._timed("campaigns", self.s.client.submit, campaign["spec"])
        if doc is not None:
            self.cached_s.append(dur)
            self.outcome.check(
                doc.get("created") is False and doc.get("executed") == 0,
                f"resubmission created={doc.get('created')} executed={doc.get('executed')}",
            )

    def fresh_campaign(self) -> None:
        from repro.sweep.spec import ScenarioConfig, SweepSpec

        spec = SweepSpec(
            base=ScenarioConfig(
                governor="power-neutral",
                supply={"kind": "constant-power", "power_w": next(self.powers)},
                duration_s=FRESH_DURATION_S,
            )
        )
        cpu0 = self.s.service_cpu_s()
        submit_wall = time.time()
        submitted, _ = self._timed("campaigns", self.s.client.submit, spec)
        if submitted is None:
            return
        doc, seen_wall = self.s.wait_done(submitted["id"])
        cpu = self.s.service_cpu_s() - cpu0
        result = doc.get("result") or {}
        ok = self.outcome.check(
            submitted.get("created") is True
            and doc.get("state") == "done"
            and result.get("executed") == 1
            and result.get("failed") == 0,
            f"fresh campaign {doc.get('state')} {result}",
        )
        # This read-back pays the SQLite tail refresh for the appended record.
        # It stays out of the read latencies: its commit's fsync follows the
        # shared disk, which moved p95 by up to 2x between runs here.
        records, _ = self._timed("records", self.s.client.records, submitted["id"], status="ok")
        if records is None:
            return
        one = self.outcome.check(len(records) == 1, f"fresh campaign has {len(records)} records")
        if ok and one:
            self.fresh.append(
                {
                    "id": submitted["id"],
                    # Submit to the service's own finish stamp: polling
                    # latency is reported separately (serve.poll_wait_ms).
                    "s": doc["finished_t"] - submit_wall,
                    "cpu_s": cpu,
                    "doc": doc,
                    "record": records[0],
                    "seen_wall": seen_wall,
                }
            )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(setups: list[float], traffic: Traffic, wall_s: float) -> dict:
    """End-to-end metrics of one traffic session.

    CPU speed on a shared VM switches between two levels every few seconds, so
    a round (some 1.3 s) mostly runs at one level.  The ``p50`` timings are
    midmeans (``common.midmean``): of the fresh campaigns, the
    resubmissions, the aggregations, and of each round's median read
    (every round holds the same 48 reads).  ``read_p95_ms`` is the lower
    quartile of the round p95s: a p95 over the whole run follows the
    slowest stretch of the run, while the lower quartile over rounds
    follows the tail the program sets.
    """
    fresh = traffic.fresh
    executed = sum(f["doc"]["result"]["executed"] for f in fresh)
    run_s = sum(f["doc"]["finished_t"] - f["doc"]["started_t"] for f in fresh)
    return {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "scenarios_per_s": executed / run_s,
        "cpu_s_per_scenario": sum(f["cpu_s"] for f in fresh) / executed,
        "fresh_campaign_p50_s": midmean(f["s"] for f in fresh),
        "cached_submit_p50_ms": 1e3 * midmean(traffic.cached_s),
        "read_p50_ms": 1e3 * midmean(median(r) for r in traffic.round_read_s),
        "read_p95_ms": 1e3 * lower_quartile(p95(r) for r in traffic.round_read_s),
        "aggregate_p50_ms": 1e3 * midmean(traffic.aggregate_s),
        "requests_per_s": traffic.requests / wall_s,
    }


def route_histograms(metrics_doc: dict) -> dict:
    """Server-side request histograms merged per route key."""
    from repro.obs.metrics import split_series_key
    from repro.obs.timeseries import Histogram

    merged: dict = {}
    for key, data in metrics_doc.get("histograms", {}).items():
        name, labels = split_series_key(key)
        if name != "http_request_duration_seconds":
            continue
        for route_key, template in ROUTES.items():
            if labels.get("route") == template:
                histogram = Histogram.from_dict(data)
                if route_key in merged:
                    merged[route_key].merge(histogram)
                else:
                    merged[route_key] = histogram
    return merged


def layer_metrics(session: Session, traffic: Traffic, trace_dir: Path, metrics_doc: dict,
                  per_layer: dict) -> dict:
    """Per-layer metrics of one traced session (set-up and traffic)."""
    import layers

    total = layers.summarize(trace_dir)
    histograms = route_histograms(metrics_doc)
    fresh = traffic.fresh
    records = [f["record"] for f in fresh]
    elapsed = [r.get("elapsed_s", 0.0) for r in records]
    phases = [layers.runner_phases(session.work / "data" / "traces" / f["id"]) for f in fresh]
    server_n = sum(h.count for h in histograms.values())
    server_s = sum(h.sum for h in histograms.values())
    client = [dur for route, dur in session.calls if route in ROUTES]
    counters = metrics_doc.get("counters", {})
    metrics = {name: 0.0 for name in per_layer}
    metrics.update(
        {
            "supplies.tables_built": total["supplies.tables_built"],
            "supplies.tabulate_s": total["supplies.tabulate_s"],
            "supplies.tabulate_share": (
                total["supplies.tabulate_s"] / total["scenario_s"] if total["scenario_s"] else 0.0
            ),
            "energy.iv_points": total["energy.iv_points"],
            "sim.loop_s": total["sim.loop_s"],
            "sim.supply_evals": total["sim.supply_evals"],
            "sim.us_per_eval": 1e6 * total["sim.loop_s"] / max(total["sim.supply_evals"], 1),
            "sim.governor_invocations": total["sim.governor_invocations"],
            "sim.opp_transitions": total["sim.opp_transitions"],
            "build.build_s": total["build.build_s"],
            "scenario.elapsed_p50_s": median(elapsed),
            "scenario.elapsed_max_s": max(elapsed, default=0.0),
            "runner.expand_s": median(p["runner.expand_s"] for p in phases),
            "runner.cache_scan_s": median(p["runner.cache_scan_s"] for p in phases),
            "runner.execute_s": median(p["runner.execute_s"] for p in phases),
            "runner.queue_wait_p50_s": median(
                (r.get("timings") or {}).get("queue_wait_s", 0.0) for r in records
            ),
            "runner.busy_ratio": sum(elapsed) / sum(
                f["doc"]["result"]["elapsed_s"]
                * min(SERVICE_WORKERS, f["doc"]["result"]["executed"])
                for f in fresh
            ),
            "spec.expand_s": total["spec.expand_s"],
            "spec.hash_s": total["spec.hash_s"],
            "spec.ids_hashed": total["spec.ids_hashed"],
            "store.appends": total["store.appends"],
            "store.append_p50_ms": 1e3 * median(total["store.append_s"]),
            "store.open_s": sum(total["store.open_s"]),
            "store.query_p50_ms": 1e3 * median(total["store.query_s"]),
            "store.records_read": total["store.records_read"],
            "sqlindex.rebuilds": int(counters.get("store.sqlite_build", 0)),
            "sqlindex.tail_refreshes": int(counters.get("store.sqlite_tail", 0)),
            "aggregate.server_ms": (
                1e3 * total["aggregate.fn_s"] / max(len(traffic.aggregate_s), 1)
            ),
            "serve.transport_ms": 1e3 * (sum(client) / len(client) - server_s / server_n),
            "scheduler.queue_wait_s": median(
                f["doc"]["started_t"] - f["doc"]["submitted_t"] for f in fresh
            ),
            "scheduler.run_s": median(
                f["doc"]["finished_t"] - f["doc"]["started_t"] for f in fresh
            ),
            "serve.poll_wait_ms": 1e3 * median(
                f["seen_wall"] - f["doc"]["finished_t"] for f in fresh
            ),
        }
    )
    for route_key, histogram in histograms.items():
        metrics[f"serve.server_p50_ms.{route_key}"] = 1e3 * histogram.quantile(0.5)
    return metrics


# ----------------------------------------------------------------------
def run(args, work: Path, outcome, per_layer: dict) -> dict:
    use_sources()
    work.mkdir(parents=True)
    generated = generate(args.seed, work, args.smoke)

    def session_traffic(name: str, rounds, seconds, trace_dir=None):
        session = Session(generated, work / name, trace_dir=trace_dir)
        try:
            setup_s = session.set_up(outcome)
            traffic = Traffic(session, random.Random(f"{args.seed}:traffic"), outcome)
            t0 = time.perf_counter()
            done = 0
            while True:
                traffic.run_round()
                done += 1
                if rounds is not None:
                    if done >= rounds:
                        break
                elif done >= MIN_ROUNDS and time.perf_counter() - t0 >= seconds:
                    break
            wall = time.perf_counter() - t0
            metrics_doc = session.client.metrics() if trace_dir is not None else {}
        finally:
            session.stop()
        return session, setup_s, traffic, wall, metrics_doc

    if not args.trace:
        setups = []
        for k in range(SETUPS - 1):
            session = Session(generated, work / f"setup-{k}")
            try:
                setups.append(session.set_up(outcome))
            finally:
                session.stop()
        rounds = SMOKE_ROUNDS if args.smoke else None
        _, setup_s, traffic, wall, _ = session_traffic("serve", rounds, args.seconds)
        setups.append(setup_s)
        return end_to_end(setups, traffic, wall)

    rounds = SMOKE_ROUNDS if args.smoke else TRACED_ROUNDS
    _, _, _, untraced_wall, _ = session_traffic("untraced", rounds, None)
    trace_dir = work / "trace"
    session, _, traffic, traced_wall, metrics_doc = session_traffic(
        "traced", rounds, None, trace_dir=trace_dir
    )
    metrics = layer_metrics(session, traffic, trace_dir, metrics_doc, per_layer)
    metrics["obs.trace_overhead"] = traced_wall / untraced_wall - 1.0
    return metrics
