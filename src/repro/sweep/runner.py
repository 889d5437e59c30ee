"""Campaign execution: fan scenarios out over workers, feed the store.

The runner takes an expanded scenario list (or a :class:`SweepSpec`), skips
every cell the store already holds a successful record for, and executes the
remainder either inline (``workers <= 1``) or on dedicated worker processes
("slots"), one scenario per slot at a time, sending each scenario to a slot
that has already tabulated its supply when one is free.  Each finished record
is appended to the store *immediately*, so interrupting a campaign (Ctrl-C,
OOM kill, power loss) costs at most the scenarios in flight — rerunning with
the same store resumes where it stopped.

Work stops one way: the process running a scenario checks its deadline,
``min(start + timeout_s, campaign deadline)``, at every simulator record
tick.  Past its own budget a scenario gets a ``status == "timeout"`` record;
the campaign deadline (:meth:`SweepRunner.stop_at`) records and dispatches
nothing more.  Worker failures, a slot dying mid-scenario included, are
captured as ``status == "error"`` records.  Both are persisted for
post-mortems and retried on the next run.  A progress callback receives
every completed cell (cached or computed) for live reporting.

The slots are the one local fan-out; a campaign spread over several hosts
runs one shard per host through this runner (``repro shard``) and merges the
shard stores afterwards (``repro store merge``).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing.connection
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .. import faults
from ..faults import DEFAULT_RETRY_POLICY, RetryPolicy, classify_error
from ..obs.resource import rusage_totals
from ..obs.telemetry import DISABLED, Telemetry
from ..sim.simulator import DeadlineExceeded
from .scenario import run_scenario, worker_stamp
from .spec import ScenarioConfig, SweepSpec, expand_unique
from .store import ResultStore

__all__ = ["SweepReport", "SweepRunner", "expand_unique"]

#: progress(done, total, record, cached) — called after every completed cell.
ProgressCallback = Callable[[int, int, dict, bool], None]


@dataclass
class SweepReport:
    """Outcome of one campaign run."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    elapsed_s: float = 0.0
    #: One record per scenario, in the campaign's expansion order.
    records: list[dict] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.failed == 0 and self.timed_out == 0

    def ok_records(self) -> list[dict]:
        return [r for r in self.records if r.get("status") == "ok"]

    def summary(self) -> dict:
        return {
            "scenarios": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "retried": self.retried,
            "elapsed_s": self.elapsed_s,
        }


def _reset_inherited_signals() -> None:
    """A worker slot's first call: drop the signal wiring a forked worker inherits.

    Forked from an asyncio process (``repro serve``), a worker keeps the
    loop's signal wake-up fd and its SIGTERM/SIGINT handlers, so a SIGTERM
    or SIGINT delivered to the worker would be written into the parent's
    loop, which then shuts itself down.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _execute_payload(payload: tuple) -> Optional[dict]:
    """Top-level worker entry point (picklable for multiprocessing).

    ``payload`` is built by :meth:`SweepRunner._payload`.  The gap from its
    ``enqueued_wall`` (the coordinator's wall-clock submission time) to the
    worker actually starting is the scenario's **queue-wait** phase (same
    machine, same clock), folded into the record's ``timings``.  A scenario
    that passes its deadline is never retried: past its own budget it gets a
    ``timeout`` record, stopped by the campaign deadline it gets ``None``.

    Transient failures (I/O, injected chaos — see
    :func:`~repro.faults.classify_error`) are retried here, inside the
    worker, with the policy's backoff; deterministic failures and exhausted
    retries return an ``error`` record stamped with ``error_kind`` and the
    attempt count.  Every record carries ``attempts`` (volatile, excluded
    from identity) so the coordinator can count ``retry.*`` without a
    second channel.
    """
    config_dict, series_samples, fast, enqueued_wall, retry, timeout_s, campaign_deadline = payload
    started = time.monotonic()
    queue_wait_s = max(0.0, time.time() - enqueued_wall)
    own_deadline = started + timeout_s if timeout_s is not None else math.inf
    deadline = min(own_deadline, campaign_deadline)
    retry = RetryPolicy.from_dict(retry)
    config = ScenarioConfig.from_dict(config_dict)
    injector = faults.active()
    attempt = 0
    injected = 0
    while True:
        attempt += 1
        try:
            if injector is not None:
                rule = injector.fire(
                    "worker.simulate",
                    deadline=deadline,
                    scenario_id=config.scenario_id,
                    attempt=attempt,
                )
                if rule is not None:
                    injected += 1
            record = run_scenario(
                config, series_samples=series_samples, fast=fast, deadline=deadline
            )
        except DeadlineExceeded:
            if own_deadline > campaign_deadline:
                return None
            record = {
                "scenario_id": config.scenario_id,
                "config": config.to_dict(),
                "status": "timeout",
                "error": f"scenario exceeded {timeout_s:g} s budget",
                "elapsed_s": time.monotonic() - started,
                "worker": worker_stamp(),
            }
        except Exception as exc:  # noqa: BLE001 — workers must not crash the pool
            if getattr(exc, "site", None) is not None:
                injected += 1
            kind = classify_error(exc)
            if kind == "transient" and attempt < retry.max_attempts:
                time.sleep(retry.delay_s(attempt, key=config.scenario_id))
                continue
            record = {
                "scenario_id": config.scenario_id,
                "config": config.to_dict(),
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": kind,
                "traceback": traceback.format_exc(),
            }
        else:
            record.setdefault("timings", {})["queue_wait_s"] = round(queue_wait_s, 6)
        record["attempts"] = attempt
        if injected:
            record["faults_injected"] = injected
        return record


def _slot_main(conn) -> None:
    """A worker slot's process: run each payload from ``conn`` until ``None``."""
    _reset_inherited_signals()
    try:
        for payload in iter(conn.recv, None):
            conn.send(_execute_payload(payload))
    except EOFError:
        pass  # the coordinator is gone


def _next_for_slot(queue: Sequence, mine: set, others: set) -> int:
    """Index of the queued supply key a freed slot runs next.

    In order: the first key this slot has run (its I-V table is warm); else
    the first key no other slot has run or is running (tabulate it once,
    here); else the head of the queue.
    """
    fresh = None
    for index, key in enumerate(queue):
        if key in mine:
            return index
        if fresh is None and key not in others:
            fresh = index
    return 0 if fresh is None else fresh


class _Slot:
    """One dedicated worker process, its pipe and the supply keys it has run."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_slot_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.keys: set = set()
        self.config: Optional[ScenarioConfig] = None  # the scenario in flight

    def submit(self, config: ScenarioConfig, key, payload: tuple) -> None:
        self.keys.add(key)
        self.config = config
        with contextlib.suppress(OSError):  # died idle: reported at its pipe's EOF
            self.conn.send(payload)

    def lost(self) -> dict:
        """The error record of the scenario in flight when this (reaped) slot died."""
        self.conn.close()
        return {
            "scenario_id": self.config.scenario_id,
            "config": self.config.to_dict(),
            "status": "error",
            "error": f"worker exited with code {self.proc.exitcode} mid-scenario",
            "error_kind": "transient",
            "worker": {**worker_stamp(), "pid": self.proc.pid},
        }

    def stop(self) -> None:
        """Send an idle slot the ``None`` sentinel, kill a busy one; reap it."""
        if self.config is None:
            with contextlib.suppress(OSError):  # already dead: nothing to tell
                self.conn.send(None)
        else:
            self.proc.kill()
        self.proc.join()
        self.conn.close()


class SweepRunner:
    """Executes a scenario campaign against a persistent result store.

    Parameters
    ----------
    store:
        The :class:`~repro.sweep.store.ResultStore` holding completed cells.
    workers:
        Number of worker processes; ``1`` runs inline in this process.
    timeout_s:
        Per-scenario wall-clock budget.  The process running a scenario
        stops it at ``start + timeout_s`` (the simulator loop checks the
        deadline at every record tick) and records ``status == "timeout"``;
        ``None`` sets no budget.
    series_samples:
        When > 0, each record stores the simulation series decimated to this
        many samples.
    progress:
        Optional ``progress(done, total, record, cached)`` callback.
    fast:
        Engine choice threaded into every scenario: ``True`` (default)
        answers supply currents from the tabulated I-V surface, ``False``
        solves them exactly (Lambert-W) on the same simulator loop
        (``build_system(fast=False)``).  An execution detail only — it is
        not part of the scenario identity, so records computed under either
        engine share one store and cache-hit each other.
    telemetry:
        A :class:`~repro.obs.telemetry.Telemetry` bundle.  When given, the
        run emits a ``campaign.run`` span partitioned into
        ``campaign.phase`` spans (expand / cache-scan / execute) and
        stamped with the campaign's ``cpu_s`` (this process and its worker
        slots, from ``getrusage``) and ``max_rss_bytes``, one
        ``scenario`` span per completed cell (with queue-wait / build /
        simulate / record-write phase timings), and cache-hit / timeout /
        failure counters.  Defaults to the disabled bundle, whose methods
        are no-ops and which never touches the filesystem.
    retry:
        A :class:`~repro.faults.RetryPolicy` for *transient* in-worker
        failures (I/O errors, injected chaos): the failing scenario is
        re-attempted inside its worker with backoff before an ``error``
        record is ever written, counted as ``retry.attempt`` /
        ``retry.exhausted``.  Deterministic failures (bad configs) and
        timeouts are never retried in-campaign.  Defaults to
        :data:`~repro.faults.DEFAULT_RETRY_POLICY` (3 attempts).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        series_samples: int = 0,
        progress: Optional[ProgressCallback] = None,
        fast: bool = True,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.store = store
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.series_samples = int(series_samples)
        self.progress = progress
        self.fast = bool(fast)
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.deadline = math.inf  # the campaign deadline: see stop_at
        self._deadline_lock = threading.Lock()

    def stop_at(self, deadline: float) -> None:
        """Stop the campaign at ``deadline``, a :func:`time.monotonic` instant.

        May be called from another thread while :meth:`run` executes; a
        scenario already running keeps the deadline it was dispatched with.
        """
        with self._deadline_lock:
            self.deadline = min(self.deadline, deadline)

    # ------------------------------------------------------------------
    def run(self, campaign: Union[SweepSpec, Sequence[ScenarioConfig]]) -> SweepReport:
        """Run every scenario not already completed in the store.

        Raises :class:`TimeoutError` when the campaign deadline left
        scenarios unrun (every record computed before it is in the store).

        Phase spans are measured with *shared* clock marks — each phase ends
        exactly where the next begins — so the ``campaign.phase`` spans tile
        the ``campaign.run`` span and a trace report's phase coverage is 1.0
        by construction, not modulo span-emission overhead.
        """
        tracer = self.telemetry.tracer
        # The kernel readings go only on the traced campaign.run span; an
        # untraced run (every cached resubmission too) makes no syscall here.
        cpu_start = rusage_totals()[0] if tracer.enabled else 0.0
        started = time.perf_counter()
        configs = self._expand(campaign)
        mark = time.perf_counter()
        tracer.span_event("campaign.phase", mark - started, phase="expand")
        report = SweepReport(total=len(configs))

        pending: list[ScenarioConfig] = []
        done = 0
        for config in configs:
            if self.store.is_complete(config):
                lookup_t0 = time.perf_counter()
                record = self.store.get(config)
                report.cached += 1
                report.records.append(record)
                done += 1
                tracer.span_event(
                    "scenario",
                    time.perf_counter() - lookup_t0,
                    scenario_id=config.scenario_id,
                    status=record.get("status"),
                    cached=True,
                )
                self._notify(done, report.total, record, cached=True)
            else:
                pending.append(config)
        prev, mark = mark, time.perf_counter()
        tracer.span_event("campaign.phase", mark - prev, phase="cache-scan")

        if pending:
            execute = self._run_pool if self.workers > 1 else self._run_serial
            for record in execute(pending):
                write_t0 = time.perf_counter()
                self.store.append(record)
                write_s = time.perf_counter() - write_t0
                report.records.append(record)
                report.executed += 1
                status = record.get("status")
                if status == "error":
                    report.failed += 1
                    if record.get("error_kind") == "transient":
                        # In-worker retries ran out: the failure is persisted,
                        # but a resume (or a respawned worker) may still clear it.
                        tracer.counter(
                            "retry.exhausted", scenario_id=record.get("scenario_id")
                        )
                elif status == "timeout":
                    report.timed_out += 1
                attempts = int(record.get("attempts") or 1)
                if attempts > 1:
                    report.retried += attempts - 1
                    tracer.counter(
                        "retry.attempt",
                        attempts - 1,
                        scenario_id=record.get("scenario_id"),
                    )
                injected = int(record.get("faults_injected") or 0)
                if injected:
                    # Worker-side injections, re-counted into the coordinator's
                    # trace (pool children have no telemetry of their own).
                    tracer.counter("faults.injected", injected, site="worker.simulate")
                timings = record.get("timings") or {}
                tracer.span_event(
                    "scenario",
                    record.get("elapsed_s", 0.0),
                    scenario_id=record.get("scenario_id"),
                    status=status,
                    cached=False,
                    record_write_s=round(write_s, 6),
                    **{
                        k: timings.get(k)
                        for k in ("queue_wait_s", "build_s", "tabulate_s", "simulate_s", "cpu_s")
                    },
                )
                done += 1
                self._notify(done, report.total, record, cached=False)
            prev, mark = mark, time.perf_counter()
            tracer.span_event("campaign.phase", mark - prev, phase="execute")

        # Cache hits come first and worker slots finish out of order; the
        # report lists records in the campaign's expansion order.
        position = {config.scenario_id: i for i, config in enumerate(configs)}
        report.records.sort(
            key=lambda record: position.get(record.get("scenario_id"), len(configs))
        )
        report.elapsed_s = mark - started
        if tracer.enabled:
            # The slots were joined when the pool generator finished, so the
            # kernel has already added their CPU to this process's children.
            cpu_end, peak_rss = rusage_totals()
            tracer.span_event(
                "campaign.run",
                mark - started,
                workers=self.workers,
                cpu_s=round(cpu_end - cpu_start, 6),
                max_rss_bytes=peak_rss,
                **report.summary(),
            )
        unrun = report.total - len(report.records)
        if unrun:
            raise TimeoutError(
                f"campaign deadline passed with {unrun} of {report.total} scenario(s) not run"
            )
        return report

    # ------------------------------------------------------------------
    def _expand(self, campaign) -> list[ScenarioConfig]:
        return expand_unique(campaign)

    def _notify(self, done: int, total: int, record: dict, cached: bool) -> None:
        if self.progress is not None:
            self.progress(done, total, record, cached)

    def _payload(self, config: ScenarioConfig, enqueued_wall: float) -> tuple:
        """The :func:`_execute_payload` argument for ``config``, dispatched now."""
        retry = self.retry.to_dict()
        fields = (self.series_samples, self.fast, enqueued_wall, retry, self.timeout_s)
        return (config.to_dict(), *fields, self.deadline)

    def _run_serial(self, pending: list[ScenarioConfig]):
        # Queue-wait is measured from when the batch was enqueued: a
        # scenario's wait is the time it spent behind earlier work.
        enqueued_wall = time.time()
        for config in pending:
            if time.monotonic() >= self.deadline:
                return
            record = _execute_payload(self._payload(config, enqueued_wall))
            if record is not None:
                yield record

    def _run_pool(self, pending: list[ScenarioConfig]):
        """Yield records in completion order from dedicated worker slots.

        Each of ``workers`` slots is one process fed over its own pipe, one
        scenario at a time.  The coordinator sleeps in ``connection.wait``
        until a slot answers.  A freed slot takes the scenario
        :func:`_next_for_slot` picks, which keeps scenarios sharing a supply
        on the slot that already tabulated it (none after the campaign
        deadline).  Records are yielded (and so persisted by the caller) the
        moment they complete, so an interrupt loses at most the scenarios in
        flight; busy slots are killed only then.  A slot that dies
        mid-scenario yields a transient ``error`` record with its exit code
        and is respawned, and the campaign goes on.
        """
        ctx = multiprocessing.get_context()
        queue = list(pending)
        # A supply key is all ``build_supply`` reads: equal keys, one I-V table.
        keys = [(config.supply, config.duration_s) for config in queue]
        # Queue-wait baseline: every pending scenario is logically enqueued
        # now; a worker's measured wait is the time its cell spent queued
        # behind earlier cells (plus dispatch latency).
        enqueued_wall = time.time()
        slots = [_Slot(ctx) for _ in range(min(self.workers, len(pending)))]
        try:
            while True:
                if time.monotonic() >= self.deadline:
                    queue.clear()
                for slot in slots:
                    if slot.config is None and queue:
                        others = set().union(*(s.keys for s in slots if s is not slot))
                        index = _next_for_slot(keys, slot.keys, others)
                        config = queue.pop(index)
                        slot.submit(config, keys.pop(index), self._payload(config, enqueued_wall))
                busy = [slot for slot in slots if slot.config is not None]
                if not busy:
                    return
                ready = multiprocessing.connection.wait([slot.conn for slot in busy])
                for i, slot in enumerate(slots):
                    if slot.config is None or slot.conn not in ready:
                        continue
                    try:
                        record = slot.conn.recv()
                        slot.config = None
                    except (EOFError, OSError):
                        slot.proc.join()
                        record = slot.lost()
                        slots[i] = _Slot(ctx)
                    if record is not None:
                        yield record
        finally:
            for slot in slots:
                slot.stop()
