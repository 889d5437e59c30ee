"""Campaign registry and execution behind the service: submit, dedupe, run.

A :class:`Campaign` is one submitted unit of work — a sweep
(:class:`~repro.sweep.spec.SweepSpec` snapshot) or a boundary search
(:class:`~repro.sweep.adaptive.BoundaryQuery` snapshot) — identified by its
**content hash** (``campaign_hash`` / ``query_hash``).  Submitting the same
spec twice therefore *cannot* create duplicate work: the second submission
returns the existing campaign, and even a submission after a service restart
re-executes only what the shared content-addressed
:class:`~repro.sweep.store.ResultStore` does not already hold (pure cache
hits, ``executed == 0``).

The :class:`CampaignScheduler` runs campaigns **strictly one at a time** in
a single asyncio worker task: all campaigns share the service's one store
object, which has one writer by design; parallelism lives *inside* a
campaign (the :class:`~repro.sweep.runner.SweepRunner` worker pool), not
across campaigns.  Each execution happens in a thread
(:func:`asyncio.to_thread`) so the event loop keeps serving requests, and
writes its trace under ``<data_dir>/traces/<campaign_id>/`` — the directory
the SSE endpoint tails.  The watchdog and :meth:`CampaignScheduler.stop`
hand the running campaign's runner a deadline and wait for its thread to
return, so a campaign that has ended appends nothing more to the store.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

from .. import faults
from ..obs.history import RunLedger, summarize_run
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..obs.timeseries import DEFAULT_LATENCY_BOUNDARIES
from ..sweep.adaptive import BoundaryQuery, BoundarySearch
from ..sweep.presets import build_preset
from ..sweep.runner import SweepRunner
from ..sweep.spec import SweepSpec, campaign_hash_of, resolve_axis_path
from ..sweep.store import ResultStore

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "TERMINAL_STATES",
    "MAX_CAMPAIGN_CELLS",
    "MAX_SCENARIO_DURATION_S",
    "Campaign",
    "CampaignScheduler",
    "parse_submission",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL_STATES = (DONE, FAILED)

#: The most cells one submitted sweep may expand to.  A submission is
#: network input: without a cap, one request could ask the service to
#: expand (and hold) an arbitrarily large grid.
MAX_CAMPAIGN_CELLS = 100_000

#: The longest simulated duration (s) any scenario of a submitted campaign
#: may have: one simulated day.  A scenario's work and recorder memory grow
#: with its duration, and a service started without a per-scenario budget
#: could let one unbounded cell hold the FIFO queue.
MAX_SCENARIO_DURATION_S = 86_400


def _refuse_long_scenarios(spec: "Union[SweepSpec, BoundaryQuery]") -> None:
    """Raise ``ValueError`` if any scenario of ``spec`` could run too long.

    Reads the spec and expands nothing: the base duration, every value of
    an axis on ``duration_s`` and, for a boundary search on ``duration_s``,
    the furthest its bracket can grow above ``hi``.
    """
    durations = [spec.base.duration_s]
    axes = spec.axes if isinstance(spec, SweepSpec) else spec.outer_axes
    for axis in axes:
        if resolve_axis_path(axis.name) == "duration_s":
            durations.extend(axis.values)
    if isinstance(spec, BoundaryQuery) and resolve_axis_path(spec.path) == "duration_s":
        factor, times = spec.expansion_factor, spec.max_expansions
        try:
            if spec.scale == "log":
                durations.append(spec.hi * factor**times)
            else:
                durations.append(spec.lo + (spec.hi - spec.lo) * (1.0 + factor) ** times)
        except OverflowError:
            durations.append(math.inf)
    for duration in durations:
        try:
            duration = float(duration)
        except (TypeError, ValueError):
            raise ValueError(f"duration_s must be a number (got {duration!r})") from None
        if not duration <= MAX_SCENARIO_DURATION_S:
            raise ValueError(
                f"a scenario could simulate {duration:g} s; a campaign may simulate "
                f"at most {MAX_SCENARIO_DURATION_S:,} s per scenario"
            )


@dataclass
class Campaign:
    """One submitted campaign and everything the API serves about it."""

    id: str
    kind: str  # "sweep" | "boundary"
    snapshot: dict  # the canonical spec/query dict (what from_dict rebuilds)
    trace_dir: Path
    state: str = QUEUED
    submissions: int = 1
    submitted_t: float = 0.0
    started_t: Optional[float] = None
    finished_t: Optional[float] = None
    progress: dict = field(default_factory=dict)
    result: Optional[dict] = None
    error: Optional[str] = None
    #: The scenario ids the campaign covers: known up front for sweeps,
    #: accumulated probe-by-probe for boundary searches.
    scenario_ids: tuple = ()

    def to_dict(self, include_snapshot: bool = False) -> dict:
        doc = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submissions": self.submissions,
            "submitted_t": self.submitted_t,
            "started_t": self.started_t,
            "finished_t": self.finished_t,
            "progress": dict(self.progress),
            "scenarios": len(self.scenario_ids),
            "result": self.result,
            "error": self.error,
        }
        if include_snapshot:
            doc["snapshot"] = self.snapshot
        return doc


def parse_submission(payload: Mapping) -> tuple[str, dict, str, tuple]:
    """Normalise a ``POST /campaigns`` body into campaign identity.

    Accepted shapes::

        {"preset": "dist-smoke"}                      # named sweep preset
        {"kind": "sweep",    "spec": {...}}           # explicit kind
        {"kind": "boundary", "spec": {...}}
        {...}                                         # bare snapshot; kind
                                                      # inferred (boundary iff
                                                      # path/lo/hi present)

    Returns ``(kind, canonical_snapshot, campaign_id, scenario_ids)``; raises
    :class:`ValueError` on anything unparseable (the handler maps that to a
    400).  The id is the *content hash* of the canonical snapshot, so any two
    spellings of the same campaign collapse to one.  A sweep of more than
    :data:`MAX_CAMPAIGN_CELLS` cells is refused from ``len(spec)``, before
    any scenario is built, and so is any campaign a scenario of which could
    simulate more than :data:`MAX_SCENARIO_DURATION_S`.  Otherwise a sweep
    is expanded once: its scenario ids are computed and the campaign hash
    is taken over them (the same hash :meth:`SweepSpec.campaign_hash`
    gives).
    """
    if not isinstance(payload, Mapping):
        raise ValueError("submission must be a JSON object")
    spec: "Union[SweepSpec, BoundaryQuery]"
    if "preset" in payload:
        spec = build_preset(str(payload["preset"]))
        kind = "sweep"
    else:
        body = payload.get("spec", payload)
        if not isinstance(body, Mapping):
            raise ValueError("'spec' must be a JSON object")
        kind = payload.get("kind")
        if kind is None:
            kind = "boundary" if {"path", "lo", "hi"} <= set(body) else "sweep"
        kind = str(kind)
        try:
            if kind == "sweep":
                spec = SweepSpec.from_dict(body)
            elif kind == "boundary":
                spec = BoundaryQuery.from_dict(body)
            else:
                raise ValueError(f"unknown campaign kind {kind!r} (sweep or boundary)")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {kind} snapshot: {exc}") from None
    _refuse_long_scenarios(spec)
    if isinstance(spec, SweepSpec):
        if len(spec) > MAX_CAMPAIGN_CELLS:
            raise ValueError(
                f"sweep expands to {len(spec):,} cells; a campaign may have at "
                f"most {MAX_CAMPAIGN_CELLS:,}"
            )
        ids = tuple(spec.scenario_ids())
        return "sweep", spec.to_dict(), campaign_hash_of(ids), ids
    return "boundary", spec.to_dict(), spec.query_hash(), ()


class CampaignScheduler:
    """FIFO, dedup-by-content campaign execution over one shared store."""

    def __init__(
        self,
        store: ResultStore,
        data_dir: "str | Path",
        workers: int = 2,
        timeout_s: Optional[float] = None,
        series_samples: int = 0,
        fast: bool = True,
        metrics=None,
        watchdog_s: Optional[float] = None,
        ledger: "str | Path | None" = None,
    ):
        if watchdog_s is not None and watchdog_s <= 0:
            raise ValueError("watchdog_s must be positive")
        self.store = store
        self.data_dir = Path(data_dir)
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.series_samples = int(series_samples)
        self.fast = bool(fast)
        #: Service-level registry (the one ``/metrics`` serves); defaults to
        #: a private one nothing reads.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Per-campaign wall-clock budget: a campaign running longer is
        #: stopped and failed honestly (``scheduler.watchdog_timeout``)
        #: instead of wedging the FIFO queue forever.
        self.watchdog_s = watchdog_s
        #: Run-ledger path: every finished campaign appends a RunSummary.
        self.ledger = Path(ledger) if ledger is not None else None
        #: How many times the supervisor restarted a dead worker task.
        self.restarts = 0
        self.campaigns: dict[str, Campaign] = {}
        self.draining = False
        self._queue: "asyncio.Queue[Campaign]" = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        #: The running campaign's deadline (``time.monotonic``) and runner.
        self._deadline = math.inf
        self._runner: Optional[SweepRunner] = None

    @property
    def alive(self) -> bool:
        """True while the worker task exists and has not died/finished."""
        return self._task is not None and not self._task.done()

    # ------------------------------------------------------------------
    # Submission / lookup (event-loop side)
    # ------------------------------------------------------------------
    async def submit(self, payload: Mapping) -> tuple[Campaign, bool]:
        """Register (or dedupe) a submission; returns ``(campaign, created)``.

        An identical spec maps to an identical campaign id, so resubmission
        returns the existing campaign — whatever its state — without
        queueing anything.  Only a *failed* campaign is re-queued on
        resubmission (that is the retry path).

        Parsing expands the whole grid, so :func:`parse_submission` runs in
        a thread: a large submission does not stall the event loop's other
        requests.  Dedupe and registration stay on the loop, and draining
        is checked both before the parse and again at registration.
        """
        self._refuse_if_draining()
        kind, snapshot, campaign_id, scenario_ids = await asyncio.to_thread(
            parse_submission, payload
        )
        self._refuse_if_draining()  # a drain may have begun during the parse
        existing = self.campaigns.get(campaign_id)
        if existing is not None and existing.state != FAILED:
            existing.submissions += 1
            return existing, False
        campaign = Campaign(
            id=campaign_id,
            kind=kind,
            snapshot=snapshot,
            trace_dir=self.data_dir / "traces" / campaign_id,
            submitted_t=time.time(),
            submissions=existing.submissions + 1 if existing is not None else 1,
            scenario_ids=scenario_ids,
        )
        self.campaigns[campaign_id] = campaign
        self._queue.put_nowait(campaign)
        return campaign, True

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise RuntimeError("service is draining; not accepting campaigns")

    def get(self, campaign_id: str) -> Optional[Campaign]:
        return self.campaigns.get(campaign_id)

    def list(self) -> list[Campaign]:
        return list(self.campaigns.values())

    # ------------------------------------------------------------------
    # The worker task
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._task is None:
            self._stopping = False
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        self._task = asyncio.create_task(self._worker(), name="campaign-worker")
        self._task.add_done_callback(self._supervise)

    def _supervise(self, task: "asyncio.Task") -> None:
        """Restart the worker task if it dies unexpectedly.

        The worker loop catches campaign failures itself, so the task only
        ends via cancellation (shutdown) or a scheduler-level bug / injected
        fault — precisely the deaths that used to stop all campaign
        execution silently.  A queued campaign survives: the restarted
        worker picks it up from the same queue.
        """
        if self._stopping or task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self.restarts += 1
        self.metrics.counter("scheduler.restart")
        self._spawn_worker()

    async def drain(self, poll_s: float = 0.05) -> None:
        """Graceful shutdown: refuse new work, fail the queue, finish in-flight.

        Queued campaigns never started, so they fail honestly instead of
        silently vanishing; the one RUNNING campaign (if any) is allowed to
        complete — its records are already streaming into the shared store
        and abandoning it would waste the work.  Safe to call twice.
        """
        self.draining = True
        while True:
            try:
                campaign = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if campaign.state == QUEUED:
                campaign.state = FAILED
                campaign.error = "service shut down before campaign started"
                campaign.finished_t = time.time()
            self._queue.task_done()
        while any(c.state == RUNNING for c in self.campaigns.values()):
            await asyncio.sleep(poll_s)

    async def stop(self) -> None:
        """Stop the worker task; a running campaign dispatches nothing more and fails.

        Returns after the campaign's thread has returned, so nothing is
        appended afterwards; a scenario already running ends first, by its
        own ``timeout_s`` at the latest.
        """
        self._stopping = True
        self._stop_campaign()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def _stop_campaign(self) -> None:
        """Hand the running campaign (if any) a deadline of now.

        Writes ``_deadline`` before it reads ``_runner``, and ``_execute``
        publishes ``_runner`` before it reads ``_deadline``: whichever runs
        second hands the runner the deadline.
        """
        self._deadline = time.monotonic()
        runner = self._runner
        if runner is not None:
            runner.stop_at(self._deadline)

    async def _worker(self) -> None:
        while True:
            injector = faults.active()
            if injector is not None:
                # Fired while idle (before the dequeue), so an injected death
                # leaves the campaign queued for the supervisor's restarted
                # worker instead of stranding it RUNNING.
                injector.fire("serve.scheduler", metrics=self.metrics)
            campaign = await self._queue.get()
            campaign.state = RUNNING
            campaign.started_t = time.time()
            # No runner exists yet: the last campaign's thread has returned.
            self._deadline = (
                math.inf if self.watchdog_s is None else time.monotonic() + self.watchdog_s
            )
            work = asyncio.ensure_future(asyncio.to_thread(self._execute, campaign))
            try:
                campaign.result = await asyncio.shield(work)
                campaign.state = DONE
            except asyncio.CancelledError:
                campaign.state = FAILED
                campaign.error = "service shut down mid-run"
                self._stop_campaign()
                await asyncio.wait({work})
                work.exception()  # retrieved: the campaign has failed either way
                campaign.finished_t = time.time()
                raise
            except Exception as exc:  # noqa: BLE001 — a bad campaign must not kill the worker
                campaign.state = FAILED
                if self.watchdog_s is not None and time.monotonic() >= self._deadline:
                    campaign.error = (
                        f"campaign exceeded the {self.watchdog_s:g} s watchdog budget"
                    )
                    self.metrics.counter("scheduler.watchdog_timeout")
                else:
                    campaign.error = f"{type(exc).__name__}: {exc}"
            finally:
                if campaign.finished_t is None:
                    campaign.finished_t = time.time()
                self._queue.task_done()

    def _execute(self, campaign: Campaign) -> dict:
        """Run one campaign to completion (called in a worker thread).

        Per-campaign telemetry writes ``trace-serve-<pid>.jsonl`` under the
        campaign's trace dir — the live feed of the ``/events`` stream and
        the source of the campaign's ledger line, which carries its cache
        economics.
        """
        campaign.trace_dir.mkdir(parents=True, exist_ok=True)
        telemetry = Telemetry.create(campaign.trace_dir, worker="serve", campaign=campaign.id)
        seen = set(campaign.scenario_ids)

        def progress(done: int, total: int, record: dict, cached: bool) -> None:
            campaign.progress = {"done": done, "total": total}
            scenario_id = record.get("scenario_id")
            if scenario_id and scenario_id not in seen:
                seen.add(scenario_id)
                campaign.scenario_ids = campaign.scenario_ids + (scenario_id,)
            if cached:
                return
            # Executed-scenario latency: the service-registry histogram
            # /metrics exposes.
            self.metrics.histogram(
                "scenario_duration_seconds", boundaries=DEFAULT_LATENCY_BOUNDARIES
            ).observe(float(record.get("elapsed_s") or 0.0))

        try:
            runner = SweepRunner(
                self.store,
                workers=self.workers,
                timeout_s=self.timeout_s,
                series_samples=self.series_samples,
                progress=progress,
                fast=self.fast,
                telemetry=telemetry,
            )
            self._runner = runner
            runner.stop_at(self._deadline)
            if campaign.kind == "sweep":
                report = runner.run(SweepSpec.from_dict(campaign.snapshot))
                result = {
                    "kind": "sweep",
                    "succeeded": report.succeeded,
                    **report.summary(),
                }
            else:
                query = BoundaryQuery.from_dict(campaign.snapshot)
                boundary = BoundarySearch(query, runner, telemetry=telemetry).run()
                result = {
                    "kind": "boundary",
                    "succeeded": boundary.converged,
                    **boundary.summary(),
                    "cells_detail": [cell.to_dict() for cell in boundary.cells],
                }
            retried = int(result.get("retried") or 0)
            if retried:
                # Mirror campaign-level retries into the service registry so
                # /metrics and the dashboard see them without reading traces.
                self.metrics.counter("retry.attempt", retried)
            self._append_ledger(campaign)
            return result
        finally:
            self._runner = None
            telemetry.close()

    def _append_ledger(self, campaign: Campaign) -> None:
        """Append the finished campaign's RunSummary to the service ledger.

        The ledger is advisory history: a summarisation failure (trace dir
        cleaned up mid-run, unwritable ledger) must never fail the campaign.
        """
        if self.ledger is None:
            return
        try:
            summary = summarize_run(
                campaign.trace_dir,
                kind=f"serve.{campaign.kind}",
                campaign=campaign.id,
                engine="fast" if self.fast else "exact",
            )
            RunLedger(self.ledger).append(summary)
        except Exception:  # noqa: BLE001 — history must not break execution
            self.metrics.counter("scheduler.ledger_errors")
