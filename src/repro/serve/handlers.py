"""The campaign service's route table: requests in, responses out.

Kept deliberately transport-free: :class:`Api.dispatch` maps a parsed
:class:`Request` onto scheduler/store operations and returns either a
:class:`JsonResponse` or an :class:`EventStreamResponse` marker; the actual
socket writing (and the SSE pump) lives in :mod:`repro.serve.app`.  That
split keeps every routing/authorisation/validation decision unit-testable
without opening a port.

Endpoints::

    GET  /healthz                     liveness + store/campaign counts
    GET  /readyz                      readiness (scheduler alive, store open)
    GET  /metrics                     service metrics (counters, gauges, histograms,
                                      process gauges read at scrape time)
    GET  /metrics?format=prometheus   the same registry as Prometheus text 0.0.4
    GET  /dashboard                   self-contained live HTML dashboard
    GET  /campaigns                   all campaigns (newest last)
    POST /campaigns                   submit a SweepSpec/BoundaryQuery snapshot
    GET  /campaigns/{id}              status + result summary
    GET  /campaigns/{id}/events       live SSE trace stream
    GET  /campaigns/{id}/records      the campaign's records (filterable)
    GET  /campaigns/{id}/aggregate    overview + per-axis summaries + rows
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from ..obs.promexport import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..obs.resource import record_process_gauges
from ..sweep.aggregate import campaign_tables
from ..sweep.aggregate import (  # noqa: F401 — the layer benchmark wraps these names
    axis_summary,
    campaign_overview,
    records_table,
)
from ..sweep.store import FILTER_COLUMNS, ResultStore
from .dashboard import render_dashboard
from .scheduler import Campaign, CampaignScheduler

__all__ = [
    "Request",
    "JsonResponse",
    "TextResponse",
    "EventStreamResponse",
    "Api",
    "DRAIN_RETRY_AFTER_S",
]

#: The Retry-After horizon stamped on drain 503s: drains complete quickly
#: (one in-flight campaign at most), so clients should re-poll soon.
DRAIN_RETRY_AFTER_S = 1

#: The Content-Type of every JSON response.
JSON_CONTENT_TYPE = "application/json"

#: Query parameters that are *not* record filters.
_PAGING_PARAMS = ("limit", "offset")

#: How each typed filter column coerces its query-string value.
_FILTER_COERCERS = {
    "seed": int,
    "schema_version": int,
    "capacitance_f": float,
    "duration_s": float,
}


def _coerce_bool(value: str) -> int:
    if value.lower() in ("1", "true", "yes"):
        return 1
    if value.lower() in ("0", "false", "no"):
        return 0
    raise ValueError(f"not a boolean: {value!r}")


_FILTER_COERCERS["survived"] = _coerce_bool


@dataclass
class Request:
    """One parsed HTTP request (query values: last occurrence wins)."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None


def encode_json(payload) -> str:
    """A JSON response body: compact (``indent`` would force the
    pure-Python encoder), newline-terminated."""
    return json.dumps(payload, default=str) + "\n"


@dataclass
class JsonResponse:
    status: int
    payload: object
    #: Extra response headers (e.g. ``Retry-After`` on drain 503s).
    headers: dict = field(default_factory=dict)


@dataclass
class TextResponse:
    """A non-JSON body: the Prometheus exposition, the dashboard HTML."""

    status: int
    body: str
    content_type: str = "text/plain; charset=utf-8"


@dataclass
class EventStreamResponse:
    """Marker telling the app layer to pump this campaign's SSE stream."""

    campaign: Campaign


class Api:
    """Routing + validation over a scheduler and its store."""

    def __init__(
        self,
        scheduler: CampaignScheduler,
        store: ResultStore,
        metrics=None,
        token: Optional[str] = None,
    ):
        self.scheduler = scheduler
        self.store = store
        self.metrics = metrics
        self.token = token

    # ------------------------------------------------------------------
    def _authorised(self, request: Request) -> bool:
        if not self.token:
            return True
        return request.headers.get("authorization", "") == f"Bearer {self.token}"

    async def dispatch(
        self, request: Request
    ) -> Union[JsonResponse, TextResponse, EventStreamResponse]:
        """Route one request; every error becomes a JSON error payload."""
        parts = [p for p in request.path.split("/") if p]
        if request.path not in ("/healthz", "/readyz") and not self._authorised(request):
            return JsonResponse(401, {"error": "unauthorised (missing or wrong bearer token)"})
        if request.path == "/healthz" and request.method == "GET":
            return JsonResponse(
                200,
                {
                    "status": "ok",
                    "campaigns": len(self.scheduler.campaigns),
                    "records": len(self.store),
                    "scheduler_restarts": self.scheduler.restarts,
                },
            )
        if request.path == "/readyz" and request.method == "GET":
            return self._readyz()
        if request.path == "/metrics" and request.method == "GET":
            if self.metrics is not None:
                # Read on scrape, as Prometheus's process collector does.
                record_process_gauges(self.metrics)
            if request.query.get("format") == "prometheus":
                body = render_prometheus(self.metrics) if self.metrics is not None else ""
                return TextResponse(200, body, content_type=PROMETHEUS_CONTENT_TYPE)
            payload = self.metrics.to_dict() if self.metrics is not None else {}
            return JsonResponse(200, payload)
        if request.path == "/dashboard" and request.method == "GET":
            return TextResponse(
                200,
                render_dashboard(self.scheduler, self.store),
                content_type="text/html; charset=utf-8",
            )
        if parts[:1] == ["campaigns"]:
            if len(parts) == 1:
                if request.method == "GET":
                    return self._list_campaigns()
                if request.method == "POST":
                    return await self._submit(request)
                return JsonResponse(405, {"error": f"{request.method} not allowed here"})
            campaign = self.scheduler.get(parts[1])
            if campaign is None:
                return JsonResponse(404, {"error": f"unknown campaign {parts[1]!r}"})
            if request.method != "GET":
                return JsonResponse(405, {"error": f"{request.method} not allowed here"})
            if len(parts) == 2:
                return JsonResponse(200, campaign.to_dict(include_snapshot=True))
            if len(parts) == 3 and parts[2] == "events":
                return EventStreamResponse(campaign)
            if len(parts) == 3 and parts[2] == "records":
                return await self._records(campaign, request)
            if len(parts) == 3 and parts[2] == "aggregate":
                return await self._aggregate(campaign, request)
        return JsonResponse(404, {"error": f"no such endpoint: {request.method} {request.path}"})

    # ------------------------------------------------------------------
    def _readyz(self) -> JsonResponse:
        """Readiness: can this service *do work right now*?

        Distinct from ``/healthz`` liveness — a service whose campaign
        worker has died or that is draining for shutdown still answers
        health checks but must be taken out of rotation.  503 carries the
        failing check by name so an operator reads the reason straight off
        ``curl``.
        """
        checks = {
            "scheduler_alive": self.scheduler.alive,
            "not_draining": not self.scheduler.draining,
        }
        try:
            checks["store_open"] = len(self.store) >= 0
        except Exception:  # noqa: BLE001 — an unreadable store is the finding
            checks["store_open"] = False
        ready = all(checks.values())
        payload: dict = {"status": "ready" if ready else "unavailable", "checks": checks}
        headers = {}
        if self.scheduler.draining:
            # Load balancers should re-poll shortly: drain completes fast.
            payload["draining"] = True
            headers["Retry-After"] = str(DRAIN_RETRY_AFTER_S)
        return JsonResponse(200 if ready else 503, payload, headers=headers)

    def _list_campaigns(self) -> JsonResponse:
        campaigns = [c.to_dict() for c in self.scheduler.list()]
        return JsonResponse(200, {"count": len(campaigns), "campaigns": campaigns})

    async def _submit(self, request: Request) -> JsonResponse:
        try:
            payload = request.json()
            campaign, created = await self.scheduler.submit(payload)
        except ValueError as exc:
            return JsonResponse(400, {"error": str(exc)})
        except RuntimeError as exc:  # draining: shutting down, try elsewhere
            # Submission is content-hash idempotent, so a client may safely
            # retry against a replacement instance after Retry-After seconds.
            return JsonResponse(
                503,
                {"error": str(exc), "draining": True},
                headers={"Retry-After": str(DRAIN_RETRY_AFTER_S)},
            )
        doc = {
            "id": campaign.id,
            "created": created,
            "cached": not created,
            "campaign": campaign.to_dict(),
        }
        if not created:
            # This submission scheduled nothing: the content hash matched an
            # existing campaign, so zero new simulations were queued for it.
            doc["executed"] = 0
        return JsonResponse(201 if created else 200, doc)

    # ------------------------------------------------------------------
    def _parse_filters(self, request: Request) -> tuple[dict, Optional[int], int]:
        """Record filters + paging from query params; ValueError on junk."""
        filters: dict = {}
        for key, value in request.query.items():
            if key in _PAGING_PARAMS:
                continue
            if key not in FILTER_COLUMNS:
                raise ValueError(
                    f"unknown filter {key!r}; known: {', '.join(FILTER_COLUMNS)}"
                )
            coerce = _FILTER_COERCERS.get(key, str)
            try:
                filters[key] = coerce(value)
            except ValueError:
                raise ValueError(f"bad value for filter {key!r}: {value!r}") from None
        limit = request.query.get("limit")
        offset = request.query.get("offset", "0")
        try:
            limit, offset = (int(limit) if limit is not None else None), int(offset)
        except ValueError:
            raise ValueError("limit/offset must be integers") from None
        if (limit is not None and limit < 0) or offset < 0:
            raise ValueError("limit/offset must not be negative")
        return filters, limit, offset

    async def _records(
        self, campaign: Campaign, request: Request
    ) -> Union[JsonResponse, TextResponse]:
        try:
            filters, limit, offset = self._parse_filters(request)
        except ValueError as exc:
            return JsonResponse(400, {"error": str(exc)})
        # Restrict to the campaign's scenario ids — an explicit (possibly
        # empty) list: a boundary campaign that has not probed yet correctly
        # serves zero records, not the whole store.
        scenario_ids = list(campaign.scenario_ids)

        def body() -> str:
            records = self.store.query(
                scenario_ids=scenario_ids, limit=limit, offset=offset, **filters
            )
            slim = [{k: v for k, v in record.items() if k != "series"} for record in records]
            return encode_json({"campaign": campaign.id, "count": len(slim), "records": slim})

        return TextResponse(200, await asyncio.to_thread(body), content_type=JSON_CONTENT_TYPE)

    async def _aggregate(self, campaign: Campaign, request: Request) -> TextResponse:
        # The whole body is built and encoded in a worker thread: one pass
        # over a large campaign's records, and the encode of its document,
        # each take milliseconds the event loop must spend answering other
        # requests.
        scenario_ids, axis = list(campaign.scenario_ids), request.query.get("axis")
        body = await asyncio.to_thread(
            lambda: encode_json(self._aggregate_doc(campaign, scenario_ids, axis))
        )
        return TextResponse(200, body, content_type=JSON_CONTENT_TYPE)

    def _aggregate_doc(
        self, campaign: Campaign, scenario_ids: list, axis: Optional[str]
    ) -> dict:
        ok = self.store.query(status="ok", scenario_ids=scenario_ids)
        axis_names = (
            [axis]
            if axis
            else [a["name"] for a in campaign.snapshot.get("axes", [])]
            + [a["name"] for a in campaign.snapshot.get("outer_axes", [])]
        )
        return {"campaign": campaign.id, "records": len(ok), **campaign_tables(ok, axis_names)}
