"""The asyncio HTTP front end of the campaign service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` — no
framework, no new dependencies — serving the :class:`~repro.serve.handlers.Api`
route table.  Each connection carries one request (``Connection: close``),
which keeps the parser ~40 lines and is plenty for a campaign-submission
workload; the one long-lived response shape, the ``/events`` Server-Sent
Events stream, is pumped from a :class:`~repro.obs.report.TracePoller` over
the campaign's trace directory until the campaign reaches a terminal state
and the tail is drained.

Three entry points:

* :class:`CampaignService` — the async object (``await start()``, then
  ``await serve_forever()``); ``port=0`` binds an ephemeral port.
* :class:`ServiceThread` — the service on a private event loop in a daemon
  thread, for tests/examples that drive it with a blocking client.
* :func:`run_service` — the blocking CLI entry point behind
  ``python -m repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Optional

from .. import faults
from ..obs.metrics import MetricsRegistry
from ..obs.report import TracePoller
from ..obs.resource import record_process_gauges
from ..obs.telemetry import DISABLED, Telemetry
from ..obs.timeseries import DEFAULT_LATENCY_BOUNDARIES
from ..sweep.store import ResultStore
from .handlers import (
    JSON_CONTENT_TYPE,
    Api,
    EventStreamResponse,
    JsonResponse,
    Request,
    TextResponse,
    encode_json,
)
from .scheduler import TERMINAL_STATES, CampaignScheduler

__all__ = ["CampaignService", "ServiceThread", "run_service", "route_template"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100
#: Seconds a client has to send its whole request (line, headers, body); a
#: connection that idles past it is closed, so it cannot pin a handler.
_REQUEST_READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: The fixed route table, for request-metric labels.
_KNOWN_ROUTES = ("/healthz", "/readyz", "/metrics", "/dashboard", "/campaigns")
_CAMPAIGN_SUBROUTES = ("events", "records", "aggregate")


def route_template(path: str) -> str:
    """Collapse a request path to its route template for metric labels.

    ``/campaigns/abc123/records`` becomes ``/campaigns/{id}/records`` and
    anything off the route table becomes ``/other``, so request histograms
    keep a small, fixed label cardinality no matter what clients throw at
    the socket.
    """
    parts = [p for p in path.split("/") if p]
    if parts[:1] == ["campaigns"] and len(parts) >= 2:
        if len(parts) == 2:
            return "/campaigns/{id}"
        if len(parts) == 3 and parts[2] in _CAMPAIGN_SUBROUTES:
            return f"/campaigns/{{id}}/{parts[2]}"
        return "/other"
    normalised = "/" + "/".join(parts)
    return normalised if normalised in _KNOWN_ROUTES else "/other"


class CampaignService:
    """The long-running campaign service: store + scheduler + HTTP server."""

    def __init__(
        self,
        store_path: "str | Path",
        data_dir: "str | Path | None" = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        workers: int = 2,
        timeout_s: Optional[float] = None,
        series_samples: int = 0,
        fast: bool = True,
        token: Optional[str] = None,
        sse_poll_s: float = 0.25,
        trace_dir: "str | Path | None" = None,
        watchdog_s: Optional[float] = None,
    ):
        self.store_path = Path(store_path)
        self.data_dir = Path(data_dir) if data_dir is not None else Path(str(store_path) + ".serve")
        self.host = host
        self.port = int(port)
        self.workers = workers
        self.timeout_s = timeout_s
        self.series_samples = series_samples
        self.fast = fast
        self.token = token
        self.sse_poll_s = float(sse_poll_s)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.watchdog_s = watchdog_s
        self.store: Optional[ResultStore] = None
        self.scheduler: Optional[CampaignScheduler] = None
        self.api: Optional[Api] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.telemetry: Optional[Telemetry] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutting_down: Optional[asyncio.Event] = None
        self._in_flight = 0

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def start(self) -> "CampaignService":
        """Open the store, start the worker task, bind the listening socket.

        The registry ``GET /metrics`` exposes holds the service's own series
        (requests, scheduler, scenario latency, process gauges).  With
        ``trace_dir`` set the service also writes its own trace file
        (request spans, and the store's events); the store is opened with
        that telemetry.
        """
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = MetricsRegistry()
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self.telemetry = Telemetry.create(self.trace_dir, worker="serve")
        else:
            self.telemetry = DISABLED
        self.store = ResultStore(self.store_path, telemetry=self.telemetry)
        self.scheduler = CampaignScheduler(
            self.store,
            self.data_dir,
            workers=self.workers,
            timeout_s=self.timeout_s,
            series_samples=self.series_samples,
            fast=self.fast,
            metrics=self.metrics,
            watchdog_s=self.watchdog_s,
            ledger=self.data_dir / "ledger.jsonl",
        )
        await self.scheduler.start()
        self.api = Api(self.scheduler, self.store, metrics=self.metrics, token=self.token)
        self._shutting_down = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, stop the scheduler, snapshot the registry.

        The registry, process gauges included, is written once to
        ``<data_dir>/metrics.json``; what must survive a kill is elsewhere
        (the store and each campaign's trace and ledger line).
        """
        if self._shutting_down is not None:
            self._shutting_down.set()  # any open SSE stream closes promptly
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except asyncio.CancelledError:
                pass
            self._server = None
        if self.scheduler is not None:
            await self.scheduler.stop()
        if self.metrics is not None:
            record_process_gauges(self.metrics)
            try:
                self.metrics.write(self.data_dir / "metrics.json")
            except OSError:
                pass  # a full disk must not stop the shutdown
        if self.telemetry is not None:
            self.telemetry.close()

    async def shutdown(self) -> None:
        """Graceful stop: refuse new work, finish in-flight, close streams.

        The ordered teardown behind SIGINT/SIGTERM: open SSE streams are
        told to close (a terminal ``event: shutdown`` frame), the scheduler
        drains — queued campaigns fail fast, the running one completes and
        keeps its results — and only then does the listener come down.
        Safe to call more than once.
        """
        if self._shutting_down is not None:
            self._shutting_down.set()
        if self.scheduler is not None:
            await self.scheduler.drain()
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        started = time.perf_counter()
        method, route, status = "?", "/other", 0
        self._in_flight += 1
        self.metrics.gauge("http_requests_in_flight", self._in_flight)
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), _REQUEST_READ_TIMEOUT_S
            )
            if request is None:
                return
            if isinstance(request, JsonResponse):  # parse-level error
                response = request
            else:
                method = request.method
                route = route_template(request.path)
                try:
                    injector = faults.active()
                    if injector is not None:
                        # Chaos hook: injected errors surface as the 500 path
                        # below, delays stall this request (they block the
                        # loop — chaos plans should keep them short).
                        injector.fire(
                            "serve.handle",
                            telemetry=self.telemetry,
                            metrics=self.metrics,
                            path=request.path,
                            method=method,
                        )
                    response = await self.api.dispatch(request)
                except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the server
                    response = JsonResponse(500, {"error": f"{type(exc).__name__}: {exc}"})
            if isinstance(response, EventStreamResponse):
                status = 200
                await self._write_event_stream(writer, response.campaign)
            else:
                status = response.status
                if isinstance(response, TextResponse):
                    self._write_text(writer, response)
                else:
                    self._write_json(writer, response)
                await writer.drain()
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.TimeoutError,
        ):
            pass  # client went away mid-request/stream, or idled past the deadline
        finally:
            self._in_flight -= 1
            self.metrics.gauge("http_requests_in_flight", self._in_flight)
            self._record_request(method, route, status, time.perf_counter() - started)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    def _record_request(self, method: str, route: str, status: int, dur_s: float) -> None:
        """The request-timing middleware: one histogram point per request.

        Routes are *templated* (``/campaigns/{id}/records``) so label
        cardinality stays bounded; SSE streams count under their own route,
        where their stream-lifetime "latency" cannot skew the API routes.
        """
        labels = {"route": route, "method": method, "status": str(status)}
        self.metrics.counter("http_requests_total", labels=labels)
        self.metrics.histogram(
            "http_request_duration_seconds",
            labels=labels,
            boundaries=DEFAULT_LATENCY_BOUNDARIES,
        ).observe(dur_s)
        if self.telemetry is not None:
            self.telemetry.tracer.span_event(
                "http.request", dur_s, route=route, method=method, status=status
            )

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """Parse one request; None on EOF, a JsonResponse on protocol errors."""
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return JsonResponse(400, {"error": "malformed request line"})
        headers: dict = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            return JsonResponse(400, {"error": "bad Content-Length"})
        if length > _MAX_BODY_BYTES:
            return JsonResponse(413, {"error": f"body larger than {_MAX_BODY_BYTES} bytes"})
        body = await reader.readexactly(length) if length > 0 else b""
        split = urllib.parse.urlsplit(target)
        query = {k: v[-1] for k, v in urllib.parse.parse_qs(split.query).items()}
        return Request(
            method=method.upper(), path=split.path, query=query, headers=headers, body=body
        )

    @staticmethod
    def _write_text(writer: asyncio.StreamWriter, response: TextResponse) -> None:
        body = response.body.encode("utf-8")
        head = (
            f"HTTP/1.1 {response.status} {_STATUS_TEXT.get(response.status, 'OK')}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    @staticmethod
    def _write_json(writer: asyncio.StreamWriter, response: JsonResponse) -> None:
        body = encode_json(response.payload).encode("utf-8")
        status_text = _STATUS_TEXT.get(response.status, "OK")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (response.headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {response.status} {status_text}\r\n"
            f"Content-Type: {JSON_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    async def _write_event_stream(self, writer: asyncio.StreamWriter, campaign) -> None:
        """Pump the campaign's trace dir as Server-Sent Events.

        Replays everything already traced (so a subscriber to a finished —
        or dedupe-hit — campaign still sees its history), then follows the
        live tail.  After the campaign reaches a terminal state the
        remaining tail is drained and a final ``event: end`` closes the
        stream.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        poller = TracePoller(campaign.trace_dir)
        while True:
            events = await asyncio.to_thread(poller.poll)
            for event in events:
                name = str(event.get("name", event.get("kind", "event")))
                data = json.dumps(event, separators=(",", ":"), default=str)
                writer.write(f"event: {name}\ndata: {data}\n\n".encode("utf-8"))
            if events:
                await writer.drain()
                continue  # drain the tail before considering termination
            if campaign.state in TERMINAL_STATES:
                payload = json.dumps(campaign.to_dict(), separators=(",", ":"), default=str)
                writer.write(f"event: end\ndata: {payload}\n\n".encode("utf-8"))
                await writer.drain()
                return
            if self._shutting_down is not None and self._shutting_down.is_set():
                # Graceful shutdown: tell the subscriber explicitly instead
                # of hanging up mid-stream (the campaign may still be QUEUED
                # and about to be failed by the drain).
                payload = json.dumps(campaign.to_dict(), separators=(",", ":"), default=str)
                writer.write(f"event: shutdown\ndata: {payload}\n\n".encode("utf-8"))
                await writer.drain()
                return
            await asyncio.sleep(self.sse_poll_s)


class ServiceThread:
    """A :class:`CampaignService` on a private event loop in a daemon thread.

    For tests, examples and notebooks that drive the service with blocking
    HTTP clients from the same process::

        with ServiceThread(store_path=tmp / "store.jsonl", port=0) as service:
            client = ServeClient(ServeConfig(base_url=service.base_url))
            ...
    """

    def __init__(self, **service_kwargs):
        self._kwargs = service_kwargs
        self.service: Optional[CampaignService] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._main_task: Optional[asyncio.Task] = None

    def start(self, timeout_s: float = 15.0) -> "ServiceThread":
        started = threading.Event()
        failure: list[BaseException] = []

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def _main():
                try:
                    self.service = CampaignService(**self._kwargs)
                    await self.service.start()
                except BaseException as exc:  # noqa: BLE001 — surfaced to start()
                    failure.append(exc)
                    started.set()
                    return
                started.set()
                try:
                    await self.service.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    try:
                        await self.service.stop()
                    except asyncio.CancelledError:
                        pass

            self._main_task = loop.create_task(_main())
            try:
                loop.run_until_complete(self._main_task)
            except asyncio.CancelledError:
                pass
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True, name="repro-serve")
        self._thread.start()
        if not started.wait(timeout_s):
            raise RuntimeError("campaign service failed to start in time")
        if failure:
            raise RuntimeError(f"campaign service failed to start: {failure[0]}") from failure[0]
        return self

    @property
    def base_url(self) -> str:
        assert self.service is not None, "call start() first"
        return self.service.base_url

    def stop(self, timeout_s: float = 15.0) -> None:
        loop, task = self._loop, self._main_task
        if loop is not None and task is not None and not loop.is_closed():
            loop.call_soon_threadsafe(task.cancel)
        if self._thread is not None:
            self._thread.join(timeout_s)

    def shutdown(self, timeout_s: float = 15.0) -> None:
        """Graceful variant of :meth:`stop`: drain, then tear down."""
        loop = self._loop
        if loop is not None and self.service is not None and not loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(self.service.shutdown(), loop)
            try:
                future.result(timeout_s)
            except Exception:  # noqa: BLE001 — fall through to the hard stop
                pass
        self.stop(timeout_s)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_service(
    store_path: "str | Path",
    data_dir: "str | Path | None" = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    timeout_s: Optional[float] = None,
    series_samples: int = 0,
    fast: bool = True,
    token: Optional[str] = None,
    quiet: bool = False,
    trace_dir: "str | Path | None" = None,
    watchdog_s: Optional[float] = None,
) -> int:
    """Blocking entry point behind ``python -m repro serve``.

    SIGINT/SIGTERM trigger a *graceful* shutdown: the listener stops
    accepting, open SSE streams get their terminal frame, the running
    campaign (if any) completes, queued ones fail fast — then the process
    exits.  A second signal during the drain aborts immediately.
    """
    service = CampaignService(
        store_path,
        data_dir=data_dir,
        host=host,
        port=port,
        workers=workers,
        timeout_s=timeout_s,
        series_samples=series_samples,
        fast=fast,
        token=token,
        trace_dir=trace_dir,
        watchdog_s=watchdog_s,
    )

    async def _main():
        await service.start()
        if not quiet:
            # flush: the banner is how wrappers (CI, tests) detect readiness,
            # and block-buffered pipes would hold it back indefinitely.
            print(f"campaign service listening on {service.base_url}", flush=True)
            print(f"  store    : {service.store_path} ({len(service.store)} records)")
            print(f"  data dir : {service.data_dir}")
            print(f"  submit   : POST {service.base_url}/campaigns", flush=True)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        handled_signals = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_requested.set)
                handled_signals.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platforms without signal support
        serve_task = asyncio.create_task(service.serve_forever())
        stop_task = asyncio.create_task(stop_requested.wait())
        try:
            done, _ = await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop_task in done and not quiet:
                print("campaign service draining (signal again to abort) ...", flush=True)
            # Let a second signal fall through as KeyboardInterrupt mid-drain.
            for sig in handled_signals:
                loop.remove_signal_handler(sig)
            serve_task.cancel()
            try:
                await serve_task
            except asyncio.CancelledError:
                pass
            await service.shutdown()
        finally:
            stop_task.cancel()
            await service.stop()

    try:
        asyncio.run(_main())
        if not quiet:
            print("campaign service stopped")
    except KeyboardInterrupt:
        if not quiet:
            print("campaign service stopped (aborted)")
    return 0
