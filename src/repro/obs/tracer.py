"""Span tracing: append-only JSONL trace events from every execution layer.

A :class:`Tracer` writes one JSON object per line to a *trace file*.  Every
event carries the same envelope::

    {"t": <unix seconds>, "kind": "span" | "event" | "counter" | "gauge",
     "name": <event name>, "pid": <os pid>, "worker": <worker label>,
     "campaign": <campaign hash, when known>,
     "dur_s": <span duration>, "value": <counter/gauge value>,
     "attrs": {<free-form details>}}

``t`` is wall-clock (``time.time()``) so trace files written by *different
processes* — the shards of one campaign, say — merge into one timeline by
sorting on it (see :func:`repro.obs.report.load_events`); durations are
measured with the monotonic ``perf_counter`` so they never go negative under
clock adjustment.

Trace files live in a *trace directory*, one file per writing process
(``trace-<worker>-<pid>.jsonl``), exactly like shard result stores: no
locking, no cross-process file sharing, merge on read.

Disabled tracing is a **true no-op**: :class:`NullTracer` (the module
singleton :data:`NULL_TRACER`) implements the same surface with empty
callables and a reusable null span, so instrumented code pays a method call
and nothing else — no file is ever opened, no event dict is ever built.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "trace_file_name"]


def trace_file_name(worker: str, pid: Optional[int] = None) -> str:
    """The per-process trace file name inside a trace directory."""
    return f"trace-{worker}-{pid if pid is not None else os.getpid()}.jsonl"


class _Span:
    """An open span: times its ``with`` block, emits one event on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer.span_event(self.name, time.perf_counter() - self._t0, **self.attrs)


class _NullSpan:
    """The reusable span of a disabled tracer: enters, exits, records nothing."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Appends telemetry events to one JSONL trace file.

    The file is opened lazily on the first event (a tracer that never fires
    leaves no file behind) and every event is flushed immediately so a
    concurrently running ``obs tail`` sees it live.  Emission must never
    take a campaign down: write errors disable the tracer instead of
    propagating.
    """

    enabled = True

    def __init__(self, path: "str | os.PathLike", worker: str = "main",
                 campaign: Optional[str] = None):
        self.path = Path(path)
        self.worker = str(worker)
        self.campaign = campaign
        self.pid = os.getpid()
        self._fh = None

    # ------------------------------------------------------------------
    def _emit(self, kind: str, name: str, **fields) -> None:
        event = {
            "t": time.time(),
            "kind": kind,
            "name": name,
            "pid": self.pid,
            "worker": self.worker,
        }
        if self.campaign is not None:
            event["campaign"] = self.campaign
        event.update(fields)
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
            self._fh.flush()
        except OSError:
            # Telemetry is advisory; a full disk must not kill the campaign.
            self.enabled = False
            self._fh = None

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing its block into one ``span`` event."""
        return _Span(self, name, attrs)

    def span_event(self, name: str, dur_s: float, **attrs) -> None:
        """Emit a span whose duration was measured by the caller."""
        self._emit("span", name, dur_s=round(float(dur_s), 6), attrs=attrs)

    def event(self, name: str, **attrs) -> None:
        """A point event (worker lifecycle, heartbeat, ...)."""
        self._emit("event", name, attrs=attrs)

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        """A monotonic increment (cache hit, timeout, probe, ...)."""
        self._emit("counter", name, value=value, attrs=attrs)

    def gauge(self, name: str, value: float, **attrs) -> None:
        """A sampled level (bracket width, open cells, queue depth, ...)."""
        self._emit("gauge", name, value=value, attrs=attrs)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class NullTracer:
    """The disabled tracer: same surface, empty callables, no file, ever."""

    enabled = False
    path = None
    worker = "disabled"
    campaign = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def span_event(self, name: str, dur_s: float, **attrs) -> None:
        return None

    def event(self, name: str, **attrs) -> None:
        return None

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        return None

    def gauge(self, name: str, value: float, **attrs) -> None:
        return None

    def close(self) -> None:
        return None


#: The shared disabled tracer — what un-instrumented call sites default to.
NULL_TRACER = NullTracer()
