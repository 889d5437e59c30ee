"""Campaign metrics: in-process counters/gauges/timers rolled up to JSON.

Where the tracer (:mod:`repro.obs.tracer`) streams *events*, the
:class:`MetricsRegistry` keeps cheap in-memory aggregates — counters, last
gauge values, and timers (count / total / min / max seconds) — and writes
them once, at the end of a command, as a ``metrics.json`` sidecar next to
the result store (``<store>.metrics.json``).  The campaign service's
registry adds request histograms and the process gauges ``/metrics`` reads
when it is scraped (:func:`repro.obs.resource.record_process_gauges`), and
is written to ``<data_dir>/metrics.json`` when the service stops.

The disabled registry (:class:`NullMetrics`, singleton :data:`NULL_METRICS`)
is a true no-op: every method is an empty callable and :meth:`timer` hands
back a shared null context manager, so instrumentation costs a call and
nothing else when telemetry is off.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

from .timeseries import NULL_HISTOGRAM, Histogram, NullHistogram

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "metrics_sidecar_path",
    "series_key",
    "split_series_key",
]


def metrics_sidecar_path(store_path: "str | os.PathLike") -> Path:
    """Where the metrics roll-up lives, relative to a result store."""
    return Path(str(store_path) + ".metrics.json")


def series_key(name: str, labels: Optional[dict] = None) -> str:
    """The registry key of a (possibly labelled) series.

    Label-less series key on their bare name; labelled series append a
    Prometheus-shaped, **sorted** label set — ``name{a="1",b="x"}`` — so the
    same labels in any spelling order collapse to one series, and the
    Prometheus exposition writer can emit the key almost verbatim.
    """
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{str(value)}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{rendered}}}"


def split_series_key(key: str) -> "tuple[str, dict]":
    """Invert :func:`series_key`: ``name{a="1"}`` -> ``("name", {"a": "1"})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, body = key[:-1].partition("{")
    labels: dict = {}
    for part in body.split('",'):
        if not part:
            continue
        label, _, value = part.partition('="')
        labels[label] = value.rstrip('"')
    return name, labels


class _Timer:
    """Times a ``with`` block into one named timer series."""

    __slots__ = ("_metrics", "_name", "_t0")

    def __init__(self, metrics: "MetricsRegistry", name: str):
        self._metrics = metrics
        self._name = name

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._metrics.observe(self._name, time.perf_counter() - self._t0)


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Named counters, gauges and timers for one process's campaign run."""

    enabled = True

    def __init__(self):
        self._counters: Counter = Counter()
        self._gauges: dict[str, float] = {}
        #: name -> [count, total_s, min_s, max_s]
        self._timers: dict[str, list] = {}
        #: series key (name or name{labels}) -> Histogram
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1, labels: Optional[dict] = None) -> None:
        self._counters[series_key(name, labels)] += value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def histogram(
        self,
        name: str,
        labels: Optional[dict] = None,
        boundaries: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """The named (and optionally labelled) histogram, created on first use.

        Repeated calls with the same name/labels return the same
        :class:`~repro.obs.timeseries.Histogram`, so call sites just
        ``registry.histogram("http_request_duration_seconds",
        labels={...}).observe(dur)``.  ``boundaries`` only applies on
        creation; all series of one name should share it so they merge.
        """
        key = series_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(boundaries=boundaries)
        return histogram

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample into a timer series."""
        series = self._timers.get(name)
        if series is None:
            series = self._timers[name] = [0, 0.0, math.inf, -math.inf]
        series[0] += 1
        series[1] += seconds
        series[2] = min(series[2], seconds)
        series[3] = max(series[3], seconds)

    def timer(self, name: str) -> _Timer:
        """A context manager feeding :meth:`observe`."""
        return _Timer(self, name)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "timers": {
                name: {
                    "count": series[0],
                    "total_s": round(series[1], 6),
                    "min_s": round(series[2], 6),
                    "max_s": round(series[3], 6),
                }
                for name, series in sorted(self._timers.items())
            },
            "histograms": {
                key: histogram.to_dict()
                for key, histogram in sorted(self._histograms.items())
            },
        }

    def write(self, path: "str | os.PathLike") -> Path:
        """Persist the roll-up as JSON, atomically.

        The document is serialised to a per-process temp file first and
        renamed into place (``os.replace``), so however the writer dies —
        mid-``dumps``, mid-``write`` — a reader only ever sees the previous
        complete snapshot, never a torn one.  The pid in the temp name keeps
        concurrent writers (two processes finishing runs on one store) from
        trampling each other's half-written bytes.
        """
        # Lazy import: history sits above report, which imports this module.
        from .history import run_provenance

        doc = self.to_dict()
        # Provenance makes sidecars attributable across runs and machines;
        # the Prometheus writer iterates only the known series sections, so
        # the extra key is invisible to exposition.
        doc["meta"] = {
            **run_provenance(),
            "pid": os.getpid(),
            "written_t": round(time.time(), 3),
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path


class NullMetrics:
    """The disabled registry: same surface, empty callables, writes nothing."""

    enabled = False

    def counter(self, name: str, value: float = 1, labels: Optional[dict] = None) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, seconds: float) -> None:
        return None

    def timer(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def histogram(
        self,
        name: str,
        labels: Optional[dict] = None,
        boundaries: Optional[Iterable[float]] = None,
    ) -> NullHistogram:
        return NULL_HISTOGRAM

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "timers": {}, "histograms": {}}


#: The shared disabled registry.
NULL_METRICS = NullMetrics()
