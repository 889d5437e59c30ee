"""The campaign service's metrics registry: counters, gauges, histograms.

Campaign code (runner, boundary search, store) reports only through its
trace (:mod:`repro.obs.tracer`).  The :class:`MetricsRegistry` is the
service's own in-memory view: HTTP request counters and latency histograms,
scheduler counters, executed-scenario latency, and the process gauges
``/metrics`` reads when it is scraped
(:func:`repro.obs.resource.record_process_gauges`).  ``GET /metrics``
serves it, and it is written to ``<data_dir>/metrics.json`` when the
service stops.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

from .timeseries import Histogram

__all__ = [
    "MetricsRegistry",
    "series_key",
    "split_series_key",
]


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


class MetricsRegistry:
    """Named counters, gauges and histograms of one service process."""

    def __init__(self):
        self._counters: Counter = Counter()
        self._gauges: dict[str, float] = {}
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

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
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
        concurrent writers (two services stopping over one data dir) from
        trampling each other's half-written bytes.
        """
        # Lazy import: history sits above report, which imports this module.
        from .history import run_provenance

        doc = self.to_dict()
        # Provenance makes snapshots attributable across runs and machines;
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
