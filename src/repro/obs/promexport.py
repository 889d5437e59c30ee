"""Prometheus text exposition (version 0.0.4) over a metrics registry.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
(or its :meth:`to_dict` document, so the service's ``metrics.json``
snapshot read back from disk renders identically) into the plain-text
format every Prometheus-compatible scraper ingests:

* counters  -> ``# TYPE name counter`` single samples;
* gauges    -> ``# TYPE name gauge`` single samples;
* histograms -> ``# TYPE name histogram``: **cumulative** ``name_bucket``
  samples with ``le`` upper-edge labels ending in ``le="+Inf"``, plus
  ``name_sum`` / ``name_count`` — the exact shape PromQL's
  ``histogram_quantile()`` expects.

Series names are sanitised to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): dots and other junk become underscores, so
the service's ``scheduler.restart`` counter exports as ``scheduler_restart``.
Labelled series produced via :func:`~repro.obs.metrics.series_key` —
``http_request_duration_seconds{route="/campaigns",status="200"}`` — keep
their labels, with the histogram ``le`` label appended after them.

Nothing here talks HTTP: the campaign service's ``GET
/metrics?format=prometheus`` calls :func:`render_prometheus` and writes the
string; ``python -c`` one-liners can render a snapshot file the same way.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Union

from .metrics import MetricsRegistry, split_series_key
from .timeseries import Histogram

__all__ = ["render_prometheus", "sanitise_metric_name", "PROMETHEUS_CONTENT_TYPE"]

#: The Content-Type a scrape endpoint must declare for this format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_JUNK = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_BAD_START = re.compile(r"^[^a-zA-Z_:]")


def sanitise_metric_name(name: str) -> str:
    """A valid Prometheus metric name: junk to ``_``, numeric start prefixed."""
    cleaned = _NAME_JUNK.sub("_", name)
    if _NAME_BAD_START.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Mapping) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(
            sanitise_metric_name(str(key)),
            str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for key, value in sorted(labels.items())
    )
    return "{" + rendered + "}"


def _sample(name: str, labels: Mapping, value: float) -> str:
    return f"{name}{_labels_text(labels)} {_format_value(value)}"


def render_prometheus(metrics: "Union[MetricsRegistry, Mapping]") -> str:
    """The registry (or its ``to_dict`` document) as exposition text."""
    doc = metrics.to_dict() if isinstance(metrics, MetricsRegistry) else dict(metrics)
    lines: list = []
    typed: set = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in sorted((doc.get("counters") or {}).items()):
        raw_name, labels = split_series_key(key)
        name = sanitise_metric_name(raw_name)
        declare(name, "counter")
        lines.append(_sample(name, labels, float(value)))

    for key, value in sorted((doc.get("gauges") or {}).items()):
        raw_name, labels = split_series_key(key)
        name = sanitise_metric_name(raw_name)
        declare(name, "gauge")
        lines.append(_sample(name, labels, float(value)))

    for key, data in sorted((doc.get("histograms") or {}).items()):
        raw_name, labels = split_series_key(key)
        name = sanitise_metric_name(raw_name)
        histogram = data if isinstance(data, Histogram) else Histogram.from_dict(data)
        declare(name, "histogram")
        for edge, cumulative in histogram.cumulative_buckets():
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(float(edge))
            lines.append(_sample(name + "_bucket", bucket_labels, float(cumulative)))
        lines.append(_sample(name + "_sum", labels, histogram.sum))
        lines.append(_sample(name + "_count", labels, float(histogram.count)))

    return "\n".join(lines) + ("\n" if lines else "")
