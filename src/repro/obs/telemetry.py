"""The telemetry bundle threaded through the execution layers.

:class:`Telemetry` pairs one :class:`~repro.obs.tracer.Tracer` (streamed
events) with one :class:`~repro.obs.metrics.MetricsRegistry` (end-of-run
roll-up) and remembers the trace directory, so a coordinator can hand child
worker processes the *directory* and each child builds its own per-process
tracer file (:func:`~repro.obs.tracer.trace_file_name`) — trace files are
never shared across processes, exactly like shard result stores.

The module singleton :data:`DISABLED` is what every instrumented constructor
defaults to (``telemetry or DISABLED``): a bundle of the null tracer and
null registry whose methods are all empty callables, so code instrumented
against it is indistinguishable — in behaviour *and* in filesystem output —
from un-instrumented code.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from .metrics import NULL_METRICS, MetricsRegistry, NullMetrics, metrics_sidecar_path
from .tracer import NULL_TRACER, NullTracer, Tracer, trace_file_name

__all__ = ["Telemetry", "DISABLED"]


class Telemetry:
    """One process's telemetry: a tracer, a metrics registry, the trace dir."""

    def __init__(
        self,
        tracer: "Tracer | NullTracer",
        metrics: "MetricsRegistry | NullMetrics",
        trace_dir: Optional[Path] = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None

    @property
    def enabled(self) -> bool:
        return bool(self.tracer.enabled or self.metrics.enabled)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        trace_dir: "str | os.PathLike",
        worker: str = "main",
        campaign: Optional[str] = None,
    ) -> "Telemetry":
        """Enabled telemetry writing ``trace-<worker>-<pid>.jsonl`` in a dir."""
        trace_dir = Path(trace_dir)
        tracer = Tracer(trace_dir / trace_file_name(worker), worker=worker, campaign=campaign)
        return cls(tracer, MetricsRegistry(), trace_dir=trace_dir)

    # ------------------------------------------------------------------
    def write_metrics(self, store_path: "str | os.PathLike") -> Optional[Path]:
        """Write the ``metrics.json`` sidecar next to a result store.

        Returns the sidecar path, or ``None`` when metrics are disabled
        (a disabled bundle must leave no file behind).
        """
        if not self.metrics.enabled:
            return None
        return self.metrics.write(metrics_sidecar_path(store_path))

    def close(self) -> None:
        self.tracer.close()


#: The shared disabled bundle — the default of every instrumented layer.
DISABLED = Telemetry(NULL_TRACER, NULL_METRICS)
