"""The telemetry bundle threaded through the execution layers.

:class:`Telemetry` holds one :class:`~repro.obs.tracer.Tracer` and remembers
the trace directory, so a coordinator can hand child worker processes the
*directory* and each child builds its own per-process tracer file
(:func:`~repro.obs.tracer.trace_file_name`) — trace files are never shared
across processes, exactly like shard result stores.  The trace is the only
channel campaign code reports through.

The module singleton :data:`DISABLED` is what every instrumented constructor
defaults to (``telemetry or DISABLED``): a bundle of the null tracer, whose
methods are all empty callables, so code instrumented against it is
indistinguishable — in behaviour *and* in filesystem output — from
un-instrumented code.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from .tracer import NULL_TRACER, NullTracer, Tracer, trace_file_name

__all__ = ["Telemetry", "DISABLED"]


class Telemetry:
    """One process's telemetry: a tracer and the trace dir it writes in."""

    def __init__(self, tracer: "Tracer | NullTracer", trace_dir: Optional[Path] = None):
        self.tracer = tracer
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None

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
        return cls(tracer, trace_dir=trace_dir)

    def close(self) -> None:
        self.tracer.close()


#: The shared disabled bundle — the default of every instrumented layer.
DISABLED = Telemetry(NULL_TRACER)
