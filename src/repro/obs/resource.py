"""Process resources as the kernel counts them: RSS, CPU, fds, threads.

Nothing here samples on a timer.  Each number is read when it is wanted:

* :func:`rusage_totals` — CPU seconds and peak RSS of this process *and* its
  reaped children, from ``getrusage``.  :class:`~repro.sweep.runner.SweepRunner`
  reads it around a campaign and stamps the difference on the
  ``campaign.run`` span; worker slots are joined before the run ends, so
  their CPU is in ``RUSAGE_CHILDREN`` by then.
* :func:`record_process_gauges` — the Prometheus process-collector gauges
  (``process_resident_memory_bytes``, ``process_resident_memory_peak_bytes``,
  ``process_cpu_seconds_total``, ``process_open_fds``, ``process_threads``),
  set on a registry when ``/metrics`` is scraped.

Current readings come from ``/proc/self`` where it exists (Linux).
Elsewhere ``getrusage`` supplies CPU seconds; a source that cannot be read
is left out of the sample.
"""

from __future__ import annotations

import os
import resource as _resource
import sys
import threading
from pathlib import Path

__all__ = ["maxrss_bytes", "read_resource_sample", "record_process_gauges", "rusage_totals"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def maxrss_bytes(usage) -> int:
    """``ru_maxrss`` of a ``getrusage`` result in bytes.

    The kernel reports it in KiB on Linux and the BSDs, in bytes on macOS.
    It is a lifetime peak, never the current resident size.
    """
    return int(usage.ru_maxrss) * (1 if sys.platform == "darwin" else 1024)


def rusage_totals() -> "tuple[float, int]":
    """``(cpu_s, peak_rss_bytes)`` of this process and its reaped children.

    ``cpu_s`` is user + system time, cumulative; ``peak_rss_bytes`` is the
    larger of this process's peak and the largest reaped child's peak.
    """
    own = _resource.getrusage(_resource.RUSAGE_SELF)
    kids = _resource.getrusage(_resource.RUSAGE_CHILDREN)
    cpu_s = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu_s, max(maxrss_bytes(own), maxrss_bytes(kids))


def read_resource_sample() -> dict:
    """One point-in-time reading of this process's resource usage.

    Keys (any may be absent when the platform cannot answer):
    ``rss_bytes`` (current), ``cpu_seconds`` (user+system, cumulative),
    ``open_fds``, ``threads``.
    """
    sample: dict = {}
    proc = Path("/proc/self")
    if proc.exists():
        try:
            # statm field 1 is resident pages; stat fields 13/14 (0-based
            # after the comm field) are utime/stime in clock ticks.
            sample["rss_bytes"] = int((proc / "statm").read_text().split()[1]) * _PAGE_SIZE
            stat = (proc / "stat").read_text()
            # comm can contain spaces/parens; cut at the *last* ')'.
            fields = stat[stat.rindex(")") + 2 :].split()
            sample["cpu_seconds"] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        except (OSError, ValueError, IndexError):
            pass
        try:
            sample["open_fds"] = len(os.listdir(proc / "fd"))
        except OSError:
            pass
        try:
            for line in (proc / "status").read_text().splitlines():
                if line.startswith("Threads:"):
                    sample["threads"] = int(line.split()[1])
                    break
        except (OSError, ValueError):
            pass
    if "cpu_seconds" not in sample:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        sample["cpu_seconds"] = usage.ru_utime + usage.ru_stime
    sample.setdefault("threads", threading.active_count())
    return sample


#: ``read_resource_sample`` keys and the process-collector gauges they set.
_PROCESS_GAUGES = (
    ("rss_bytes", "process_resident_memory_bytes"),
    ("cpu_seconds", "process_cpu_seconds_total"),
    ("open_fds", "process_open_fds"),
    ("threads", "process_threads"),
)


def record_process_gauges(metrics) -> None:
    """Set this process's resource gauges on ``metrics`` from a fresh reading."""
    sample = read_resource_sample()
    for key, name in _PROCESS_GAUGES:
        if key in sample:
            metrics.gauge(name, sample[key])
    # The kernel folds its per-thread RSS counters in lazily, so ru_maxrss
    # can trail a fresh statm reading by a few pages.
    peak = maxrss_bytes(_resource.getrusage(_resource.RUSAGE_SELF))
    metrics.gauge("process_resident_memory_peak_bytes", max(peak, sample.get("rss_bytes", 0)))
