"""Helpers shared by ``run.py`` and the child processes it starts.

Standard library only, so ``run.py`` can validate the checkout before
anything from ``src/`` is imported.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from pathlib import Path

#: The benchmark's own directory and the checkout root it runs in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Campaign execution settings shared by every workload: the CLI defaults
#: (``repro sweep --workers 2 --timeout 600``), sized for a 2-core machine.
WORKERS = 2
TIMEOUT_S = 600.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed child)."""


def require_sources() -> None:
    """Fail fast unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC} (expected src/repro/)")


def use_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and check the import."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def child_env(work_dir: Path) -> dict:
    """Environment for child interpreters: checkout sources, private temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work_dir)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SHARD_INDEX", None)
    return env


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any process it has waited for.

    Linux folds a reaped child's own high-water mark (and its reaped
    descendants') into ``RUSAGE_CHILDREN``, so pool workers of a child
    interpreter count once the child has exited.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def midmean(values) -> float:
    """Mean of the middle half of the samples (the interquartile mean).

    The benchmark's ``p50`` timings use it: on a shared 2-vCPU VM, CPU
    speed switches between two levels 1.5-1.7x apart every few seconds, and
    a median jumps from one level to the other as the share of slow samples
    crosses one half, while the midmean moves with that share and still
    drops outliers.
    """
    values = sorted(values)
    cut = len(values) // 4
    return float(statistics.fmean(values[cut:len(values) - cut]))


def lower_quartile(values) -> float:
    """Linear-interpolated 25th percentile of the samples."""
    return float(statistics.quantiles(list(values), n=4, method="inclusive")[0])


def p95(values) -> float:
    """Linear-interpolated 95th percentile of the samples."""
    return float(statistics.quantiles(list(values), n=20, method="inclusive")[18])
