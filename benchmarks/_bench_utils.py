"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures on the
simulated substrate and prints the same rows/series the paper reports,
alongside the paper's reference values, so the qualitative comparison can be
read straight from the benchmark log.  ``pytest-benchmark`` times the
regeneration itself.

Durations are shortened relative to the paper's wall-clock experiments (a
simulated hour costs tens of CPU seconds); every benchmark states the duration
it used.  ROADMAP.md item 7 records paper-vs-measured for the full-scale runs.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def emit(*args, **kwargs) -> None:
    """Print to the real stdout, bypassing pytest's capture.

    The benchmark harness is expected to show the regenerated table/figure
    rows in its log even without ``-s``; writing to ``sys.__stdout__`` keeps
    that output visible alongside pytest-benchmark's timing table.
    """
    kwargs.setdefault("file", sys.__stdout__)
    print(*args, **kwargs)


def print_header(title: str, paper_reference) -> None:
    """Uniform banner used by all benches."""
    emit()
    emit("=" * 78)
    emit(title)
    if paper_reference:
        emit(f"paper reference: {paper_reference}")
    emit("=" * 78)
