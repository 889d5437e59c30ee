"""Adaptive survival-boundary search: bisection campaigns over any numeric axis.

The paper's headline robustness results are *boundary* questions — the minimum
buffer capacitance that rides through shadowing (Table I) and the minimum
supply power at which each governor stays power-neutral (the Fig. 11 rig) —
but a grid sweep answers them by brute force, wasting most of its cells far
from the boundary.  This module searches instead:

* :class:`BoundaryQuery` — a declarative search: a base
  :class:`~repro.sweep.spec.ScenarioConfig`, one numeric dotted search path
  (``"capacitor.capacitance_f"``, ``"supply.power_w"``, ...), an initial
  bracket, a convergence tolerance and a predicate over completed records
  (default: ``"survived"``), plus *outer* axes — for every combination of the
  outer axes an independent bisection runs;
* :class:`BoundarySearch` — the frontier scheduler: each round it collects one
  probe per unconverged cell (two in the opening round, the bracket ends) and
  submits them as a single :meth:`~repro.sweep.runner.SweepRunner.run` batch,
  so all cells bisect in parallel across the worker pool and every probe lands
  in the content-addressed :class:`~repro.sweep.store.ResultStore`;
* :class:`BoundaryReport` / :class:`CellResult` — the per-cell outcome:
  critical value, final bracket, probe/cache counts, state.

Because probes are ordinary scenario configs executed through the store, a
finished query re-runs as 100 % cache hits and an interrupted search resumes
from wherever its probes got to — the bisection sequence is deterministic, so
the same query always regenerates the same scenario ids.

When the initial bracket misses the boundary (predicate agrees at both ends),
the bracket expands geometrically outward up to ``max_expansions`` times.
Non-monotone responses (a passing probe *below* a failing one, for an
increasing predicate) are detected and reported as a ``non-monotone`` cell
state instead of silently mis-bracketing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

from ..obs.telemetry import DISABLED, Telemetry
from ..registry import jsonable_value, normalise_value
from .runner import SweepRunner
from .spec import Axis, ScenarioConfig, resolve_axis_path

__all__ = [
    "PREDICATES",
    "BoundaryQuery",
    "BoundarySearch",
    "BoundaryReport",
    "CellResult",
    "find_boundary",
]

#: Named predicates evaluated on a completed store *record* (they usually only
#: consult ``record["summary"]``, so summaries-only stores satisfy them).
#: Open for extension: ``PREDICATES["my-criterion"] = lambda record: ...``.
PREDICATES: dict[str, Callable[[Mapping], bool]] = {
    "survived": lambda record: bool(record.get("summary", {}).get("survived")),
    "no-brownouts": lambda record: float(record.get("summary", {}).get("brownouts", 1)) == 0,
    "uptime-95": lambda record: float(record.get("summary", {}).get("uptime_fraction", 0.0))
    >= 0.95,
}

#: Cell states a search can end in.
_TERMINAL_STATES = ("converged", "non-monotone", "exhausted", "max-probes", "error")


def _resolve_predicate(predicate: Union[str, Callable]) -> tuple[str, Callable]:
    if callable(predicate):
        return getattr(predicate, "__name__", "custom"), predicate
    try:
        return str(predicate), PREDICATES[str(predicate)]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; known: {', '.join(sorted(PREDICATES))} "
            "(or pass a callable taking a store record)"
        ) from None


@dataclass(frozen=True)
class BoundaryQuery:
    """One boundary search: where does ``predicate`` flip along ``path``?

    Attributes
    ----------
    base:
        The scenario every probe is derived from (outer-axis values and the
        probed value are applied on top via
        :meth:`~repro.sweep.spec.ScenarioConfig.with_value`).
    path:
        The numeric dotted config path being searched, e.g.
        ``"capacitor.capacitance_f"`` or ``"supply.power_w"``.
    lo / hi:
        The initial bracket.  It need not contain the boundary — the search
        expands geometrically outward when the predicate agrees at both ends.
    outer_axes:
        The remaining swept dimensions; each combination gets an independent
        bisection (weather presets, governors, ...).
    predicate:
        A name in :data:`PREDICATES` or a callable over the completed store
        record.  Default ``"survived"``.
    increasing:
        ``True`` (default) when the predicate fails below the boundary and
        passes above it (min-capacitance, min-power); ``False`` for the
        mirrored orientation (e.g. maximum tolerable leakage).
    rel_tol / abs_tol:
        Converged when the bracket width is ``<= max(abs_tol, rel_tol *
        max(|lo|, |hi|))``.
    scale:
        ``"linear"`` bisects arithmetically; ``"log"`` geometrically (for
        positive quantities spanning decades, like capacitance).
    expansion_factor / max_expansions:
        Bracket growth per miss and the number of growths allowed per side
        before the cell is reported ``exhausted``.
    max_probes:
        Per-cell probe budget; exceeded cells are reported ``max-probes``.
    """

    base: ScenarioConfig
    path: str
    lo: float
    hi: float
    outer_axes: tuple[Axis, ...] = ()
    predicate: Union[str, Callable] = "survived"
    increasing: bool = True
    rel_tol: float = 0.05
    abs_tol: float = 0.0
    scale: str = "linear"
    expansion_factor: float = 4.0
    max_expansions: int = 6
    max_probes: int = 48

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", str(self.path))
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        axes = tuple(a if isinstance(a, Axis) else Axis(*a) for a in self.outer_axes)
        object.__setattr__(self, "outer_axes", axes)
        if not self.lo < self.hi:
            raise ValueError(f"bracket must satisfy lo < hi (got [{self.lo}, {self.hi}])")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log' (got {self.scale!r})")
        if self.scale == "log" and self.lo <= 0:
            raise ValueError("log-scale search needs a strictly positive bracket")
        if self.rel_tol < 0 or self.abs_tol < 0 or (self.rel_tol == 0 and self.abs_tol == 0):
            raise ValueError("need a positive rel_tol and/or abs_tol")
        if self.expansion_factor <= 1:
            raise ValueError("expansion_factor must be > 1")
        if self.max_probes < 3:
            raise ValueError("max_probes must be at least 3 (two ends plus one bisection)")
        search_path = resolve_axis_path(self.path)
        for axis in axes:
            if resolve_axis_path(axis.name) == search_path:
                raise ValueError(f"search path {self.path!r} cannot also be an outer axis")
        _resolve_predicate(self.predicate)  # raises on unknown names
        # Fail fast on a path that does not accept numeric values.
        self.base.with_value(self.path, self.lo)

    @property
    def predicate_name(self) -> str:
        return _resolve_predicate(self.predicate)[0]

    # ------------------------------------------------------------------
    # Serialisation and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot, the boundary twin of :meth:`SweepSpec.to_dict`.

        Only *named* predicates serialise — a bare callable has no portable
        spelling.  Register the callable in :data:`PREDICATES` and pass its
        name to make a query submittable (shard manifests, the campaign
        service).
        """
        if callable(self.predicate) and PREDICATES.get(self.predicate_name) is not self.predicate:
            raise ValueError(
                "callable predicates do not serialise; register the callable "
                "in PREDICATES and pass its name instead"
            )
        return {
            "base": self.base.to_dict(),
            "path": self.path,
            "lo": self.lo,
            "hi": self.hi,
            "outer_axes": [
                {
                    "name": axis.name,
                    "values": [jsonable_value(normalise_value(v)) for v in axis.values],
                }
                for axis in self.outer_axes
            ],
            "predicate": self.predicate_name,
            "increasing": self.increasing,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "scale": self.scale,
            "expansion_factor": self.expansion_factor,
            "max_expansions": self.max_expansions,
            "max_probes": self.max_probes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BoundaryQuery":
        """Rebuild a query from :meth:`to_dict` output (validated as usual)."""
        return cls(
            base=ScenarioConfig.from_dict(data["base"]),
            path=str(data["path"]),
            lo=float(data["lo"]),
            hi=float(data["hi"]),
            outer_axes=tuple(
                Axis(str(axis["name"]), tuple(axis["values"]))
                for axis in data.get("outer_axes", ())
            ),
            predicate=str(data.get("predicate", "survived")),
            increasing=bool(data.get("increasing", True)),
            rel_tol=float(data.get("rel_tol", 0.05)),
            abs_tol=float(data.get("abs_tol", 0.0)),
            scale=str(data.get("scale", "linear")),
            expansion_factor=float(data.get("expansion_factor", 4.0)),
            max_expansions=int(data.get("max_expansions", 6)),
            max_probes=int(data.get("max_probes", 48)),
        )

    def query_hash(self) -> str:
        """Content hash of the search definition (the campaign id of a
        submitted boundary query).

        Unlike a sweep's :meth:`~repro.sweep.spec.SweepSpec.campaign_hash`
        the probe set is not enumerable up front, so the hash covers the
        canonical snapshot instead — two spellings that serialise identically
        are the same campaign; any change to bracket, tolerance, predicate or
        base scenario is a new one.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def cells(self) -> list[tuple[tuple[str, object], ...]]:
        """All outer-axis combinations, as ``((path, value), ...)`` tuples."""
        if not self.outer_axes:
            return [()]
        names = [a.name for a in self.outer_axes]
        return [
            tuple(zip(names, combo))
            for combo in itertools.product(*(a.values for a in self.outer_axes))
        ]

    def tolerance(self, lo: float, hi: float) -> float:
        return max(self.abs_tol, self.rel_tol * max(abs(lo), abs(hi)))

    def midpoint(self, lo: float, hi: float) -> float:
        if self.scale == "log" and lo > 0:
            return math.sqrt(lo * hi)
        return 0.5 * (lo + hi)


@dataclass
class CellResult:
    """Outcome of the bisection in one outer-axis cell."""

    outer: dict
    status: str
    critical: Optional[float]
    bracket: tuple[Optional[float], Optional[float]]
    probes: int
    cached: int
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "outer": dict(self.outer),
            "status": self.status,
            "critical": self.critical,
            "bracket": list(self.bracket),
            "probes": self.probes,
            "cached": self.cached,
            "detail": self.detail,
        }


@dataclass
class BoundaryReport:
    """Aggregated outcome of a boundary search across all outer cells."""

    path: str
    predicate: str
    cells: list[CellResult] = field(default_factory=list)
    rounds: int = 0
    executed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0

    @property
    def converged(self) -> bool:
        return bool(self.cells) and all(c.status == "converged" for c in self.cells)

    def rows(self) -> list[dict]:
        """Per-cell table rows (format_table / CSV-export compatible)."""
        rows = []
        for cell in self.cells:
            row = dict(cell.outer)
            row.update(
                {
                    "status": cell.status,
                    f"critical_{self.path.rsplit('.', 1)[-1]}": cell.critical,
                    "bracket_lo": cell.bracket[0],
                    "bracket_hi": cell.bracket[1],
                    "probes": cell.probes,
                    "cached": cell.cached,
                }
            )
            if cell.detail:
                row["detail"] = cell.detail
            rows.append(row)
        return rows

    def summary(self) -> dict:
        return {
            "path": self.path,
            "predicate": self.predicate,
            "cells": len(self.cells),
            "converged": sum(c.status == "converged" for c in self.cells),
            "rounds": self.rounds,
            "executed": self.executed,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
        }

    def to_dict(self) -> dict:
        return {**self.summary(), "results": [c.to_dict() for c in self.cells]}


class _CellSearch:
    """Bisection state for one outer cell.

    Internally the predicate is *oriented* so it always fails on the low side
    and passes on the high side (for ``increasing=False`` queries the raw
    outcome is inverted); ``critical`` maps back to the caller's orientation:
    the smallest passing value for increasing queries, the largest for
    decreasing ones.
    """

    def __init__(self, query: BoundaryQuery, outer: tuple[tuple[str, object], ...]):
        self.query = query
        self.outer = outer
        config = query.base
        for path, value in outer:
            config = config.with_value(path, value)
        self.base = config
        self.lo = query.lo
        self.hi = query.hi
        self.outcomes: dict[float, bool] = {}  # probed value -> oriented outcome
        self.expansions_low = 0
        self.expansions_high = 0
        self.probes = 0
        self.cached = 0
        self.status = "searching"
        self.detail = ""

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.status in _TERMINAL_STATES

    def config_for(self, value: float) -> ScenarioConfig:
        return self.base.with_value(self.query.path, value)

    def _finish(self, status: str, detail: str = "") -> None:
        self.status = status
        self.detail = detail

    def _fail_values(self) -> list[float]:
        return sorted(v for v, ok in self.outcomes.items() if not ok)

    def _pass_values(self) -> list[float]:
        return sorted(v for v, ok in self.outcomes.items() if ok)

    # ------------------------------------------------------------------
    def next_values(self) -> list[float]:
        """The value(s) to probe this round (empty when the cell is done)."""
        if self.done:
            return []
        proposed = [v for v in (self.lo, self.hi) if v not in self.outcomes]
        if not proposed:
            proposed = self._after_bracket()
        budget = self.query.max_probes - self.probes
        if len(proposed) > budget:
            self._finish(
                "max-probes",
                f"probe budget of {self.query.max_probes} exhausted "
                f"before the bracket narrowed to tolerance",
            )
            return []
        return proposed

    def _after_bracket(self) -> list[float]:
        """Next probe once both current bracket ends have outcomes."""
        fails, passes = self._fail_values(), self._pass_values()
        if not passes:
            return self._expand(high=True)
        if not fails:
            return self._expand(high=False)
        lo, hi = fails[-1], passes[0]
        # (Monotonicity violations were caught in observe(); here lo < hi.)
        if hi - lo <= self.query.tolerance(lo, hi):
            self._finish("converged")
            return []
        return [self.query.midpoint(lo, hi)]

    def _expand(self, high: bool) -> list[float]:
        """Grow the bracket geometrically on the side that has no flip yet.

        Downward linear expansion is clamped at zero — every searchable axis
        in this codebase is a non-negative physical quantity, so 0 is probed
        as the domain edge before the cell is declared boundary-free.
        """
        side = "above" if high else "below"
        used = self.expansions_high if high else self.expansions_low
        if used >= self.query.max_expansions:
            self._finish(
                "exhausted",
                f"no predicate flip within [{self.lo:g}, {self.hi:g}] after "
                f"{used} expansion(s) {side} the initial bracket",
            )
            return []
        factor = self.query.expansion_factor
        if high:
            self.hi = self.hi * factor if self.query.scale == "log" else (
                self.hi + (self.hi - self.lo) * factor
            )
            self.expansions_high += 1
            return [self.hi]
        if self.query.scale == "log":
            new_lo = self.lo / factor
        else:
            new_lo = self.lo - (self.hi - self.lo) * factor
            if self.lo >= 0 and new_lo < 0:
                new_lo = 0.0
        if not new_lo < self.lo:
            self._finish(
                "exhausted",
                f"predicate already holds at {self.query.path}={self.lo:g} "
                "and the bracket cannot extend below it",
            )
            return []
        self.lo = new_lo
        self.expansions_low += 1
        return [self.lo]

    # ------------------------------------------------------------------
    def observe(self, value: float, record: dict, cached: bool) -> None:
        if self.done:
            return
        self.probes += 1
        if cached:
            self.cached += 1
        if record.get("status") != "ok":
            self._finish(
                "error",
                f"probe at {self.query.path}={value:g} failed: "
                f"{record.get('error', record.get('status'))}",
            )
            return
        raw = bool(_resolve_predicate(self.query.predicate)[1](record))
        self.outcomes[value] = raw if self.query.increasing else not raw
        fails, passes = self._fail_values(), self._pass_values()
        if fails and passes and passes[0] < fails[-1]:
            word = "passes" if self.query.increasing else "fails"
            anti = "fails" if self.query.increasing else "passes"
            self._finish(
                "non-monotone",
                f"predicate {word} at {self.query.path}={passes[0]:g} but "
                f"{anti} at {fails[-1]:g} above it — "
                "the response is not monotone over this bracket",
            )

    def probe_error(self, value: float, message: str) -> None:
        self._finish("error", f"could not build probe at {self.query.path}={value:g}: {message}")

    # ------------------------------------------------------------------
    def result(self) -> CellResult:
        fails, passes = self._fail_values(), self._pass_values()
        bracket: tuple[Optional[float], Optional[float]] = (
            fails[-1] if fails else None,
            passes[0] if passes else None,
        )
        critical = None
        if self.status == "converged":
            critical = bracket[1] if self.query.increasing else bracket[0]
        return CellResult(
            outer=dict(self.outer),
            status=self.status,
            critical=critical,
            bracket=bracket,
            probes=self.probes,
            cached=self.cached,
            detail=self.detail,
        )


#: progress(round, message) — called once per scheduling round.
RoundCallback = Callable[[int, str], None]


class BoundarySearch:
    """Run a :class:`BoundaryQuery` against a runner's store.

    Each scheduling round gathers the next probe from every unconverged cell
    and executes the whole frontier as one batch, so the per-round wall clock
    is one simulation (not one per cell) whenever the runner has enough
    workers.  All probes flow through the runner's
    :class:`~repro.sweep.store.ResultStore`, giving cache hits on re-runs and
    resumption of interrupted searches.

    With a :class:`~repro.obs.telemetry.Telemetry` bundle attached, every
    scheduling round becomes a ``boundary.round`` span (probes submitted,
    open cells, cache hits) wrapping the runner's own campaign spans, each
    open cell's bracket width is sampled as a ``boundary.bracket_width``
    gauge after the round's observations land, and probes / rounds roll up
    as metrics counters.
    """

    def __init__(
        self,
        query: BoundaryQuery,
        runner: SweepRunner,
        progress: Optional[RoundCallback] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.query = query
        self.runner = runner
        self.progress = progress
        self.telemetry = telemetry if telemetry is not None else DISABLED

    def run(self) -> BoundaryReport:
        tracer = self.telemetry.tracer
        started = time.perf_counter()
        cells = [_CellSearch(self.query, outer) for outer in self.query.cells()]
        report = BoundaryReport(path=self.query.path, predicate=self.query.predicate_name)
        while True:
            batch: list[ScenarioConfig] = []
            requests: dict[str, list[tuple[_CellSearch, float]]] = {}
            for cell in cells:
                for value in cell.next_values():
                    try:
                        config = cell.config_for(value)
                    except (ValueError, TypeError) as exc:
                        cell.probe_error(value, str(exc))
                        break
                    requests.setdefault(config.scenario_id, []).append((cell, value))
                    batch.append(config)
            if not batch:
                break
            report.rounds += 1
            open_cells = sum(1 for c in cells if not c.done)
            cached_ids = {c.scenario_id for c in batch if self.runner.store.is_complete(c)}
            if self.progress is not None:
                self.progress(
                    report.rounds,
                    f"round {report.rounds}: {len(batch)} probe(s) over "
                    f"{open_cells} open cell(s), {len(cached_ids)} cached",
                )
            with tracer.span(
                "boundary.round",
                round=report.rounds,
                probes=len(batch),
                open_cells=open_cells,
                cached=len(cached_ids),
            ):
                sweep_report = self.runner.run(batch)
                report.executed += sweep_report.executed
                report.cached += sweep_report.cached
                for record in sweep_report.records:
                    for cell, value in requests.get(record.get("scenario_id"), ()):
                        cell.observe(
                            value, record, cached=record["scenario_id"] in cached_ids
                        )
            tracer.counter("boundary.rounds")
            tracer.counter("boundary.probes", len(batch))
            # Bracket evolution: one gauge sample per still-open cell per
            # round, labelled by the cell's outer-axis values.
            for cell in cells:
                if not cell.done:
                    tracer.gauge(
                        "boundary.bracket_width",
                        cell.hi - cell.lo,
                        round=report.rounds,
                        lo=cell.lo,
                        hi=cell.hi,
                        **{path.rsplit(".", 1)[-1]: value for path, value in cell.outer},
                    )
        report.cells = [cell.result() for cell in cells]
        report.elapsed_s = time.perf_counter() - started
        return report


def find_boundary(
    query: BoundaryQuery,
    runner: SweepRunner,
    progress: Optional[RoundCallback] = None,
) -> BoundaryReport:
    """Convenience wrapper: run a boundary query and return its report."""
    return BoundarySearch(query, runner, progress=progress).run()
