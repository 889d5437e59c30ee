"""Per-layer tracing installed from the benchmark's own files.

:func:`install` wraps public functions and methods of each layer of the
program (I-V tabulation, the simulator loop, scenario build, spec expansion
and hashing, the result store and its SQLite index, aggregation) with timing
spans and exact work counters.  Nothing under ``src/`` is edited: the
wrappers replace attributes on the imported classes and modules, before any
pool forks, so pool workers inherit them.

Each process keeps its events in memory and appends them to its own
``spans-<pid>.jsonl`` in the trace directory whenever a wrapped
``run_scenario`` returns (pool workers are terminated, never exited) and at
interpreter exit.  :func:`summarize` merges every process's file.

Span events carry ``nested``: the time of named spans that ran inside them
on the same thread, so a span's self time excludes the layers below it
(``sim.run`` minus the ``supplies.tabulate`` it triggered lazily).
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


class SpanLog:
    """One process's span and counter buffer, flushed to a per-pid file."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        atexit.register(self.flush)

    def _reset(self) -> None:
        # A forked child inherits the parent's buffer and possibly a lock
        # held by another thread; it starts over with fresh state.
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.local = threading.local()
        self.events: list[dict] = []
        self.counts: dict = defaultdict(float)
        self.eval_boxes: list[list] = []

    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        with self.lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def span(self, name: str, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(result)`` adds fields to its event."""
        stack = self._stack()
        frame: dict = {}
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
        if stack:
            parent = stack[-1]
            parent[name] = parent.get(name, 0.0) + dur
            for key, value in frame.items():
                parent[key] = parent.get(key, 0.0) + value
        event = {"n": name, "d": dur, "nested": frame}
        if attrs is not None:
            event.update(attrs(result))
        with self.lock:
            self.events.append(event)
        return result

    def flush(self) -> None:
        with self.lock:
            if os.getpid() != self.pid:
                return
            events, self.events = self.events, []
            counts = dict(self.counts)
            self.counts.clear()
        if not events and not counts:
            return
        if counts:
            events.append({"n": "counts", "counts": counts})
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")


def _wrap_method(owner, attr: str, make):
    original = owner.__dict__[attr]
    setattr(owner, attr, functools.wraps(original)(make(original)))


def install(out_dir: Path) -> SpanLog:
    """Wrap every traced layer; returns the process's :class:`SpanLog`."""
    from repro.energy.pv_array import PVArray
    from repro.serve import handlers
    from repro.sim import supplies
    from repro.sim.simulator import EnergyHarvestingSimulation
    from repro.sweep import runner, scenario, sqlindex, store
    from repro.sweep.spec import ScenarioConfig, SweepSpec

    log = SpanLog(out_dir)

    def spanned(name, attrs=None):
        def make(original):
            def wrapper(*args, **kwargs):
                return log.span(name, original, args, kwargs, attrs)

            return wrapper

        return make

    # -- sim.supplies / energy: tabulation and Lambert-W work -------------
    _wrap_method(supplies.IVSurfaceTable, "__init__", spanned("supplies.tabulate"))

    def surface_points(original):
        def wrapper(self, voltages, irradiances):
            log.count("energy.iv_points", len(voltages) * len(irradiances))
            return original(self, voltages, irradiances)

        return wrapper

    def voc_points(original):
        def wrapper(self, irradiances):
            log.count("energy.iv_points", len(irradiances))
            return original(self, irradiances)

        return wrapper

    _wrap_method(PVArray, "current_surface", surface_points)
    _wrap_method(PVArray, "open_circuit_voltage_array", voc_points)

    # -- sim.simulator: loop time, supply evaluations, governor work ------
    def counted_step_fn(original):
        def wrapper(self):
            step = original(self)
            box = [0]
            with log.lock:
                log.eval_boxes.append(box)

            def counted(v, t):
                box[0] += 1
                return step(v, t)

            return counted

        return wrapper

    for cls in (supplies.Supply, supplies.PVArraySupply, supplies.ConstantPowerSupply):
        if "step_current_fn" in cls.__dict__:
            _wrap_method(cls, "step_current_fn", counted_step_fn)

    def sim_run(original):
        def wrapper(self):
            with log.lock:
                first = len(log.eval_boxes)

            def attrs(result):
                with log.lock:
                    boxes = log.eval_boxes[first:]
                    del log.eval_boxes[first:]
                return {
                    "supply_evals": sum(box[0] for box in boxes),
                    "governor_invocations": int(result.governor_invocations),
                    "opp_transitions": int(result.transition_count),
                }

            return log.span("sim.run", original, (self,), {}, attrs)

        return wrapper

    _wrap_method(EnergyHarvestingSimulation, "run", sim_run)

    # -- sweep.build / sweep.scenario: one span per scenario, then flush --
    scenario.build_system = functools.wraps(scenario.build_system)(
        spanned("build.build_system")(scenario.build_system)
    )
    original_run_scenario = runner.run_scenario

    @functools.wraps(original_run_scenario)
    def run_scenario(*args, **kwargs):
        try:
            return log.span("scenario.run", original_run_scenario, args, kwargs)
        finally:
            log.flush()

    runner.run_scenario = run_scenario

    # -- sweep.spec: expansion and content hashing -------------------------
    _wrap_method(SweepSpec, "scenarios", spanned("spec.expand"))
    hash_id = ScenarioConfig.__dict__["scenario_id"].func

    def scenario_id(self):
        t0 = time.perf_counter()
        value = hash_id(self)
        log.count("spec.hash_s", time.perf_counter() - t0)
        log.count("spec.ids_hashed")
        return value

    prop = functools.cached_property(scenario_id)
    prop.__set_name__(ScenarioConfig, "scenario_id")
    ScenarioConfig.scenario_id = prop

    # -- sweep.store / sweep.sqlindex --------------------------------------
    _wrap_method(store.ResultStore, "__init__", spanned("store.open"))
    _wrap_method(store.ResultStore, "append", spanned("store.append"))
    _wrap_method(
        store.ResultStore,
        "query",
        spanned("store.query", lambda result: {"rows": len(result)}),
    )

    def ensure(original):
        def wrapper(self):
            action = original(self)
            log.count(f"sqlindex.{action}")
            return action

        return wrapper

    def rebuild(original):
        def wrapper(self):
            log.count("sqlindex.rebuild")
            return original(self)

        return wrapper

    _wrap_method(sqlindex.SqliteIndex, "ensure", ensure)
    _wrap_method(sqlindex.SqliteIndex, "rebuild", rebuild)

    # -- sweep.aggregate, as the service's /aggregate handler calls it ----
    for name in ("campaign_overview", "records_table", "axis_summary"):
        setattr(handlers, name, functools.wraps(getattr(handlers, name))(
            spanned("aggregate.fn")(getattr(handlers, name))
        ))
    return log


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
def read_events(trace_dir: Path) -> tuple[list[dict], dict]:
    """Every process's span events, and the summed counters."""
    events: list[dict] = []
    counts: dict = defaultdict(float)
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event["n"] == "counts":
                    for key, value in event["counts"].items():
                        counts[key] += value
                else:
                    events.append(event)
    return events, dict(counts)


def runner_phases(trace_dir: Path) -> dict:
    """Seconds per phase from the runner's own ``campaign.phase`` spans."""
    phases: dict = defaultdict(float)
    for path in Path(trace_dir).glob("trace-*.jsonl"):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if event.get("kind") == "span" and event.get("name") == "campaign.phase":
                    phases[event["attrs"]["phase"]] += event["dur_s"]
    return {
        "runner.expand_s": phases.get("expand", 0.0),
        "runner.cache_scan_s": phases.get("cache-scan", 0.0),
        "runner.execute_s": phases.get("execute", 0.0),
    }


def summarize(trace_dir: Path) -> dict:
    """Layer totals of one traced unit of work (a campaign or a session).

    Times are seconds summed over every process; counts are exact.
    """
    events, counts = read_events(trace_dir)
    by_name: dict = defaultdict(list)
    for event in events:
        by_name[event["n"]].append(event)

    def total(name: str) -> float:
        return sum(e["d"] for e in by_name[name])

    tabulate_s = total("supplies.tabulate")
    runs = by_name["sim.run"]
    loop_s = sum(e["d"] - e["nested"].get("supplies.tabulate", 0.0) for e in runs)
    supply_evals = sum(e["supply_evals"] for e in runs)
    queries = by_name["store.query"]
    return {
        "supplies.tables_built": len(by_name["supplies.tabulate"]),
        "supplies.tabulate_s": tabulate_s,
        "energy.iv_points": int(counts.get("energy.iv_points", 0)),
        "scenario_s": total("scenario.run"),
        "sim.loop_s": loop_s,
        "sim.supply_evals": supply_evals,
        "sim.governor_invocations": sum(e["governor_invocations"] for e in runs),
        "sim.opp_transitions": sum(e["opp_transitions"] for e in runs),
        "build.build_s": total("build.build_system"),
        "spec.expand_s": total("spec.expand"),
        "spec.hash_s": counts.get("spec.hash_s", 0.0),
        "spec.ids_hashed": int(counts.get("spec.ids_hashed", 0)),
        "store.appends": len(by_name["store.append"]),
        "store.append_s": [e["d"] for e in by_name["store.append"]],
        "store.open_s": [e["d"] for e in by_name["store.open"]],
        "store.query_s": [e["d"] for e in queries],
        "store.records_read": sum(e["rows"] for e in queries),
        "sqlindex.rebuilds": int(counts.get("sqlindex.rebuild", 0)),
        "sqlindex.tail_refreshes": int(counts.get("sqlindex.tail", 0)),
        "aggregate.fn_s": total("aggregate.fn"),
    }
