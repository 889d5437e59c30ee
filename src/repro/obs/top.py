"""``repro obs top`` — a live terminal view over a trace directory.

Where ``obs tail`` prints every event and ``obs report`` aggregates a
finished run, ``obs top`` is the in-between: a refreshing snapshot of a
*running* system — a traced ``repro serve`` instance or a long campaign —
built on the same :class:`~repro.obs.report.TracePoller` the service's SSE
endpoint uses.  Each refresh folds the newly appended events into bounded
:class:`~repro.obs.timeseries.RollingWindow` state and renders:

* throughput: events/s and executed scenarios/s over the window;
* request latency: live p50/p95 per busiest routes (``http.request`` spans);
* campaign counters (cache hits, executed, probes) accumulated since start.

Process resources are not in the trace: a service's ``/metrics`` reads them
when it is scraped, and a campaign's ``obs report`` shows the CPU and peak
RSS the kernel counted.

The view is pure fold-and-render — :meth:`TopView.tick` returns the frame
as a string — so tests drive it with synthetic events and the CLI's
``--once`` flag prints a single frame without entering the refresh loop.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .report import TracePoller
from .timeseries import RollingWindow

__all__ = ["TopView", "run_top"]

#: Clear screen + home — the whole "UI framework".
_CLEAR = "\x1b[2J\x1b[H"


def _fmt(value: Optional[float], fmt: str = "{:.3f}") -> str:
    return "-" if value is None else fmt.format(value)


class TopView:
    """Folds trace events into rolling state and renders one frame."""

    def __init__(self, source, window_s: float = 30.0, max_routes: int = 6):
        self.source = source
        self.window_s = float(window_s)
        self.max_routes = int(max_routes)
        self._poller = TracePoller(source)
        self._events = RollingWindow(window_s=window_s, max_samples=16384)
        self._scenarios = RollingWindow(window_s=window_s, max_samples=16384)
        self._scenario_durs = RollingWindow(window_s=window_s, max_samples=4096)
        self._routes: dict[str, RollingWindow] = {}
        self._counters: dict[str, float] = {}
        self._started = time.time()
        self._last_event_t: Optional[float] = None

    # ------------------------------------------------------------------
    def update(self, events: Sequence[dict]) -> None:
        """Fold freshly polled events into the rolling state."""
        for event in events:
            t = float(event.get("t", 0.0))
            self._last_event_t = t
            kind = event.get("kind")
            name = str(event.get("name", ""))
            self._events.observe(1.0, t=t)
            if kind == "span":
                dur = float(event.get("dur_s", 0.0))
                attrs = event.get("attrs", {})
                if name == "http.request":
                    route = str(attrs.get("route", "?"))
                    window = self._routes.get(route)
                    if window is None:
                        window = self._routes[route] = RollingWindow(
                            window_s=self.window_s, max_samples=4096
                        )
                    window.observe(dur, t=t)
                elif name == "scenario":
                    self._scenarios.observe(1.0, t=t)
                    if not attrs.get("cached"):
                        self._scenario_durs.observe(dur, t=t)
            elif kind == "counter":
                self._counters[name] = self._counters.get(name, 0.0) + float(
                    event.get("value", 1)
                )

    def tick(self) -> str:
        """Poll the trace, fold, and return the rendered frame."""
        self.update(self._poller.poll())
        return self.render()

    # ------------------------------------------------------------------
    def render(self, now: Optional[float] = None) -> str:
        now = time.time() if now is None else float(now)
        lines = [
            f"repro obs top — {self.source}   "
            f"(window {self.window_s:.0f}s, up {now - self._started:.0f}s)",
            "",
        ]
        age = None if self._last_event_t is None else max(0.0, now - self._last_event_t)
        lines.append(
            f"  events/s    : {self._events.rate(now):8.2f}    "
            f"last event: {_fmt(age, '{:.1f}s ago')}"
        )
        lines.append(
            f"  scenarios/s : {self._scenarios.rate(now):8.2f}    "
            f"exec p95: {_fmt(self._scenario_durs.quantile(0.95, now), '{:.3f}s')}"
        )

        if self._routes:
            lines.append("")
            lines.append("  route                            req/s     p50       p95")
            busiest = sorted(
                self._routes.items(), key=lambda kv: -kv[1].rate(now)
            )[: self.max_routes]
            for route, window in busiest:
                lines.append(
                    f"  {route:<30} {window.rate(now):7.2f}  "
                    f"{_fmt(window.quantile(0.50, now), '{:8.4f}')}  "
                    f"{_fmt(window.quantile(0.95, now), '{:8.4f}')}"
                )

        interesting = {
            name: value
            for name, value in sorted(self._counters.items())
            if not name.startswith("store.")
        }
        if interesting:
            lines.append("")
            lines.append(
                "  counters    : "
                + "   ".join(f"{name}={value:g}" for name, value in interesting.items())
            )
        return "\n".join(lines)


def run_top(
    source,
    interval_s: float = 1.0,
    once: bool = False,
    max_frames: Optional[int] = None,
) -> int:
    """The blocking ``obs top`` loop (Ctrl-C exits; ``once`` prints a frame)."""
    view = TopView(source)
    frames = 0
    try:
        while True:
            frame = view.tick()
            if once or max_frames is not None:
                print(frame)
            else:
                print(_CLEAR + frame, flush=True)
            frames += 1
            if once or (max_frames is not None and frames >= max_frames):
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
