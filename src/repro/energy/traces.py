"""Time-series containers used throughout the reproduction.

The paper's evaluation is trace driven: solar irradiance recorded over a day
drives the PV model, and the resulting voltage/power/performance time series
are what the figures plot.  This module provides a small, dependency-free
trace abstraction with CSV persistence and interpolation, used for

* irradiance traces (W/m^2 vs time),
* harvested-power traces (W vs time, e.g. Fig. 1 and Fig. 14),
* arbitrary recorded signals from the simulator.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Trace", "IrradianceTrace", "PowerTrace", "TraceCursor"]


@dataclass
class Trace:
    """A sampled scalar signal: monotonically increasing times and values.

    Attributes
    ----------
    times:
        Sample instants in seconds (monotonically non-decreasing).
    values:
        Sample values, same length as ``times``.
    name:
        Signal name (used for CSV headers and reports).
    units:
        Unit string for documentation purposes.
    """

    times: np.ndarray
    values: np.ndarray
    name: str = "signal"
    units: str = ""

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if len(self.times) != len(self.values):
            raise ValueError(
                f"times ({len(self.times)}) and values ({len(self.values)}) "
                "must have the same length"
            )
        if len(self.times) == 0:
            raise ValueError("a trace must contain at least one sample")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("times must be monotonically non-decreasing")

    # ------------------------------------------------------------------
    # Basic containers protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times.tolist(), self.values.tolist()))

    @property
    def duration(self) -> float:
        """Time spanned by the trace in seconds."""
        return float(self.times[-1] - self.times[0])

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def value_at(self, t: float) -> float:
        """Linearly interpolated value at time ``t`` (clamped at the ends)."""
        return float(np.interp(t, self.times, self.values))

    def cursor(self) -> "TraceCursor":
        """A stateful O(1)-amortised sampler for mostly-forward access."""
        return TraceCursor(self)

    def values_at(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value_at`."""
        return np.interp(np.asarray(ts, dtype=float), self.times, self.values)

    def scaled(self, factor: float) -> "Trace":
        """Return a copy with all values multiplied by ``factor``."""
        return type(self)(
            times=self.times.copy(), values=self.values * factor, name=self.name, units=self.units
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Time-weighted mean value of the trace."""
        if len(self) == 1:
            return float(self.values[0])
        return float(np.trapezoid(self.values, self.times) / self.duration)

    def minimum(self) -> float:
        return float(np.min(self.values))

    def maximum(self) -> float:
        return float(np.max(self.values))

    def integral(self) -> float:
        """Trapezoidal integral of value over time (e.g. energy for a power trace)."""
        if len(self) == 1:
            return 0.0
        return float(np.trapezoid(self.values, self.times))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_csv(self, path: str | Path) -> None:
        """Write the trace to a two-column CSV file with a header row."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", self.name or "value"])
            for t, v in zip(self.times, self.values):
                writer.writerow([f"{t:.6f}", f"{v:.9g}"])

    @classmethod
    def load_csv(cls, path: str | Path, units: str = "") -> "Trace":
        """Load a trace from a two-column CSV file written by :meth:`save_csv`."""
        path = Path(path)
        times: list[float] = []
        values: list[float] = []
        name = "signal"
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if len(header) >= 2:
                name = header[1]
            for row in reader:
                if not row:
                    continue
                times.append(float(row[0]))
                values.append(float(row[1]))
        return cls(times=np.array(times), values=np.array(values), name=name, units=units)


class TraceCursor:
    """Sequential sampler over a :class:`Trace` with an O(1) hot path.

    ``np.interp`` re-runs a binary search (plus array plumbing) on every
    scalar lookup, which dominates the simulator's per-step supply
    evaluation.  A cursor remembers the segment of the previous lookup:
    simulation time is (almost) monotone, so the next sample is found by
    advancing at most a few segments of plain Python floats.  Backward jumps
    fall back to a bisection re-seek, so the cursor is correct — just not
    O(1) — for arbitrary access patterns.

    Values match :meth:`Trace.value_at` (linear interpolation, clamped at the
    trace ends) up to floating-point rounding.
    """

    __slots__ = ("_times", "_values", "_n", "_i")

    def __init__(self, trace: "Trace"):
        self._times = [float(x) for x in trace.times]
        self._values = [float(x) for x in trace.values]
        self._n = len(self._times)
        self._i = 0

    def value(self, t: float) -> float:
        times = self._times
        n = self._n
        i = self._i
        if t < times[i]:
            # Backward jump: re-seek (rare in simulation use).
            i = bisect_right(times, t) - 1
            if i < 0:
                self._i = 0
                return self._values[0]
        while i + 1 < n and t >= times[i + 1]:
            i += 1
        self._i = i
        if i + 1 >= n:
            return self._values[-1]
        t0 = times[i]
        v0 = self._values[i]
        return v0 + (self._values[i + 1] - v0) * (t - t0) / (times[i + 1] - t0)


class IrradianceTrace(Trace):
    """A trace of solar irradiance in W/m^2."""

    def __init__(self, times, values, name: str = "irradiance", units: str = "W/m^2"):
        super().__init__(times=np.asarray(times), values=np.asarray(values), name=name, units=units)


class PowerTrace(Trace):
    """A trace of electrical power in watts."""

    def __init__(self, times, values, name: str = "power", units: str = "W"):
        super().__init__(times=np.asarray(times), values=np.asarray(values), name=name, units=units)

    def energy_joules(self) -> float:
        """Total energy represented by the trace."""
        return self.integral()
