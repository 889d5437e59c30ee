"""Simulation results: recorded time series, events and summary metrics.

A :class:`SimulationResult` is what every experiment in the benchmark harness
consumes.  It carries decimated time series of the electrical and
architectural state (supply voltage, harvested/consumed power, frequency,
online cores, cumulative instructions), the governor event log, and the
summary metrics the paper's tables report (instructions completed, renders
per minute, lifetime, voltage stability, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..energy.traces import PowerTrace, Trace
from ..hw.monitor import ThresholdCrossing

__all__ = ["SimulationEvent", "SimulationResult"]

#: The per-sample arrays carried by a :class:`SimulationResult`, in field order.
ARRAY_FIELDS = (
    "times",
    "supply_voltage",
    "harvested_power",
    "available_power",
    "consumed_power",
    "frequency_hz",
    "n_little",
    "n_big",
    "running",
    "instructions",
    "v_low",
    "v_high",
)

#: The scalar outcome fields of a :class:`SimulationResult`.
SCALAR_FIELDS = (
    "duration_s",
    "total_instructions",
    "harvested_energy_j",
    "consumed_energy_j",
    "brownout_count",
    "first_brownout_time",
    "transition_count",
    "dvfs_transition_count",
    "hotplug_transition_count",
    "interrupt_count",
    "governor_invocations",
    "governor_cpu_time_s",
    "governor_name",
)


@dataclass(frozen=True)
class SimulationEvent:
    """A discrete event that occurred during the simulation."""

    time: float
    kind: str
    detail: str = ""


@dataclass
class SimulationResult:
    """Recorded output of one system simulation run.

    All arrays share the same length (one entry per recorded sample).
    """

    times: np.ndarray
    supply_voltage: np.ndarray
    harvested_power: np.ndarray
    available_power: np.ndarray
    consumed_power: np.ndarray
    frequency_hz: np.ndarray
    n_little: np.ndarray
    n_big: np.ndarray
    running: np.ndarray
    instructions: np.ndarray
    v_low: np.ndarray
    v_high: np.ndarray
    events: list[SimulationEvent] = field(default_factory=list)

    # Scalar outcomes filled in by the simulator.
    duration_s: float = 0.0
    total_instructions: float = 0.0
    harvested_energy_j: float = 0.0
    consumed_energy_j: float = 0.0
    brownout_count: int = 0
    first_brownout_time: Optional[float] = None
    transition_count: int = 0
    dvfs_transition_count: int = 0
    hotplug_transition_count: int = 0
    interrupt_count: int = 0
    governor_invocations: int = 0
    governor_cpu_time_s: float = 0.0
    governor_name: str = ""

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def lifetime_s(self) -> float:
        """Time until the first brown-out (or the full duration if none)."""
        if self.first_brownout_time is not None:
            return self.first_brownout_time
        return self.duration_s

    @property
    def survived(self) -> bool:
        """Whether the system ran for the whole test without browning out."""
        return self.brownout_count == 0

    @property
    def uptime_fraction(self) -> float:
        """Fraction of recorded samples during which the SoC was running."""
        if len(self.running) == 0:
            return 0.0
        return float(np.mean(self.running > 0.5))

    def renders_completed(self, instructions_per_render: float) -> float:
        """Number of Table II renders completed over the run."""
        if instructions_per_render <= 0:
            raise ValueError("instructions_per_render must be positive")
        return self.total_instructions / instructions_per_render

    def renders_per_minute(self, instructions_per_render: float) -> float:
        """Average render throughput over the full test duration."""
        if self.duration_s <= 0:
            return 0.0
        return self.renders_completed(instructions_per_render) / (self.duration_s / 60.0)

    def average_consumed_power(self) -> float:
        """Time-averaged board power over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.consumed_energy_j / self.duration_s

    def harvest_utilisation(self) -> float:
        """Consumed energy as a fraction of the maximum harvestable energy."""
        available = float(np.trapezoid(self.available_power, self.times)) if len(self.times) > 1 else 0.0
        if available <= 0:
            return 0.0
        return self.consumed_energy_j / available

    def fraction_within(self, target_voltage: float, tolerance: float = 0.05) -> float:
        """Fraction of time the supply voltage stayed within ±tolerance of target.

        This is the paper's headline stability metric (93.3 % within ±5 % of
        the 5.3 V target in Fig. 12).  Only samples while the SoC is running
        are counted.
        """
        if target_voltage <= 0:
            raise ValueError("target_voltage must be positive")
        if len(self.times) < 2:
            return 0.0
        lower = target_voltage * (1.0 - tolerance)
        upper = target_voltage * (1.0 + tolerance)
        within = (self.supply_voltage >= lower) & (self.supply_voltage <= upper)
        dt = np.diff(self.times)
        weights = np.concatenate((dt, [dt[-1] if len(dt) else 0.0]))
        total = float(np.sum(weights))
        if total <= 0:
            return 0.0
        return float(np.sum(weights[within]) / total)

    def governor_cpu_overhead(self) -> float:
        """Governor CPU time as a fraction of the run duration (Fig. 15)."""
        if self.duration_s <= 0:
            return 0.0
        return self.governor_cpu_time_s / self.duration_s

    def time_at_voltage_histogram(self, bins: np.ndarray) -> np.ndarray:
        """Fraction of time spent in each voltage bin (Fig. 13's histogram)."""
        bins = np.asarray(bins, dtype=float)
        if len(self.times) < 2:
            return np.zeros(len(bins) - 1)
        dt = np.diff(self.times)
        weights = np.concatenate((dt, [dt[-1]]))
        hist, _ = np.histogram(self.supply_voltage, bins=bins, weights=weights)
        total = float(np.sum(weights))
        return hist / total if total > 0 else hist

    # ------------------------------------------------------------------
    # Trace exports
    # ------------------------------------------------------------------
    def voltage_trace(self) -> Trace:
        return Trace(self.times, self.supply_voltage, name="V_C", units="V")

    def consumed_power_trace(self) -> PowerTrace:
        return PowerTrace(self.times, self.consumed_power, name="consumed_power")

    def available_power_trace(self) -> PowerTrace:
        return PowerTrace(self.times, self.available_power, name="available_power")

    def threshold_crossing_events(self) -> list[SimulationEvent]:
        """Only the threshold-crossing (interrupt) events."""
        return [e for e in self.events if e.kind in (ThresholdCrossing.LOW.value, ThresholdCrossing.HIGH.value)]

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self, max_samples: Optional[int] = None) -> dict:
        """Export the result as a JSON-serialisable dictionary.

        Arrays become plain lists of floats; ``max_samples`` (if given)
        decimates every series to at most that many evenly spaced samples so
        a stored result stays small while keeping the shape of the traces.
        The scalar outcome fields are always kept exact.
        """
        n = len(self.times)
        if max_samples is not None and max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        if max_samples is not None and n > max_samples:
            indices = np.unique(np.linspace(0, n - 1, max_samples).round().astype(int))
        else:
            indices = None
        arrays = {}
        for name in ARRAY_FIELDS:
            values = np.asarray(getattr(self, name), dtype=float)
            if indices is not None:
                values = values[indices]
            arrays[name] = [float(v) for v in values]
        return {
            **arrays,
            "events": [
                {"time": e.time, "kind": e.kind, "detail": e.detail} for e in self.events
            ],
            **{name: getattr(self, name) for name in SCALAR_FIELDS},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. parsed JSON)."""
        arrays = {name: np.asarray(data[name], dtype=float) for name in ARRAY_FIELDS}
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) > 1:
            raise ValueError(f"inconsistent array lengths in result dict: {sorted(lengths)}")
        events = [
            SimulationEvent(
                time=float(e["time"]), kind=str(e["kind"]), detail=str(e.get("detail", ""))
            )
            for e in data.get("events", [])
        ]
        scalars = {name: data[name] for name in SCALAR_FIELDS if name in data}
        return cls(**arrays, events=events, **scalars)

    def summary(self) -> dict:
        """A dictionary of the headline metrics (used by the CLI and benches)."""
        return {
            "governor": self.governor_name,
            "duration_s": self.duration_s,
            "lifetime_s": self.lifetime_s,
            "survived": self.survived,
            "instructions": self.total_instructions,
            "harvested_energy_j": self.harvested_energy_j,
            "consumed_energy_j": self.consumed_energy_j,
            "average_power_w": self.average_consumed_power(),
            "brownouts": self.brownout_count,
            "uptime_fraction": self.uptime_fraction,
            "transitions": self.transition_count,
            "interrupts": self.interrupt_count,
            "governor_cpu_overhead": self.governor_cpu_overhead(),
        }
