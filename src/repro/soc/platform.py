"""The MP-SoC platform: actuation state machine tying together the models.

The :class:`SoCPlatform` is what the governors drive and what the system
simulator steps.  It owns

* the platform specification (voltage window, OPP table),
* the board power model, the performance model and the latency model,
* the *actuation state*: the current operating point, whether a transition is
  in flight and when it completes, and whether the SoC is running at all
  (brown-out / reboot behaviour).

Semantics of a transition: when a new OPP is requested the platform computes
the transition latency; until that latency has elapsed the board continues to
draw (at least) the power of the more expensive of the two OPPs and performs
no useful work attributable to the new OPP (the paper's Table I measures
exactly this dead time and charge).  Requests arriving while a transition is
in flight replace the pending target and restart the remaining latency from
the larger of the two outstanding latencies — a conservative model of the
serialised sysfs writes the real governor performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .latency import TransitionLatencyModel
from .opp import FrequencyLadder, OperatingPoint, OPPTable
from .performance_model import PerformanceModel
from .power_model import PowerModel

__all__ = ["PlatformSpec", "PendingTransition", "SoCPlatform"]


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of the platform's electrical and OPP envelope."""

    name: str
    opp_table: OPPTable
    minimum_voltage: float = 4.1
    maximum_voltage: float = 5.7
    reboot_voltage: float = 4.6
    reboot_latency_s: float = 8.0

    def __post_init__(self) -> None:
        if self.minimum_voltage <= 0:
            raise ValueError("minimum_voltage must be positive")
        if self.maximum_voltage <= self.minimum_voltage:
            raise ValueError("maximum_voltage must exceed minimum_voltage")
        if not self.minimum_voltage <= self.reboot_voltage <= self.maximum_voltage:
            raise ValueError("reboot_voltage must lie within the operating window")
        if self.reboot_latency_s < 0:
            raise ValueError("reboot_latency_s must be non-negative")


@dataclass
class PendingTransition:
    """An OPP change currently in flight."""

    target: OperatingPoint
    completes_at: float
    power_during_w: float


class SoCPlatform:
    """Actuation state machine for the MP-SoC.

    Parameters
    ----------
    spec:
        Electrical/OPP envelope of the platform.
    power_model:
        Maps operating points to board power.
    performance_model:
        Maps operating points to instruction throughput.
    latency_model:
        DVFS / hot-plug transition latencies.
    initial_opp:
        Operating point at power-on.  Defaults to the lowest OPP, which is
        how the paper's system boots before the governor takes over.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        power_model: PowerModel,
        performance_model: PerformanceModel,
        latency_model: TransitionLatencyModel | None = None,
        initial_opp: OperatingPoint | None = None,
    ):
        self.spec = spec
        self.power_model = power_model
        self.performance_model = performance_model
        self.latency_model = latency_model if latency_model is not None else TransitionLatencyModel()
        self._initial_opp = initial_opp if initial_opp is not None else spec.opp_table.lowest
        if not spec.opp_table.allows_config(self._initial_opp.config):
            raise ValueError("initial OPP configuration is not in the platform's OPP table")
        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return the platform to its power-on state."""
        self.current_opp: OperatingPoint = self._initial_opp
        self.pending: Optional[PendingTransition] = None
        self.running: bool = True
        self._reboot_ready_at: float = 0.0
        self.transition_count: int = 0
        self.dvfs_transition_count: int = 0
        self.hotplug_transition_count: int = 0
        self.brownout_count: int = 0
        self.actuation_epoch: int = getattr(self, "actuation_epoch", 0) + 1

    @property
    def opp_table(self) -> OPPTable:
        return self.spec.opp_table

    @property
    def frequency_ladder(self) -> FrequencyLadder:
        return self.spec.opp_table.frequencies

    @property
    def is_transitioning(self) -> bool:
        return self.pending is not None

    # ------------------------------------------------------------------
    # Power / performance queries
    # ------------------------------------------------------------------
    # ``actuation_epoch`` is the cached-value protocol for :meth:`power` and
    # :meth:`instruction_rate`: both are piecewise constant between actuation
    # events (OPP requests, transition completions, brown-outs, reboots,
    # resets), and the counter increments exactly at those events.  A caller
    # that evaluates power every step — the system simulator's hot loop —
    # caches the value and recomputes only when the epoch moved, instead of
    # re-walking the power model per step.

    def power_changed_since(self, epoch: int) -> bool:
        """Whether board power / instruction rate may differ from when the
        caller last observed :attr:`actuation_epoch` equal to ``epoch``."""
        return self.actuation_epoch != epoch

    def power(self, now: float | None = None) -> float:
        """Board power draw right now (W)."""
        if not self.running:
            return 0.0
        if self.pending is not None:
            return self.pending.power_during_w
        return self.power_model.power(self.current_opp)

    def instruction_rate(self) -> float:
        """Useful instruction throughput right now (instr/s).

        During a transition the cores are busy with the transition itself, so
        useful throughput is attributed at the rate of the *cheaper* endpoint
        — a conservative accounting matching the paper's treatment of
        transition overhead as dead time.
        """
        if not self.running:
            return 0.0
        if self.pending is not None:
            current = self.performance_model.instruction_rate(self.current_opp)
            target = self.performance_model.instruction_rate(self.pending.target)
            return min(current, target)
        return self.performance_model.instruction_rate(self.current_opp)

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def request_opp(self, target: OperatingPoint, now: float, cores_first: bool = True) -> float:
        """Request a transition to ``target`` starting at time ``now``.

        Returns the transition latency in seconds (0 if the request is a
        no-op).  Requests while off are ignored.
        """
        if not self.running:
            return 0.0
        if not self.opp_table.allows_config(target.config):
            raise ValueError(f"target configuration {target.config} exceeds the platform's clusters")
        target = OperatingPoint(target.config, self.frequency_ladder.snap(target.frequency_hz))

        origin = self.pending.target if self.pending is not None else self.current_opp
        if target == origin:
            return 0.0

        latency = self.latency_model.transition_latency(origin, target, cores_first=cores_first)
        if self.pending is not None:
            # Fold the outstanding transition into the new one: keep whichever
            # completion horizon is further away, and draw the worst-case power.
            completes_at = max(self.pending.completes_at, now + latency)
            power_during = max(
                self.pending.power_during_w,
                self.power_model.power(origin),
                self.power_model.power(target),
            )
        else:
            completes_at = now + latency
            power_during = max(
                self.power_model.power(self.current_opp),
                self.power_model.power(target),
            )

        if origin.config != target.config:
            self.hotplug_transition_count += 1
        if abs(origin.frequency_hz - target.frequency_hz) > 1.0:
            self.dvfs_transition_count += 1
        self.transition_count += 1
        self.actuation_epoch += 1

        if latency <= 0.0:
            self.current_opp = target
            self.pending = None
            return 0.0

        self.pending = PendingTransition(target=target, completes_at=completes_at, power_during_w=power_during)
        return latency

    def advance(self, now: float, supply_voltage: float) -> None:
        """Advance the actuation state machine to time ``now``.

        Completes any finished transition, detects brown-out (supply below
        the minimum operating voltage) and handles reboot once the supply
        recovers above the reboot threshold for platforms configured to
        restart.
        """
        if self.running:
            if supply_voltage < self.spec.minimum_voltage:
                # Brown-out: the SoC loses power, all cores stop.
                self.running = False
                self.pending = None
                self.brownout_count += 1
                self._reboot_ready_at = now + self.spec.reboot_latency_s
                self.actuation_epoch += 1
                return
            if self.pending is not None and now >= self.pending.completes_at:
                self.current_opp = self.pending.target
                self.pending = None
                self.actuation_epoch += 1
        else:
            if supply_voltage >= self.spec.reboot_voltage and now >= self._reboot_ready_at:
                # Cold boot back to the lowest OPP.
                self.running = True
                self.current_opp = self._initial_opp
                self.pending = None
                self.actuation_epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "off"
        return f"SoCPlatform({self.spec.name}, {self.current_opp}, {state})"
