"""Common interface for all power-management governors.

The system simulator drives governors through two hooks:

* :meth:`Governor.on_interrupt` — called when the voltage-monitoring hardware
  raises a threshold-crossing interrupt (only for governors that declare
  ``uses_voltage_monitor``), mirroring the interrupt-driven implementation of
  the paper's approach;
* :meth:`Governor.on_tick` — called periodically every ``sampling_interval_s``
  seconds, mirroring how the Linux cpufreq governors (ondemand, conservative,
  interactive, ...) sample CPU utilisation.

Either hook may return a :class:`GovernorDecision` naming the operating point
the platform should move to; the simulator applies it through
:meth:`repro.soc.platform.SoCPlatform.request_opp`, which charges the
appropriate transition latency.

Governors also account for their own execution cost
(``cpu_time_per_invocation_s``) so the Fig. 15 overhead analysis can be
reproduced.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Optional

from ..hw.monitor import ThresholdCrossing
from ..soc.opp import OperatingPoint
from ..soc.platform import SoCPlatform

__all__ = ["GovernorDecision", "Governor"]


@dataclass(frozen=True)
class GovernorDecision:
    """A requested operating-point change.

    Attributes
    ----------
    target:
        The operating point the governor wants the platform to move to.
    cores_first:
        Ordering of the composite transition: hot-plug before DVFS (the
        paper's preferred scenario (b)) or the reverse.
    """

    target: OperatingPoint
    cores_first: bool = True


class Governor(ABC):
    """Base class for power-management governors.

    Subclasses override :meth:`on_interrupt` and/or :meth:`on_tick` and set
    the class attributes that tell the simulator which hooks to wire up.
    """

    #: Human-readable governor name (used in reports and Table II).
    name: str = "governor"
    #: Whether the governor consumes threshold interrupts from the monitor.
    uses_voltage_monitor: bool = False
    #: Periodic invocation interval in seconds (``None`` disables ticking).
    sampling_interval_s: Optional[float] = None
    #: Modelled CPU time consumed by one governor invocation, in seconds.
    #: The paper measures the proposed approach at ~0.104 % CPU over the run;
    #: per-invocation values are calibrated in the concrete governors.
    cpu_time_per_invocation_s: float = 50e-6

    def __init__(self) -> None:
        self.invocation_count = 0
        self.cpu_time_s = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def initialise(self, platform: SoCPlatform, time: float, supply_voltage: float) -> None:
        """Called once before the simulation starts (and again after reboot)."""

    def reset_accounting(self) -> None:
        """Clear the invocation/CPU-time counters."""
        self.invocation_count = 0
        self.cpu_time_s = 0.0

    def _account_invocation(self) -> None:
        self.invocation_count += 1
        self.cpu_time_s += self.cpu_time_per_invocation_s

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_interrupt(
        self,
        crossing: ThresholdCrossing,
        time: float,
        supply_voltage: float,
        platform: SoCPlatform,
    ) -> Optional[GovernorDecision]:
        """Handle a threshold-crossing interrupt; return a decision or ``None``."""
        return None

    def on_tick(
        self,
        time: float,
        supply_voltage: float,
        utilization: float,
        platform: SoCPlatform,
    ) -> Optional[GovernorDecision]:
        """Handle a periodic sampling tick; return a decision or ``None``."""
        return None

    # ------------------------------------------------------------------
    # Voltage-monitor integration
    # ------------------------------------------------------------------
    def thresholds(self) -> Optional[tuple[float, float]]:
        """Current (V_low, V_high) the monitor should be programmed with.

        Only meaningful for governors with ``uses_voltage_monitor = True``;
        others return ``None``.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
