"""Transition latency and transition charge models (paper Fig. 10 and Table I).

Power-neutral operation only needs enough buffer capacitance to carry the SoC
through the latency of a DVFS or hot-plug transition, so the latency model is
what connects the control design to the capacitor sizing:

* **Hot-plug latency** (Fig. 10, top): tens of milliseconds per core, larger
  at lower operating frequency (the hot-plug path runs on the CPU being
  scaled).  Measured values range from roughly 10 ms (at 1.4 GHz) to about
  40 ms (at 200 MHz) per single-core transition.
* **DVFS latency** (Fig. 10, bottom): a few milliseconds per frequency step,
  mildly dependent on how many cores are online and on the direction.

Table I then evaluates the worst-case highest-to-lowest OPP transition for
the two possible orderings (frequency-first vs cores-first) and derives the
required capacitance; :mod:`repro.core.capacitor_sizing` uses this model for
that computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cores import CoreConfig, CoreType
from .opp import GHZ, OperatingPoint

__all__ = ["TransitionLatencyModel", "TransitionStep"]


@dataclass(frozen=True)
class TransitionStep:
    """A single actuation step inside a composite OPP transition."""

    description: str
    latency_s: float
    power_during_w: float


class TransitionLatencyModel:
    """Analytical fit of the Fig. 10 latency measurements.

    Parameters
    ----------
    hotplug_base_s:
        Hot-plug latency for one core transition at the reference frequency.
    hotplug_reference_hz:
        Frequency at which ``hotplug_base_s`` applies (1.4 GHz in Fig. 10).
    hotplug_frequency_exponent:
        Latency grows as ``(f_ref / f) ** exponent`` at lower frequencies;
        0.5 reproduces the measured 10 ms -> ~26-40 ms spread between 1.4 GHz
        and 200 MHz.
    hotplug_big_extra_s:
        Additional latency when the transition powers a big-cluster core
        (bringing up the A15 cluster involves the cluster power domain).
    dvfs_base_s:
        Latency of one frequency step with a single LITTLE core online.
    dvfs_per_core_s:
        Additional latency per extra online core (cpufreq notifies each).
    dvfs_up_penalty_s:
        Extra latency when stepping the frequency up (voltage must rise
        before frequency).
    """

    def __init__(
        self,
        hotplug_base_s: float = 0.010,
        hotplug_reference_hz: float = 1.4 * GHZ,
        hotplug_frequency_exponent: float = 0.5,
        hotplug_big_extra_s: float = 0.004,
        dvfs_base_s: float = 0.0012,
        dvfs_per_core_s: float = 0.00022,
        dvfs_up_penalty_s: float = 0.0006,
    ):
        if hotplug_base_s <= 0 or dvfs_base_s <= 0:
            raise ValueError("base latencies must be positive")
        if hotplug_reference_hz <= 0:
            raise ValueError("hotplug_reference_hz must be positive")
        if hotplug_frequency_exponent < 0:
            raise ValueError("hotplug_frequency_exponent must be non-negative")
        if hotplug_big_extra_s < 0 or dvfs_per_core_s < 0 or dvfs_up_penalty_s < 0:
            raise ValueError("latency adders must be non-negative")
        self.hotplug_base_s = hotplug_base_s
        self.hotplug_reference_hz = hotplug_reference_hz
        self.hotplug_frequency_exponent = hotplug_frequency_exponent
        self.hotplug_big_extra_s = hotplug_big_extra_s
        self.dvfs_base_s = dvfs_base_s
        self.dvfs_per_core_s = dvfs_per_core_s
        self.dvfs_up_penalty_s = dvfs_up_penalty_s

    # ------------------------------------------------------------------
    # Hot-plugging
    # ------------------------------------------------------------------
    def hotplug_latency(
        self,
        from_config: CoreConfig,
        to_config: CoreConfig,
        frequency_hz: float,
    ) -> float:
        """Latency (s) to move between two core configurations at a frequency.

        Multi-core transitions are performed one core at a time (as the Linux
        hot-plug interface does), so the latency is the sum over the
        individual single-core transitions.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        scale = (self.hotplug_reference_hz / frequency_hz) ** self.hotplug_frequency_exponent
        per_core = self.hotplug_base_s * scale
        d_little = abs(to_config.n_little - from_config.n_little)
        d_big = abs(to_config.n_big - from_config.n_big)
        latency = d_little * per_core + d_big * (per_core + self.hotplug_big_extra_s)
        return latency

    def single_hotplug_latency(
        self, core_type: CoreType, frequency_hz: float
    ) -> float:
        """Latency of one single-core hot-plug transition of the given type."""
        scale = (self.hotplug_reference_hz / frequency_hz) ** self.hotplug_frequency_exponent
        latency = self.hotplug_base_s * scale
        if core_type is CoreType.BIG:
            latency += self.hotplug_big_extra_s
        return latency

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------
    def dvfs_latency(
        self,
        from_frequency_hz: float,
        to_frequency_hz: float,
        config: CoreConfig,
    ) -> float:
        """Latency (s) of a single DVFS step between two ladder frequencies."""
        if from_frequency_hz <= 0 or to_frequency_hz <= 0:
            raise ValueError("frequencies must be positive")
        if from_frequency_hz == to_frequency_hz:
            return 0.0
        latency = self.dvfs_base_s + self.dvfs_per_core_s * (config.total - 1)
        if to_frequency_hz > from_frequency_hz:
            latency += self.dvfs_up_penalty_s
        return latency

    # ------------------------------------------------------------------
    # Composite transitions
    # ------------------------------------------------------------------
    def transition_latency(
        self,
        from_opp: OperatingPoint,
        to_opp: OperatingPoint,
        cores_first: bool = True,
    ) -> float:
        """Total latency of an arbitrary OPP transition.

        ``cores_first`` selects the ordering: hot-plug to the target core
        configuration and then change frequency (the paper's scenario (b)), or
        the reverse (scenario (a)).  The frequency in effect during the
        hot-plug phase differs between the two orderings, which is what makes
        (b) cheaper.
        """
        if cores_first:
            hot = self.hotplug_latency(from_opp.config, to_opp.config, from_opp.frequency_hz)
            dvfs = self.dvfs_latency(from_opp.frequency_hz, to_opp.frequency_hz, to_opp.config)
        else:
            dvfs = self.dvfs_latency(from_opp.frequency_hz, to_opp.frequency_hz, from_opp.config)
            hot = self.hotplug_latency(from_opp.config, to_opp.config, to_opp.frequency_hz)
        return hot + dvfs
