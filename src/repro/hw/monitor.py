"""Dual-threshold voltage-monitoring hardware (paper Fig. 9).

Two identical channels watch the supply/capacitor voltage ``V_C``:

* the **low channel** raises an interrupt when ``V_C`` falls below ``V_low``,
* the **high channel** raises an interrupt when ``V_C`` rises above ``V_high``.

Each channel is a resistive divider whose bottom leg is an SPI-programmable
digital potentiometer (MCP4131), feeding a comparator with a 400 mV internal
reference.  Programming the potentiometer therefore sets the threshold, with
a finite resolution of roughly 50 mV near the 5.3 V operating point — the
quantisation the real hardware imposes on ``V_q`` and ``V_width``.

The measured power draw of the complete monitoring circuit is 1.61 mW
(Section V-D); the model exposes that constant for the overhead accounting in
:mod:`repro.analysis.overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .comparator import Comparator, LT6703_REFERENCE_V
from .potentiometer import DigitalPotentiometer

__all__ = [
    "ThresholdCrossing",
    "ThresholdChannel",
    "VoltageMonitor",
    "MONITOR_POWER_W",
]

#: Measured power consumption of the complete monitoring hardware (Section V-D).
MONITOR_POWER_W = 1.61e-3


class ThresholdCrossing(str, Enum):
    """Which threshold was crossed (the hardware interrupt identity)."""

    LOW = "low"
    HIGH = "high"


@dataclass
class ThresholdChannel:
    """One comparator channel: fixed top resistor + digital pot + comparator.

    The threshold is the supply voltage at which the divided-down voltage
    equals the comparator reference:

        V_th = V_ref * (R_top + R_pot) / R_pot

    so programming ``R_pot`` sets the threshold.  ``quantised=False`` bypasses
    the potentiometer's finite tap resolution and realises thresholds exactly
    (useful for idealised simulation and the quantisation ablation).
    """

    r_top_ohm: float = 900_000.0
    reference_v: float = LT6703_REFERENCE_V
    quantised: bool = True
    potentiometer: DigitalPotentiometer = field(default_factory=DigitalPotentiometer)
    comparator: Comparator = field(default_factory=Comparator)
    _ideal_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.r_top_ohm <= 0:
            raise ValueError("r_top_ohm must be positive")
        if self.reference_v <= 0:
            raise ValueError("reference_v must be positive")

    # ------------------------------------------------------------------
    # Threshold programming
    # ------------------------------------------------------------------
    @property
    def minimum_threshold(self) -> float:
        """Lowest threshold the channel can realise (pot at full scale)."""
        r_max = self.potentiometer.full_scale_ohm + self.potentiometer.wiper_resistance_ohm
        return self.reference_v * (self.r_top_ohm + r_max) / r_max

    def threshold_for_resistance(self, r_pot_ohm: float) -> float:
        """Threshold realised by a given bottom-leg resistance."""
        if r_pot_ohm <= 0:
            raise ValueError("r_pot_ohm must be positive")
        return self.reference_v * (self.r_top_ohm + r_pot_ohm) / r_pot_ohm

    def resistance_for_threshold(self, threshold_v: float) -> float:
        """Bottom-leg resistance that realises a given threshold exactly."""
        if threshold_v <= self.reference_v:
            raise ValueError("threshold must exceed the comparator reference")
        return self.r_top_ohm / (threshold_v / self.reference_v - 1.0)

    def set_threshold(self, threshold_v: float) -> float:
        """Program the channel to the nearest achievable threshold.

        Returns the threshold actually realised (equal to the request when the
        channel is configured as ideal / unquantised).
        """
        if self.quantised:
            r_request = self.resistance_for_threshold(threshold_v)
            self.potentiometer.set_resistance(r_request)
            self._ideal_threshold = None
            return self.threshold

        self._ideal_threshold = float(threshold_v)
        return self.threshold

    @property
    def threshold(self) -> float:
        """The presently programmed threshold voltage."""
        if self._ideal_threshold is not None:
            return self._ideal_threshold
        return self.threshold_for_resistance(self.potentiometer.resistance_ohm)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def above_threshold(self, supply_v: float) -> bool:
        """Whether the supply is above the programmed threshold right now."""
        return supply_v > self.threshold

    def update(self, supply_v: float) -> bool:
        """Feed a supply-voltage sample through the comparator; returns output."""
        divided = supply_v * self.reference_v / self.threshold
        return self.comparator.update(divided)


class VoltageMonitor:
    """Two threshold channels generating LOW / HIGH interrupts.

    Parameters
    ----------
    quantised:
        Whether threshold programming is limited to the potentiometer's
        resolution (the real hardware) or ideal.
    power_w:
        Power drawn by the monitoring hardware (drawn from the harvesting
        node alongside the board).
    """

    def __init__(self, quantised: bool = True, power_w: float = MONITOR_POWER_W):
        if power_w < 0:
            raise ValueError("power_w must be non-negative")
        self.low_channel = ThresholdChannel(quantised=quantised)
        self.high_channel = ThresholdChannel(quantised=quantised)
        self.power_w = power_w
        # The realised thresholds, stored by set_thresholds: sample() reads
        # them every simulation step, and they change only there.
        self._v_low = self.low_channel.threshold
        self._v_high = self.high_channel.threshold
        self._armed = False
        self._was_above_low = True
        self._was_below_high = True
        self.interrupt_count = 0

    # ------------------------------------------------------------------
    # Threshold programming
    # ------------------------------------------------------------------
    @property
    def v_low(self) -> float:
        return self._v_low

    @property
    def v_high(self) -> float:
        return self._v_high

    def set_thresholds(self, v_low: float, v_high: float) -> tuple[float, float]:
        """Program both thresholds; returns the (quantised) realised values.

        The realised ``v_low`` is always strictly below the realised
        ``v_high``; if quantisation would collapse them the caller's ordering
        is preserved by construction because the channels share the same
        resolution and ``v_low < v_high`` maps to distinct resistances.
        """
        if v_low >= v_high:
            raise ValueError(f"v_low ({v_low}) must be below v_high ({v_high})")
        self._v_low = self.low_channel.set_threshold(v_low)
        self._v_high = self.high_channel.set_threshold(v_high)
        return self._v_low, self._v_high

    # ------------------------------------------------------------------
    # Sampling / interrupt generation
    # ------------------------------------------------------------------
    def prime(self, supply_v: float) -> None:
        """(Re-)arm the channels after programming the thresholds.

        The paper's control flow (Fig. 5) keeps responding while the supply
        voltage remains beyond a threshold: after the ISR shifts the
        thresholds by ``V_q``, a supply that is *still* outside the tracked
        window must trigger another response.  Arming both channels as if the
        supply were inside the window reproduces that behaviour: the next
        :meth:`sample` fires again if the supply is still below ``V_low`` or
        above ``V_high``, and fires nothing once the thresholds have caught
        up.
        """
        self._was_above_low = True
        self._was_below_high = True
        self._armed = True

    def acknowledge(self, supply_v: float) -> None:
        """Acknowledge an interrupt without re-arming a level trigger.

        Used when the governor had no further response to give (it is already
        at the extreme of its actuation range and the thresholds cannot move
        further): the channel state is latched to the present level, so no
        new interrupt fires until the supply genuinely re-crosses a threshold.
        This mirrors the edge-triggered GPIO path of the real hardware.
        """
        self._was_above_low = supply_v > self._v_low
        self._was_below_high = supply_v < self._v_high
        self._armed = True

    def sample(self, supply_v: float) -> list[ThresholdCrossing]:
        """Process a supply-voltage sample; return any interrupts generated.

        A LOW interrupt fires on a downward crossing of ``V_low``; a HIGH
        interrupt fires on an upward crossing of ``V_high``.  Both can fire in
        the same sample only if the thresholds were reprogrammed between
        samples (the governor's threshold updates re-prime the channels).
        """
        if not self._armed:
            self.prime(supply_v)
            return []

        # Plain floats stored by set_thresholds: sample() runs once per
        # simulation step, so no channel property is read here.
        above_low = supply_v > self._v_low
        below_high = supply_v < self._v_high
        fire_low = self._was_above_low and not above_low
        fire_high = self._was_below_high and not below_high
        self._was_above_low = above_low
        self._was_below_high = below_high
        if not (fire_low or fire_high):
            return []

        events: list[ThresholdCrossing] = []
        if fire_low:
            events.append(ThresholdCrossing.LOW)
        if fire_high:
            events.append(ThresholdCrossing.HIGH)
        self.interrupt_count += len(events)
        return events

    @property
    def spi_write_count(self) -> int:
        """Total number of potentiometer (SPI) writes across both channels."""
        return self.low_channel.potentiometer.write_count + self.high_channel.potentiometer.write_count
