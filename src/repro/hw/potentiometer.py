"""Digital potentiometer model (Microchip MCP4131, paper Fig. 9).

The threshold voltages are set by the processor over SPI by programming a
digital potentiometer that trims the divider feeding the comparator.  The
MCP4131 is a 7-bit device: 129 wiper positions (taps 0..128) across the
full-scale resistance, plus a small wiper resistance.  The finite tap count
quantises the achievable threshold voltages — an effect the governor can be
configured to include or idealise (see the ablation benches).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DigitalPotentiometer", "MCP4131_TAPS", "MCP4131_FULL_SCALE_OHM"]

#: Number of wiper positions of the MCP4131 (7-bit + full-scale tap).
MCP4131_TAPS = 129
#: Full-scale resistance of the MCP4131-104 variant used in the paper's design.
MCP4131_FULL_SCALE_OHM = 100_000.0
#: Typical wiper resistance of the MCP4131.
MCP4131_WIPER_OHM = 75.0


@dataclass
class DigitalPotentiometer:
    """An SPI-programmable potentiometer with a finite number of taps.

    Attributes
    ----------
    full_scale_ohm:
        End-to-end resistance of the resistor ladder.
    taps:
        Number of wiper positions (tap 0 = 0 Ω, tap ``taps - 1`` = full scale).
    wiper_resistance_ohm:
        Constant series resistance of the wiper switch.
    tap:
        Current wiper position (state).
    """

    full_scale_ohm: float = MCP4131_FULL_SCALE_OHM
    taps: int = MCP4131_TAPS
    wiper_resistance_ohm: float = MCP4131_WIPER_OHM
    tap: int = 0

    def __post_init__(self) -> None:
        if self.full_scale_ohm <= 0:
            raise ValueError("full_scale_ohm must be positive")
        if self.taps < 2:
            raise ValueError("taps must be at least 2")
        if self.wiper_resistance_ohm < 0:
            raise ValueError("wiper_resistance_ohm must be non-negative")
        if not 0 <= self.tap < self.taps:
            raise ValueError(f"tap must lie in [0, {self.taps - 1}]")
        # Count of SPI writes, useful for overhead accounting.
        self.write_count: int = 0

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def set_tap(self, tap: int) -> None:
        """Program the wiper position (emulates an SPI write)."""
        if not 0 <= tap < self.taps:
            raise ValueError(f"tap must lie in [0, {self.taps - 1}]")
        self.tap = int(tap)
        self.write_count += 1

    def nearest_tap_for_resistance(self, resistance_ohm: float) -> int:
        """The tap whose wiper-to-B resistance is closest to the request."""
        resistance_ohm = min(max(resistance_ohm - self.wiper_resistance_ohm, 0.0), self.full_scale_ohm)
        step = self.full_scale_ohm / (self.taps - 1)
        return int(round(resistance_ohm / step))

    def set_resistance(self, resistance_ohm: float) -> float:
        """Program the nearest achievable resistance; returns the actual value."""
        self.set_tap(self.nearest_tap_for_resistance(resistance_ohm))
        return self.resistance_ohm

    # ------------------------------------------------------------------
    # Electrical value
    # ------------------------------------------------------------------
    @property
    def resistance_ohm(self) -> float:
        """Present wiper-to-B resistance, including the wiper resistance."""
        step = self.full_scale_ohm / (self.taps - 1)
        return self.tap * step + self.wiper_resistance_ohm

    @property
    def resolution_ohm(self) -> float:
        """Resistance change per tap step."""
        return self.full_scale_ohm / (self.taps - 1)
