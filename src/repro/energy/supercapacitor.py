"""Buffer capacitor / supercapacitor model.

Power-neutral operation removes the *large* energy buffer, but a small
capacitance remains to carry the SoC through DVFS / hot-plug transition
latency (the paper sizes 15.4 mF as the minimum and uses 47 mF).  This module
models that capacitor: ideal capacitance plus a parallel leakage path,
following the modelling approach of Weddell et al. (paper reference [5]).  The
simulator integrates the node voltage itself, from ``capacitance_f``,
``leakage_conductance_s`` and ``max_voltage``; the equivalent series
resistance ``esr_ohm`` is validated and carried in the scenario config but not
modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Supercapacitor", "PAPER_BUFFER_CAPACITANCE_F", "PAPER_MINIMUM_CAPACITANCE_F"]

#: The 47 mF capacitor used for the paper's experiments.
PAPER_BUFFER_CAPACITANCE_F = 47e-3
#: The minimum capacitance computed in Table I (core-then-frequency scenario).
PAPER_MINIMUM_CAPACITANCE_F = 15.4e-3


@dataclass
class Supercapacitor:
    """A capacitor with leakage, integrated by the simulator's loop.

    Attributes
    ----------
    capacitance_f:
        Capacitance in farads.
    esr_ohm:
        Equivalent series resistance in ohms.  Validated but not modelled:
        the simulator applies no ESR drop, so its value does not change a
        result.
    leakage_conductance_s:
        Parallel leakage conductance in siemens (I_leak = G * V).
    voltage:
        Present capacitor voltage in volts (state variable).
    max_voltage:
        Rated voltage; charging above it is clipped (a real supercapacitor
        would be protected by a clamp).
    """

    capacitance_f: float
    esr_ohm: float = 0.02
    leakage_conductance_s: float = 1e-6
    voltage: float = 0.0
    max_voltage: float = 10.0

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0:
            raise ValueError("capacitance_f must be positive")
        if self.esr_ohm < 0:
            raise ValueError("esr_ohm must be non-negative")
        if self.leakage_conductance_s < 0:
            raise ValueError("leakage_conductance_s must be non-negative")
        if self.max_voltage <= 0:
            raise ValueError("max_voltage must be positive")
        if not 0.0 <= self.voltage <= self.max_voltage:
            raise ValueError("initial voltage must lie in [0, max_voltage]")

    # ------------------------------------------------------------------
    # Energy book-keeping
    # ------------------------------------------------------------------
    @property
    def charge_coulombs(self) -> float:
        """Stored charge Q = C * V."""
        return self.capacitance_f * self.voltage

    @property
    def energy_joules(self) -> float:
        """Stored energy E = C * V^2 / 2."""
        return 0.5 * self.capacitance_f * self.voltage * self.voltage

    def leakage_current(self, voltage: float | None = None) -> float:
        """Leakage current at the given (or present) voltage."""
        v = self.voltage if voltage is None else voltage
        return self.leakage_conductance_s * v

    def reset(self, voltage: float) -> None:
        """Set the capacitor voltage (e.g. at the start of a simulation)."""
        if not 0.0 <= voltage <= self.max_voltage:
            raise ValueError("voltage must lie in [0, max_voltage]")
        self.voltage = voltage
