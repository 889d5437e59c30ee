"""Single-diode photovoltaic cell model.

The paper models its PV energy-harvesting source with the classic
single-diode equivalent circuit (paper eq. 4):

    I = I_l - I_0 * (exp((V + Rs*I) / (N * Vt)) - 1) - (V + Rs*I) / Rp

where

* ``I_l``  -- light-generated (photo) current, proportional to irradiance,
* ``I_0``  -- diode reverse-saturation current,
* ``Rs``   -- lumped series resistance,
* ``Rp``   -- lumped parallel (shunt) resistance,
* ``N``    -- diode ideality (quality) factor,
* ``Vt``   -- thermal voltage (kT/q, about 25.85 mV at 300 K).

The equation is implicit in ``I``.  Its closed-form solution is a Lambert-W
value ``W(A * exp(B))``, which this module evaluates in log space as the
Wright omega function ``omega(log(A) + B)`` (``scipy.special.wrightomega``,
real-valued; Lawrence, Corless & Jeffrey, ACM TOMS Algorithm 917, 2012).
The log-space argument cannot overflow, so no bisection fallback is needed
at any voltage.  The open-circuit voltage has the same closed form
(``I = 0``, where ``Rs`` drops out) and needs no root search either.

Only the cell-level model lives here; series/parallel composition into an
array (and the calibrated arrays used by the paper) live in
:mod:`repro.energy.pv_array`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import wrightomega

__all__ = [
    "BOLTZMANN_CONSTANT",
    "ELEMENTARY_CHARGE",
    "thermal_voltage",
    "SolarCellParameters",
    "SolarCell",
    "MPPResult",
]

#: Boltzmann constant in J/K.
BOLTZMANN_CONSTANT = 1.380649e-23
#: Elementary charge in C.
ELEMENTARY_CHARGE = 1.602176634e-19

#: Standard test-condition irradiance in W/m^2.
STC_IRRADIANCE = 1000.0


def thermal_voltage(temperature_k: float = 300.0) -> float:
    """Return the thermal voltage ``kT/q`` in volts for a temperature in K."""
    if temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return BOLTZMANN_CONSTANT * temperature_k / ELEMENTARY_CHARGE


@dataclass(frozen=True)
class SolarCellParameters:
    """Parameters of the single-diode cell model.

    Attributes
    ----------
    photo_current_stc:
        Light-generated current ``I_l`` at standard test conditions
        (1000 W/m^2), in amperes.  The photo current scales linearly with
        irradiance.
    saturation_current:
        Diode reverse-saturation current ``I_0`` in amperes.
    series_resistance:
        Series resistance ``Rs`` in ohms.
    shunt_resistance:
        Parallel (shunt) resistance ``Rp`` in ohms.
    ideality_factor:
        Diode ideality factor ``N`` (dimensionless, typically 1-2).
    temperature_k:
        Cell temperature in kelvin (sets the thermal voltage).
    area_cm2:
        Active cell area in cm^2 (metadata; used for irradiance-to-power
        book-keeping and reporting, not by the electrical model itself).
    """

    photo_current_stc: float
    saturation_current: float = 1e-9
    series_resistance: float = 0.02
    shunt_resistance: float = 50.0
    ideality_factor: float = 1.3
    temperature_k: float = 300.0
    area_cm2: float = 25.0

    def __post_init__(self) -> None:
        if self.photo_current_stc <= 0:
            raise ValueError("photo_current_stc must be positive")
        if self.saturation_current <= 0:
            raise ValueError("saturation_current must be positive")
        if self.series_resistance < 0:
            raise ValueError("series_resistance must be non-negative")
        if self.shunt_resistance <= 0:
            raise ValueError("shunt_resistance must be positive")
        if self.ideality_factor <= 0:
            raise ValueError("ideality_factor must be positive")
        if self.temperature_k <= 0:
            raise ValueError("temperature_k must be positive")
        if self.area_cm2 <= 0:
            raise ValueError("area_cm2 must be positive")

    @property
    def thermal_voltage(self) -> float:
        """Thermal voltage ``Vt`` in volts at the configured temperature."""
        return thermal_voltage(self.temperature_k)

    @functools.cached_property
    def modified_thermal_voltage(self) -> float:
        """``N * Vt`` -- the denominator of the diode exponential.

        Computed once per parameters object: the fields are frozen, and a
        :meth:`with_temperature` copy computes its own.
        """
        return self.ideality_factor * self.thermal_voltage

    def with_temperature(self, temperature_k: float) -> "SolarCellParameters":
        """Return a copy of the parameters at a different temperature."""
        return replace(self, temperature_k=temperature_k)


@dataclass(frozen=True)
class MPPResult:
    """Maximum-power-point of an I-V curve."""

    voltage: float
    current: float
    power: float


class SolarCell:
    """Single-diode PV cell solved in closed form (Wright omega).

    Parameters
    ----------
    parameters:
        Electrical parameters of the cell.

    Notes
    -----
    The model is purely static: given a terminal voltage and an irradiance it
    returns the terminal current.  Dynamic behaviour (capacitance, the node
    equation) is handled by :mod:`repro.sim.simulator`.
    """

    def __init__(self, parameters: SolarCellParameters):
        self.parameters = parameters

    # ------------------------------------------------------------------
    # Photo current
    # ------------------------------------------------------------------
    def photo_current(self, irradiance_w_m2: float) -> float:
        """Light-generated current for a given irradiance (clipped at 0)."""
        if irradiance_w_m2 <= 0:
            return 0.0
        return self.parameters.photo_current_stc * irradiance_w_m2 / STC_IRRADIANCE

    # ------------------------------------------------------------------
    # I-V relationship
    # ------------------------------------------------------------------
    def current(self, voltage: float, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Terminal current (A) at a terminal voltage (V) and irradiance.

        Uses the explicit (Wright omega) solution of the implicit single-diode
        equation.  The returned current is clipped below at zero: the
        harvesting node cannot sink current back into the array (the paper's
        circuit has no path for reverse current into the PV source while the
        load is a CPU).
        """
        i = self._current_unclipped(voltage, irradiance_w_m2)
        return max(i, 0.0)

    def current_array(
        self, voltages: np.ndarray, irradiance_w_m2: float = STC_IRRADIANCE
    ) -> np.ndarray:
        """Vectorised :meth:`current` over an array of voltages.

        One Wright-omega evaluation over the whole array instead of a Python
        loop of scalar solves; used by :meth:`iv_curve`,
        :meth:`maximum_power_point` and the I-V surface tabulation of
        :class:`repro.sim.supplies.PVArraySupply`.
        """
        voltages = np.asarray(voltages, dtype=float)
        return self._current_clipped_vec(voltages, float(irradiance_w_m2))

    def current_surface(
        self, voltages: np.ndarray, irradiances: np.ndarray
    ) -> np.ndarray:
        """Clipped terminal currents on a (voltage x irradiance) outer grid.

        Returns an array of shape ``(len(voltages), len(irradiances))`` with
        ``out[i, j] = current(voltages[i], irradiances[j])``, computed with a
        single vectorised Wright-omega evaluation.
        """
        voltages = np.asarray(voltages, dtype=float)
        irradiances = np.asarray(irradiances, dtype=float)
        return self._current_clipped_vec(voltages[:, None], irradiances[None, :])

    def _current_clipped_vec(self, voltages, irradiances) -> np.ndarray:
        """Vectorised clipped current with the scalar path's special cases."""
        out = self._current_unclipped_vec(voltages, irradiances)
        # Mirror the scalar shortcut: a dark cell at non-positive voltage
        # sources no current (the formula would report the shunt path).
        dark = (np.asarray(irradiances) <= 0.0) & (np.asarray(voltages) <= 0.0)
        if np.any(dark):
            out = np.where(np.broadcast_to(dark, out.shape), 0.0, out)
        return np.maximum(out, 0.0)

    def _current_unclipped_vec(self, voltages, irradiances) -> np.ndarray:
        """Vectorised :meth:`_current_unclipped` (broadcasting inputs)."""
        p = self.parameters
        v = np.asarray(voltages, dtype=float)
        g = np.asarray(irradiances, dtype=float)
        i_l = p.photo_current_stc * np.clip(g, 0.0, None) / STC_IRRADIANCE
        rs = p.series_resistance
        rp = p.shunt_resistance
        i0 = p.saturation_current
        nvt = p.modified_thermal_voltage

        if rs == 0.0:
            with np.errstate(over="ignore"):
                exp_term = np.exp(np.minimum(v / nvt, 700.0))
            return i_l - i0 * (exp_term - 1.0) - v / rp

        denom = nvt * (rs + rp)
        exponent = rp * (rs * i_l + rs * i0 + v) / denom
        w = wrightomega(math.log((rs * rp * i0) / denom) + exponent)
        return (rp * (i_l + i0) - v) / (rs + rp) - (nvt / rs) * w

    def open_circuit_voltage_array(self, irradiances: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`open_circuit_voltage` over an irradiance array.

        At ``I = 0`` no current flows through ``Rs``, so the diode equation
        reads ``0 = I_l - I_0 (exp(V / (N Vt)) - 1) - V / Rp`` with the
        solution
        ``V = Rp (I_l + I_0) - N Vt * omega(log(I_0 Rp / (N Vt)) + Rp (I_l + I_0) / (N Vt))``;
        a dark cell (irradiance <= 0) reports 0.
        """
        p = self.parameters
        g = np.asarray(irradiances, dtype=float)
        rp = p.shunt_resistance
        i0 = p.saturation_current
        nvt = p.modified_thermal_voltage
        drop = rp * (p.photo_current_stc * np.clip(g, 0.0, None) / STC_IRRADIANCE + i0)
        voc = drop - nvt * wrightomega(math.log(i0 * rp / nvt) + drop / nvt)
        return np.where(g > 0.0, voc, 0.0)

    def _current_unclipped(self, voltage: float, irradiance_w_m2: float) -> float:
        p = self.parameters
        i_l = self.photo_current(irradiance_w_m2)
        rs = p.series_resistance
        rp = p.shunt_resistance
        i0 = p.saturation_current
        nvt = p.modified_thermal_voltage

        if i_l == 0.0 and voltage <= 0.0:
            return 0.0

        if rs == 0.0:
            # Explicit when there is no series resistance.
            return i_l - i0 * (math.exp(voltage / nvt) - 1.0) - voltage / rp

        # Closed form.  Writing the implicit equation as
        #   I = I_l - I_0 (exp((V + Rs I)/(N Vt)) - 1) - (V + Rs I)/Rp
        # the solution is
        #   I = (Rp (I_l + I_0) - V) / (Rs + Rp) - (N Vt / Rs) * W(A exp(B))
        # with
        #   A = (Rs Rp I_0)/(N Vt (Rs + Rp)),
        #   B = Rp (Rs I_l + Rs I_0 + V) / (N Vt (Rs + Rp)),
        # and W(A exp(B)) = omega(log(A) + B), which is finite for any B.
        denom = nvt * (rs + rp)
        exponent = rp * (rs * i_l + rs * i0 + voltage) / denom
        w = float(wrightomega(math.log((rs * rp * i0) / denom) + exponent))
        return (rp * (i_l + i0) - voltage) / (rs + rp) - (nvt / rs) * w

    def power(self, voltage: float, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Electrical output power (W) at a terminal voltage."""
        return voltage * self.current(voltage, irradiance_w_m2)

    # ------------------------------------------------------------------
    # Characteristic points
    # ------------------------------------------------------------------
    def short_circuit_current(self, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Short-circuit current ``I_sc`` at a given irradiance."""
        return self.current(0.0, irradiance_w_m2)

    def open_circuit_voltage(self, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Open-circuit voltage ``V_oc`` (closed form, see
        :meth:`open_circuit_voltage_array`)."""
        return float(self.open_circuit_voltage_array(irradiance_w_m2))

    def iv_curve(
        self,
        irradiance_w_m2: float = STC_IRRADIANCE,
        points: int = 200,
        v_max: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(voltages, currents)`` sampling the I-V curve.

        ``v_max`` defaults to the open-circuit voltage at the requested
        irradiance.
        """
        if points < 2:
            raise ValueError("points must be at least 2")
        if v_max is None:
            v_max = self.open_circuit_voltage(irradiance_w_m2)
        voltages = np.linspace(0.0, max(v_max, 1e-9), points)
        currents = self.current_array(voltages, irradiance_w_m2)
        return voltages, currents

    def maximum_power_point(
        self, irradiance_w_m2: float = STC_IRRADIANCE, points: int = 400
    ) -> MPPResult:
        """Locate the maximum power point by golden-section refinement.

        A coarse scan over the I-V curve locates the neighbourhood of the
        maximum; a golden-section search then refines it.
        """
        if irradiance_w_m2 <= 0:
            return MPPResult(0.0, 0.0, 0.0)
        voc = self.open_circuit_voltage(irradiance_w_m2)
        voltages = np.linspace(0.0, voc, points)
        powers = voltages * self.current_array(voltages, irradiance_w_m2)
        k = int(np.argmax(powers))
        lo = voltages[max(k - 1, 0)]
        hi = voltages[min(k + 1, points - 1)]

        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        for _ in range(80):
            if self.power(c, irradiance_w_m2) > self.power(d, irradiance_w_m2):
                b = d
            else:
                a = c
            c = b - phi * (b - a)
            d = a + phi * (b - a)
            if abs(b - a) < 1e-9:
                break
        v_mpp = 0.5 * (a + b)
        i_mpp = self.current(v_mpp, irradiance_w_m2)
        return MPPResult(voltage=v_mpp, current=i_mpp, power=v_mpp * i_mpp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.parameters
        return (
            f"SolarCell(I_l={p.photo_current_stc:.3f}A, I_0={p.saturation_current:.2e}A, "
            f"Rs={p.series_resistance:.3f}Ω, Rp={p.shunt_resistance:.1f}Ω, N={p.ideality_factor:.2f})"
        )
