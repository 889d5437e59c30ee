"""Photovoltaic arrays: series/parallel compositions of single-diode cells.

The paper uses two PV artefacts:

* a **250 cm² monocrystalline cell** whose daily power output (about 1 W peak)
  is shown in Fig. 1 to motivate micro/macro variability, and
* a **1340 cm² monocrystalline array** used for the experimental validation,
  with a calibrated maximum power point of about 5.3 V and a peak power of
  roughly 5-6 W (Fig. 13).

Both are modelled here as a number of identical single-diode cells in series
(and optionally parallel strings).  Factory helpers return arrays calibrated
to the paper's I-V envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solar_cell import MPPResult, STC_IRRADIANCE, SolarCell, SolarCellParameters

__all__ = [
    "PVArray",
    "paper_pv_array",
    "fig1_small_cell",
    "PAPER_ARRAY_AREA_CM2",
    "FIG1_CELL_AREA_CM2",
]

#: Area of the experimental-validation array (Section V-B).
PAPER_ARRAY_AREA_CM2 = 1340.0
#: Area of the cell whose day-long output is shown in Fig. 1.
FIG1_CELL_AREA_CM2 = 250.0


@dataclass(frozen=True)
class _ArrayTopology:
    """Series/parallel arrangement of identical cells."""

    cells_in_series: int
    strings_in_parallel: int

    def __post_init__(self) -> None:
        if self.cells_in_series < 1:
            raise ValueError("cells_in_series must be >= 1")
        if self.strings_in_parallel < 1:
            raise ValueError("strings_in_parallel must be >= 1")


class PVArray:
    """A PV array built from identical single-diode cells.

    Terminal voltage divides equally over the series cells of a string and
    string currents add; because all cells are identical this reduces to a
    simple voltage/current scaling of the underlying cell model.  (Partial
    shading of individual cells is represented at the irradiance level -- the
    whole array sees one irradiance value per time step, which is how the
    paper's traces are recorded.)

    Parameters
    ----------
    cell_parameters:
        Parameters of one constituent cell.
    cells_in_series:
        Number of cells per series string.
    strings_in_parallel:
        Number of parallel strings.
    name:
        Human-readable identifier used in reports.
    """

    def __init__(
        self,
        cell_parameters: SolarCellParameters,
        cells_in_series: int = 1,
        strings_in_parallel: int = 1,
        name: str = "pv-array",
    ):
        self.cell = SolarCell(cell_parameters)
        self.topology = _ArrayTopology(cells_in_series, strings_in_parallel)
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def cells_in_series(self) -> int:
        return self.topology.cells_in_series

    @property
    def strings_in_parallel(self) -> int:
        return self.topology.strings_in_parallel

    @property
    def area_cm2(self) -> float:
        """Total active area of the array."""
        n_cells = self.cells_in_series * self.strings_in_parallel
        return n_cells * self.cell.parameters.area_cm2

    # ------------------------------------------------------------------
    # Electrical model
    # ------------------------------------------------------------------
    def current(self, voltage: float, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Array terminal current (A) at a terminal voltage (V)."""
        cell_voltage = voltage / self.cells_in_series
        cell_current = self.cell.current(cell_voltage, irradiance_w_m2)
        return cell_current * self.strings_in_parallel

    def current_array(
        self, voltages: np.ndarray, irradiance_w_m2: float = STC_IRRADIANCE
    ) -> np.ndarray:
        """Vectorised :meth:`current`."""
        voltages = np.asarray(voltages, dtype=float)
        cell_voltages = voltages / self.cells_in_series
        return self.cell.current_array(cell_voltages, irradiance_w_m2) * self.strings_in_parallel

    def current_surface(self, voltages: np.ndarray, irradiances: np.ndarray) -> np.ndarray:
        """Array currents on a (voltage x irradiance) outer grid.

        Shape ``(len(voltages), len(irradiances))``; one vectorised Wright-omega
        evaluation for the whole surface.  This is what the fast-path I-V
        tabulation of :class:`repro.sim.supplies.PVArraySupply` samples.
        """
        voltages = np.asarray(voltages, dtype=float)
        cell_voltages = voltages / self.cells_in_series
        return self.cell.current_surface(cell_voltages, irradiances) * self.strings_in_parallel

    def open_circuit_voltage_array(self, irradiances: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`open_circuit_voltage`."""
        return self.cell.open_circuit_voltage_array(irradiances) * self.cells_in_series

    def mpp_power_array(self, irradiances: np.ndarray, voltage_points: int = 512) -> np.ndarray:
        """Maximum extractable power per irradiance, by dense surface scan.

        A vectorised stand-in for calling :meth:`power_at_mpp` per irradiance:
        the power surface is sampled on ``voltage_points`` voltages up to the
        largest open-circuit voltage and maximised per column.  With the
        default grid the scan sits well inside the interpolation tolerance of
        the supply-level MPP cache that consumes it.
        """
        g = np.asarray(irradiances, dtype=float)
        return self._mpp_power_scan(g, self.open_circuit_voltage_array(g), voltage_points)

    def _mpp_power_scan(
        self, g: np.ndarray, voc: np.ndarray, voltage_points: int = 512
    ) -> np.ndarray:
        """:meth:`mpp_power_array` over irradiances ``g`` whose open-circuit
        voltages ``voc`` the caller has already computed."""
        if voltage_points < 2:
            raise ValueError("voltage_points must be at least 2")
        v_max = float(np.max(voc)) if len(voc) else 0.0
        if v_max <= 0.0:
            return np.zeros_like(g)
        voltages = np.linspace(0.0, v_max, voltage_points)
        powers = voltages[:, None] * self.current_surface(voltages, g)
        return np.max(powers, axis=0)

    def power(self, voltage: float, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Array output power (W) at a terminal voltage."""
        return voltage * self.current(voltage, irradiance_w_m2)

    def short_circuit_current(self, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        return self.cell.short_circuit_current(irradiance_w_m2) * self.strings_in_parallel

    def open_circuit_voltage(self, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        return self.cell.open_circuit_voltage(irradiance_w_m2) * self.cells_in_series

    def iv_curve(
        self,
        irradiance_w_m2: float = STC_IRRADIANCE,
        points: int = 200,
        v_max: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(voltages, currents)`` for the full array."""
        if v_max is None:
            v_max = self.open_circuit_voltage(irradiance_w_m2)
        voltages = np.linspace(0.0, max(v_max, 1e-9), points)
        return voltages, self.current_array(voltages, irradiance_w_m2)

    def maximum_power_point(self, irradiance_w_m2: float = STC_IRRADIANCE) -> MPPResult:
        """Maximum power point of the whole array."""
        cell_mpp = self.cell.maximum_power_point(irradiance_w_m2)
        return MPPResult(
            voltage=cell_mpp.voltage * self.cells_in_series,
            current=cell_mpp.current * self.strings_in_parallel,
            power=cell_mpp.power * self.cells_in_series * self.strings_in_parallel,
        )

    def power_at_mpp(self, irradiance_w_m2: float = STC_IRRADIANCE) -> float:
        """Maximum extractable power at the given irradiance."""
        return self.maximum_power_point(irradiance_w_m2).power

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PVArray(name={self.name!r}, series={self.cells_in_series}, "
            f"parallel={self.strings_in_parallel}, area={self.area_cm2:.0f}cm2)"
        )


# ----------------------------------------------------------------------
# Calibrated arrays from the paper
# ----------------------------------------------------------------------
def paper_pv_array(temperature_k: float = 300.0) -> PVArray:
    """The 1340 cm² monocrystalline array used for experimental validation.

    Calibration targets (paper Fig. 13 and Section V-B):

    * open-circuit voltage just under 7 V (x-axis of Fig. 13 ends near 7 V),
    * short-circuit current about 1.2 A at full sun,
    * maximum power point near 5.3 V (the calibrated V_target) with a peak
      power of roughly 5.5-6 W.

    Ten series cells of ~0.68 V V_oc each give V_oc ≈ 6.8 V, I_sc ≈ 1.24 A and
    an MPP of ≈ 5.2 V / ≈ 5.7 W with the chosen ideality factor and
    resistances (fitted numerically against those anchors).
    """
    cells_in_series = 10
    cell = SolarCellParameters(
        photo_current_stc=1.25,
        saturation_current=2.0e-9,
        series_resistance=0.06,
        shunt_resistance=8.0,
        ideality_factor=1.30,
        temperature_k=temperature_k,
        area_cm2=PAPER_ARRAY_AREA_CM2 / cells_in_series,
    )
    return PVArray(
        cell,
        cells_in_series=cells_in_series,
        strings_in_parallel=1,
        name="paper-1340cm2-monocrystalline",
    )


def fig1_small_cell(temperature_k: float = 300.0) -> PVArray:
    """The 250 cm² cell whose daily power output is shown in Fig. 1.

    Calibrated to peak at roughly 1 W under full sun (Fig. 1's y-axis tops out
    at 1.0 W), with the same per-area characteristics as the large array.
    """
    cells_in_series = 4
    cell = SolarCellParameters(
        photo_current_stc=0.55,
        saturation_current=2.0e-9,
        series_resistance=0.10,
        shunt_resistance=10.0,
        ideality_factor=1.30,
        temperature_k=temperature_k,
        area_cm2=FIG1_CELL_AREA_CM2 / cells_in_series,
    )
    return PVArray(
        cell,
        cells_in_series=cells_in_series,
        strings_in_parallel=1,
        name="fig1-250cm2-cell",
    )
