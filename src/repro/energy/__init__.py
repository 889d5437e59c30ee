"""Energy-harvesting substrate: PV cells/arrays, irradiance synthesis, storage.

This subpackage models everything on the *supply* side of the paper's system
(Fig. 2 and Fig. 8): the single-diode solar-cell model of eq. 4, calibrated PV
arrays, synthetic irradiance traces with micro/macro variability, trace
containers with CSV persistence, and the small buffer capacitor.
"""

from .solar_cell import MPPResult, SolarCell, SolarCellParameters, thermal_voltage
from .pv_array import PVArray, fig1_small_cell, paper_pv_array
from .irradiance import (
    ClearSkyModel,
    CloudModel,
    IrradianceGenerator,
    ShadowingEvent,
    WeatherCondition,
    constant_irradiance,
    sinusoidal_irradiance,
    step_irradiance,
)
from .profiles import (
    PAPER_TEST_START_S,
    PV_TARGET_VOLTAGE,
    constant_power_profile,
    fig11_supply_profile,
    solar_irradiance_trace,
)
from .traces import IrradianceTrace, PowerTrace, Trace
from .supercapacitor import (
    PAPER_BUFFER_CAPACITANCE_F,
    PAPER_MINIMUM_CAPACITANCE_F,
    Supercapacitor,
)

__all__ = [
    "MPPResult",
    "SolarCell",
    "SolarCellParameters",
    "thermal_voltage",
    "PVArray",
    "paper_pv_array",
    "fig1_small_cell",
    "ClearSkyModel",
    "CloudModel",
    "IrradianceGenerator",
    "ShadowingEvent",
    "WeatherCondition",
    "constant_irradiance",
    "sinusoidal_irradiance",
    "step_irradiance",
    "IrradianceTrace",
    "PowerTrace",
    "Trace",
    "PV_TARGET_VOLTAGE",
    "PAPER_TEST_START_S",
    "solar_irradiance_trace",
    "fig11_supply_profile",
    "constant_power_profile",
    "Supercapacitor",
    "PAPER_BUFFER_CAPACITANCE_F",
    "PAPER_MINIMUM_CAPACITANCE_F",
]
