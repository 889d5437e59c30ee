"""repro — Power Neutral Performance Scaling for Energy Harvesting MP-SoCs.

A trace-driven Python reproduction of Fletcher, Balsamo and Merrett's DATE
2017 paper.  The package is organised around the paper's system (Fig. 8):

* :mod:`repro.energy`   — PV cells/arrays, irradiance synthesis, buffer capacitor;
* :mod:`repro.soc`      — the calibrated Exynos5422 (ODROID-XU4) platform model;
* :mod:`repro.hw`       — the dual-threshold voltage-monitoring hardware;
* :mod:`repro.sim`      — supplies and the event-driven system simulator;
* :mod:`repro.core`     — the power-neutral governor (the paper's contribution);
* :mod:`repro.governors`— the baseline governors it is compared against;
* :mod:`repro.workloads`— the smallpt-style workload;
* :mod:`repro.analysis` — stability / energy / MPPT / overhead analysis;
* :mod:`repro.experiments` — one function per paper figure and table;
* :mod:`repro.sweep`    — parallel scenario campaigns (governor × weather ×
  parameter grids) with a persistent, resumable JSONL result store.

Quick start::

    from repro import PowerNeutralGovernor, run_pv_experiment, WeatherCondition

    result = run_pv_experiment(PowerNeutralGovernor(), duration_s=600,
                               weather=WeatherCondition.FULL_SUN)
    print(result.summary())
"""

from .core.governor import PowerNeutralGovernor
from .core.parameters import (
    ControllerParameters,
    FIG6_PARAMETERS,
    FIG11_PARAMETERS,
    PAPER_TUNED_PARAMETERS,
)
from .energy.irradiance import IrradianceGenerator, WeatherCondition
from .energy.pv_array import PVArray, fig1_small_cell, paper_pv_array
from .energy.supercapacitor import PAPER_BUFFER_CAPACITANCE_F, Supercapacitor
from .energy.profiles import PV_TARGET_VOLTAGE, solar_irradiance_trace
from .experiments.scenarios import run_controlled_supply_experiment, run_pv_experiment
from .registry import ComponentSpec, Registry
from .governors import (
    ConservativeGovernor,
    Governor,
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    SingleCoreDFSGovernor,
    SolarTuneGovernor,
    StaticGovernor,
)
from .sim.result import SimulationResult
from .sim.simulator import EnergyHarvestingSimulation, SimulationConfig
from .soc.exynos5422 import build_exynos5422_platform
from .soc.opp import OperatingPoint
from .soc.cores import CoreConfig

__version__ = "1.0.0"

__all__ = [
    "PowerNeutralGovernor",
    "ControllerParameters",
    "FIG6_PARAMETERS",
    "FIG11_PARAMETERS",
    "PAPER_TUNED_PARAMETERS",
    "IrradianceGenerator",
    "WeatherCondition",
    "PVArray",
    "fig1_small_cell",
    "paper_pv_array",
    "PAPER_BUFFER_CAPACITANCE_F",
    "Supercapacitor",
    "PV_TARGET_VOLTAGE",
    "run_controlled_supply_experiment",
    "run_pv_experiment",
    "solar_irradiance_trace",
    "ComponentSpec",
    "Registry",
    "ConservativeGovernor",
    "Governor",
    "InteractiveGovernor",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
    "SingleCoreDFSGovernor",
    "SolarTuneGovernor",
    "StaticGovernor",
    "SimulationResult",
    "EnergyHarvestingSimulation",
    "SimulationConfig",
    "build_exynos5422_platform",
    "OperatingPoint",
    "CoreConfig",
    "__version__",
]
