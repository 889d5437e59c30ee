"""Shared experiment scenarios.

The paper's evaluation re-uses a small number of experimental setups: the
ODROID-XU4 coupled to the 1340 cm² PV array through the 47 mF buffer, driven
either by real sunlight (various weather conditions) or by a controlled
laboratory supply.  Since PR 2 both setups resolve through the *single*
construction path of :func:`repro.sweep.build.build_system`;
:func:`run_pv_experiment` and :func:`run_controlled_supply_experiment` are
thin wrappers that translate their historical signatures (live governor /
platform / trace objects) into a scenario config plus component overrides, so
the examples, the CLI and every benchmark construct systems exactly the way a
sweep worker does.
"""

from __future__ import annotations

from typing import Optional

from ..energy.irradiance import WeatherCondition
from ..energy.profiles import PV_TARGET_VOLTAGE, fig11_supply_profile, solar_irradiance_trace
from ..energy.pv_array import PVArray, paper_pv_array
from ..energy.supercapacitor import PAPER_BUFFER_CAPACITANCE_F
from ..energy.traces import IrradianceTrace, Trace
from ..governors.base import Governor
from ..sim.result import SimulationResult
from ..sim.supplies import ControlledVoltageSupply, PVArraySupply, Supply
from ..soc.platform import SoCPlatform

__all__ = ["run_pv_experiment", "run_controlled_supply_experiment"]


def run_pv_experiment(
    governor: Governor,
    duration_s: float,
    weather: WeatherCondition = WeatherCondition.FULL_SUN,
    seed: int = 7,
    capacitance_f: float = PAPER_BUFFER_CAPACITANCE_F,
    initial_voltage: Optional[float] = PV_TARGET_VOLTAGE,
    platform: Optional[SoCPlatform] = None,
    pv_array: Optional[PVArray] = None,
    irradiance: Optional[IrradianceTrace] = None,
    monitor_quantised: bool = True,
    record_interval_s: float = 0.25,
    max_step_s: float = 0.02,
) -> SimulationResult:
    """Run one outdoor (PV-array) experiment and return its result.

    This is the common harness behind Fig. 12, Fig. 13, Fig. 14, Table II and
    the ablation benches: same array, same buffer, same weather model — only
    the governor (and optionally the weather/duration) changes.  A thin
    wrapper over :func:`repro.sweep.build.build_system`: the live ``governor``
    (and any custom ``platform`` / ``pv_array`` / ``irradiance``) ride along
    as component overrides on a pv-array scenario config.
    """
    # Imported lazily: repro.sweep builds on the energy/soc/sim layers this
    # module sits next to, and the wrappers are leaf call sites.
    from ..sweep.build import build_system
    from ..sweep.spec import ScenarioConfig

    config = ScenarioConfig(
        # Placeholder kind — the live `governor` instance below overrides it.
        governor="power-neutral",
        weather=weather,
        seed=seed,
        capacitance_f=capacitance_f,
        duration_s=duration_s,
        monitor_quantised=monitor_quantised,
    )
    supply: Optional[Supply] = None
    if pv_array is not None or irradiance is not None:
        pv = pv_array if pv_array is not None else paper_pv_array()
        if irradiance is None:
            irradiance = solar_irradiance_trace(duration_s, weather=weather, seed=seed)
        supply = PVArraySupply(pv, irradiance)
    built = build_system(
        config,
        governor=governor,
        platform=platform,
        supply=supply,
        initial_voltage=initial_voltage,
        record_interval_s=record_interval_s,
        max_step_s=max_step_s,
    )
    return built.run()


def run_controlled_supply_experiment(
    governor: Governor,
    voltage_profile: Optional[Trace] = None,
    duration_s: Optional[float] = None,
    platform: Optional[SoCPlatform] = None,
    record_interval_s: float = 0.05,
) -> SimulationResult:
    """Run the Section V-A verification against a controlled variable supply.

    A thin wrapper over :func:`repro.sweep.build.build_system` on a
    ``controlled-voltage`` scenario config; a custom ``voltage_profile``
    rides along as a supply override.
    """
    from ..sweep.build import build_system
    from ..sweep.spec import ScenarioConfig

    supply: Optional[Supply] = None
    if voltage_profile is not None:
        supply = ControlledVoltageSupply(voltage_profile)
        if duration_s is None:
            duration_s = voltage_profile.duration
    elif duration_s is None:
        duration_s = fig11_supply_profile().duration
    config = ScenarioConfig(
        governor="power-neutral",  # placeholder; the live instance overrides it
        supply={"kind": "controlled-voltage", "profile": "fig11"},
        duration_s=duration_s,
    )
    built = build_system(
        config,
        governor=governor,
        platform=platform,
        supply=supply,
        record_interval_s=record_interval_s,
        max_step_s=0.01,
    )
    return built.run()
