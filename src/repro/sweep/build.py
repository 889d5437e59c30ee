"""One construction path: resolve a :class:`ScenarioConfig` into a live system.

``build_system`` is the single place where plain-data scenario configs become
a ready :class:`~repro.sim.simulator.EnergyHarvestingSimulation`: every sweep
worker, experiment wrapper (:func:`repro.experiments.scenarios.run_pv_experiment`,
:func:`~repro.experiments.scenarios.run_controlled_supply_experiment`), bench
and example assembles the supply, platform, capacitor, governor and workload
through the component registries of :mod:`repro.sweep.components`.

Callers holding pre-built component *instances* (e.g. an already-constructed
governor under test) pass them as keyword overrides; everything else resolves
from the config's component specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..energy.profiles import PV_TARGET_VOLTAGE
from ..energy.supercapacitor import Supercapacitor
from ..governors.base import Governor
from ..registry import ComponentSpec
from ..sim.result import SimulationResult
from ..sim.simulator import EnergyHarvestingSimulation, SimulationConfig
from ..sim.supplies import Supply
from ..soc.platform import SoCPlatform
from ..workloads.workload import Workload
from .components import CAPACITORS, GOVERNORS, PLATFORMS, SUPPLIES, WORKLOADS_REGISTRY
from .spec import ScenarioConfig

__all__ = [
    "BuiltSystem",
    "build_governor",
    "build_supply",
    "build_platform",
    "build_capacitor",
    "build_workload",
    "build_system",
    "run_system",
]

#: Sentinel distinguishing "not passed" from an explicit ``None`` override.
_UNSET = object()

SpecLike = Union[ComponentSpec, Mapping, str]


def build_governor(spec: "SpecLike | ScenarioConfig") -> Governor:
    """Instantiate the governor a spec (or a whole scenario config) names."""
    if isinstance(spec, ScenarioConfig):
        spec = spec.governor
    spec = GOVERNORS.canonical(spec)
    entry = GOVERNORS.get(spec.kind)
    overrides = spec.params_dict()
    if overrides and not entry.metadata.get("tunable", False):
        raise ValueError(f"governor {spec.kind!r} does not accept parameter overrides")
    return entry.factory(**overrides)


def build_supply(spec: SpecLike, duration_s: float) -> Supply:
    """Instantiate a supply for a scenario of the given duration."""
    return SUPPLIES.build(spec, duration_s=float(duration_s))


def build_platform(spec: SpecLike) -> SoCPlatform:
    return PLATFORMS.build(spec)


def build_capacitor(spec: SpecLike) -> Supercapacitor:
    return CAPACITORS.build(spec)


def build_workload(spec: SpecLike) -> Workload:
    return WORKLOADS_REGISTRY.build(spec)


def _resolve_initial_voltage(config: ScenarioConfig, supply: Supply) -> Optional[float]:
    """The starting capacitor voltage a config implies.

    The capacitor spec's ``initial_voltage`` wins when set: a number is taken
    verbatim, ``"open-circuit"`` forces the supply's unloaded voltage.  When
    unset (``None``), the pv-array rig starts at the calibrated MPP voltage
    (matching the paper's outdoor runs, which begin with a charged buffer);
    other supplies start at their open-circuit/programmed voltage.
    """
    declared = config.capacitor.get("initial_voltage")
    if declared == "open-circuit":
        return None
    if declared is not None:
        return float(declared)
    if config.supply.kind == "pv-array" and not supply.is_voltage_source:
        return PV_TARGET_VOLTAGE
    return None


@dataclass
class BuiltSystem:
    """A resolved scenario: the simulation plus its reporting workload."""

    config: ScenarioConfig
    simulation: EnergyHarvestingSimulation
    workload: Workload

    def run(self) -> SimulationResult:
        return self.simulation.run()


def build_system(
    config: "ScenarioConfig | Mapping",
    *,
    governor: Optional[Governor] = None,
    platform: Optional[SoCPlatform] = None,
    supply: Optional[Supply] = None,
    capacitor: Optional[Supercapacitor] = None,
    workload: Optional[Workload] = None,
    initial_voltage=_UNSET,
    record_interval_s: Optional[float] = None,
    max_step_s: Optional[float] = None,
    fast: bool = True,
    **sim_overrides,
) -> BuiltSystem:
    """Resolve a scenario config into a ready simulation.

    Parameters
    ----------
    config:
        A :class:`ScenarioConfig` or any dict it deserialises from (composed
        schema v2 or PR-1-era flat v1).
    governor / platform / supply / capacitor / workload:
        Pre-built component instances overriding the config's specs (used by
        the thin experiment wrappers, which receive live objects).
    initial_voltage:
        Overrides the config-derived starting voltage (``None`` means "use
        the supply's open-circuit voltage").
    record_interval_s / max_step_s:
        Override the supply kind's registered simulation step defaults.
    fast:
        Answer supply currents from the tabulated I-V surface (the default
        for every campaign and experiment).  ``fast=False`` selects the exact
        path: the same simulator loop with per-call Lambert-W supply solves
        (the ``exact`` flag of the supply built here is set to ``not fast``;
        a pre-built ``supply=`` instance is never mutated).  The choice is
        an execution detail — it is not part of the scenario identity, so
        stored campaign results remain comparable across both (the table's
        accuracy loss is bounded well inside the metric tolerances the
        parity suite enforces).
    sim_overrides:
        Any further :class:`~repro.sim.simulator.SimulationConfig` fields.
    """
    if not isinstance(config, ScenarioConfig):
        config = ScenarioConfig.from_dict(config)

    if supply is None:
        supply = build_supply(config.supply, config.duration_s)
        # Supplies built here follow the engine choice symmetrically; a
        # caller-passed supply instance keeps whatever exact setting the
        # caller gave it.
        if hasattr(supply, "exact"):
            supply.exact = not fast
    if platform is None:
        platform = build_platform(config.platform)
    if governor is None:
        governor = build_governor(config.governor)
    if capacitor is None:
        capacitor = build_capacitor(config.capacitor)
    if workload is None:
        workload = build_workload(config.workload)

    sim_defaults = dict(SUPPLIES.get(config.supply.kind).metadata.get("sim_defaults", {}))
    if record_interval_s is not None:
        sim_defaults["record_interval_s"] = float(record_interval_s)
    if max_step_s is not None:
        sim_defaults["max_step_s"] = float(max_step_s)

    if initial_voltage is _UNSET:
        initial_voltage = _resolve_initial_voltage(config, supply)

    sim_config = SimulationConfig(
        duration_s=config.duration_s,
        initial_voltage=initial_voltage,
        monitor_quantised=config.monitor_quantised,
        utilization=workload.utilization,
        **sim_defaults,
        **sim_overrides,
    )
    simulation = EnergyHarvestingSimulation(
        platform=platform,
        governor=governor,
        supply=supply,
        capacitor=capacitor,
        config=sim_config,
    )
    return BuiltSystem(config=config, simulation=simulation, workload=workload)


def run_system(config: "ScenarioConfig | Mapping", **overrides) -> SimulationResult:
    """Build a scenario's system and run it to completion."""
    return build_system(config, **overrides).run()
