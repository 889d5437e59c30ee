"""The scenario component registries: supply / platform / capacitor / governor / workload.

Every dimension of a scenario is a registered *kind* plus plain-data
parameters (:class:`repro.registry.ComponentSpec`).  This module declares the
built-in kinds for the paper's two rigs and their idealised variants:

========== ====================================================================
registry    built-in kinds
========== ====================================================================
SUPPLIES    ``pv-array`` (Sections V-B/C/D: weather, seed, shadowing),
            ``controlled-voltage`` (Section V-A / Fig. 11 profile, or a
            constant programmed voltage), ``constant-power`` (the idealised
            Fig. 3 source), ``trace-file`` (a CSV trace driving any of the
            three supply models)
PLATFORMS   ``exynos5422`` (the calibrated ODROID-XU4; electrical-envelope
            parameters — operating window, reboot voltage/latency — are
            overridable for platform variants)
CAPACITORS  ``supercapacitor`` (capacitance, ESR, leakage, rated voltage,
            initial voltage)
GOVERNORS   every governor of :mod:`repro.governors` plus the named
            power-neutral parameter variants; tunable kinds accept
            :class:`~repro.core.parameters.ControllerParameters` overrides as
            spec parameters
WORKLOADS   ``table2-render``, ``fig7-frame``, ``synthetic``
========== ====================================================================

New kinds plug in with ``SUPPLIES.register("my-kind", factory, defaults=...)``
— sweeps, CLI listings and error messages pick them up automatically (see the
README's "Custom scenarios" section).

Supply factories receive the scenario duration as a ``duration_s`` keyword;
all other factories receive only their spec parameters.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from ..core.governor import PowerNeutralGovernor
from ..core.parameters import (
    ControllerParameters,
    FIG6_PARAMETERS,
    FIG11_PARAMETERS,
    PAPER_TUNED_PARAMETERS,
)
from ..energy.irradiance import ShadowingEvent, WeatherCondition
from ..energy.profiles import (
    constant_power_profile,
    fig11_supply_profile,
    solar_irradiance_trace,
)
from ..energy.pv_array import paper_pv_array
from ..energy.supercapacitor import PAPER_BUFFER_CAPACITANCE_F, Supercapacitor
from ..energy.traces import IrradianceTrace, Trace
from ..registry import Registry
from ..sim.supplies import (
    ConstantPowerSupply,
    ControlledVoltageSupply,
    PVArraySupply,
    Supply,
)
from ..soc.exynos5422 import (
    build_exynos5422_platform,
    exynos5422_latency_model,
    exynos5422_performance_model,
    exynos5422_power_model,
    exynos5422_spec,
)
from ..soc.platform import SoCPlatform
from ..workloads.workload import (
    FIG7_FRAME,
    TABLE2_RENDER,
    SyntheticWorkload,
    Workload,
)

__all__ = [
    "SUPPLIES",
    "PLATFORMS",
    "CAPACITORS",
    "GOVERNORS",
    "WORKLOADS_REGISTRY",
    "shadowing_events",
]

SUPPLIES = Registry("supply")
PLATFORMS = Registry("platform")
CAPACITORS = Registry("capacitor")
GOVERNORS = Registry("governor")
WORKLOADS_REGISTRY = Registry("workload")


# ----------------------------------------------------------------------
# Supplies
# ----------------------------------------------------------------------
def shadowing_events(shadowing: Sequence) -> list[ShadowingEvent]:
    """Turn plain shadowing data (dicts or events) into simulation events."""
    events = []
    for item in shadowing or ():
        if isinstance(item, ShadowingEvent):
            events.append(item)
            continue
        data = dict(item)
        events.append(
            ShadowingEvent(
                start_s=float(data["start_s"]),
                duration_s=float(data["duration_s"]),
                attenuation=float(data.get("attenuation", 0.2)),
                ramp_s=float(data.get("ramp_s", 0.5)),
            )
        )
    return events


def _validate_pv_array(params: Mapping) -> None:
    WeatherCondition(params["weather"])  # raises on unknown preset
    shadowing_events(params["shadowing"])  # raises on malformed episodes


def _build_pv_array_supply(
    duration_s: float,
    weather: str = WeatherCondition.FULL_SUN.value,
    seed: int = 7,
    shadowing: Sequence = (),
) -> Supply:
    irradiance = solar_irradiance_trace(
        duration_s,
        weather=WeatherCondition(weather),
        seed=int(seed),
        shadowing_events=shadowing_events(shadowing),
    )
    return PVArraySupply(paper_pv_array(), irradiance)


SUPPLIES.register(
    "pv-array",
    _build_pv_array_supply,
    label="1340 cm² PV array (outdoor)",
    defaults={
        "weather": WeatherCondition.FULL_SUN.value,
        "seed": 7,
        "shadowing": (),
    },
    sim_defaults={"record_interval_s": 0.25, "max_step_s": 0.02},
    validate=_validate_pv_array,
)


def _validate_controlled_voltage(params: Mapping) -> None:
    if params["profile"] not in ("fig11", "constant"):
        raise ValueError(
            f"unknown controlled-voltage profile {params['profile']!r}; "
            "known: fig11, constant"
        )
    if params["current_limit_a"] <= 0:
        raise ValueError("current_limit_a must be positive")
    if params["voltage_v"] <= 0:
        raise ValueError("voltage_v must be positive")


def _build_controlled_voltage_supply(
    duration_s: float,
    profile: str = "fig11",
    voltage_v: float = 5.0,
    current_limit_a: float = 3.0,
) -> Supply:
    if profile == "fig11":
        trace = fig11_supply_profile(duration_s=duration_s)
    else:  # "constant"
        trace = Trace(
            times=[0.0, max(duration_s, 1e-9)],
            values=[voltage_v, voltage_v],
            name="controlled_supply",
            units="V",
        )
    return ControlledVoltageSupply(trace, current_limit_a=float(current_limit_a))


SUPPLIES.register(
    "controlled-voltage",
    _build_controlled_voltage_supply,
    label="controlled laboratory supply (Section V-A)",
    defaults={"profile": "fig11", "voltage_v": 5.0, "current_limit_a": 3.0},
    sim_defaults={"record_interval_s": 0.05, "max_step_s": 0.01},
    validate=_validate_controlled_voltage,
)


def _validate_constant_power(params: Mapping) -> None:
    if params["power_w"] < 0:
        raise ValueError("power_w must be non-negative")
    if params["voltage_limit"] <= 0:
        raise ValueError("voltage_limit must be positive")


def _build_constant_power_supply(
    duration_s: float,
    power_w: float = 3.0,
    voltage_limit: float = 6.5,
) -> Supply:
    profile = constant_power_profile(duration_s, float(power_w))
    return ConstantPowerSupply(profile, voltage_limit=float(voltage_limit))


SUPPLIES.register(
    "constant-power",
    _build_constant_power_supply,
    label="idealised constant-power source",
    defaults={"power_w": 3.0, "voltage_limit": 6.5},
    sim_defaults={"record_interval_s": 0.25, "max_step_s": 0.02},
    validate=_validate_constant_power,
)


def _validate_trace_file(params: Mapping) -> None:
    if not params["path"]:
        raise ValueError("trace-file supply needs a 'path' parameter")
    if params["signal"] not in ("irradiance", "voltage", "power"):
        raise ValueError(
            f"unknown trace-file signal {params['signal']!r}; "
            "known: irradiance, voltage, power"
        )
    if params["scale"] <= 0:
        raise ValueError("scale must be positive")


def _build_trace_file_supply(
    duration_s: float,
    path: Optional[str] = None,
    signal: str = "irradiance",
    scale: float = 1.0,
) -> Supply:
    """Drive one of the three supply models from a recorded CSV trace.

    Caveat: the scenario content hash covers the *path string*, not the file
    contents — editing the CSV in place and re-running against the same
    store cache-hits the stale results.  Version trace files by name (or run
    ``--fresh``) when the data changes.
    """
    trace = Trace.load_csv(path).scaled(float(scale))
    if signal == "irradiance":
        irradiance = IrradianceTrace(trace.times, trace.values)
        return PVArraySupply(paper_pv_array(), irradiance)
    if signal == "voltage":
        return ControlledVoltageSupply(trace)
    return ConstantPowerSupply(trace)


SUPPLIES.register(
    "trace-file",
    _build_trace_file_supply,
    label="recorded CSV trace",
    defaults={"path": None, "signal": "irradiance", "scale": 1.0},
    sim_defaults={"record_interval_s": 0.25, "max_step_s": 0.02},
    validate=_validate_trace_file,
)


# ----------------------------------------------------------------------
# Platforms
# ----------------------------------------------------------------------
def _build_exynos5422_variant(
    minimum_voltage: float = 4.1,
    maximum_voltage: float = 5.7,
    reboot_voltage: float = 4.6,
    reboot_latency_s: float = 8.0,
) -> SoCPlatform:
    spec = replace(
        exynos5422_spec(),
        minimum_voltage=float(minimum_voltage),
        maximum_voltage=float(maximum_voltage),
        reboot_voltage=float(reboot_voltage),
        reboot_latency_s=float(reboot_latency_s),
    )
    return SoCPlatform(
        spec=spec,
        power_model=exynos5422_power_model(),
        performance_model=exynos5422_performance_model(),
        latency_model=exynos5422_latency_model(),
    )


PLATFORMS.register(
    "exynos5422",
    _build_exynos5422_variant,
    label="ODROID-XU4 (Exynos5422)",
    defaults={
        "minimum_voltage": 4.1,
        "maximum_voltage": 5.7,
        "reboot_voltage": 4.6,
        "reboot_latency_s": 8.0,
    },
)

# Keep the canonical builder importable for callers that want the stock model.
build_default_platform = build_exynos5422_platform


# ----------------------------------------------------------------------
# Capacitors
# ----------------------------------------------------------------------
def _validate_supercapacitor(params: Mapping) -> None:
    iv = params["initial_voltage"]
    if iv is not None and not isinstance(iv, (int, float)) and iv != "open-circuit":
        raise ValueError(
            "initial_voltage must be a voltage, null (supply-appropriate default) "
            "or 'open-circuit'"
        )
    # Delegate the numeric validation to the component model itself.
    Supercapacitor(
        capacitance_f=float(params["capacitance_f"]),
        esr_ohm=float(params["esr_ohm"]),
        leakage_conductance_s=float(params["leakage_conductance_s"]),
        max_voltage=float(params["max_voltage"]),
    )


def _build_supercapacitor(
    capacitance_f: float = PAPER_BUFFER_CAPACITANCE_F,
    esr_ohm: float = 0.02,
    leakage_conductance_s: float = 1e-6,
    max_voltage: float = 10.0,
    initial_voltage=None,  # consumed by build_system, not by the component
) -> Supercapacitor:
    return Supercapacitor(
        capacitance_f=float(capacitance_f),
        esr_ohm=float(esr_ohm),
        leakage_conductance_s=float(leakage_conductance_s),
        max_voltage=float(max_voltage),
    )


CAPACITORS.register(
    "supercapacitor",
    _build_supercapacitor,
    label="buffer supercapacitor",
    defaults={
        "capacitance_f": PAPER_BUFFER_CAPACITANCE_F,
        "esr_ohm": 0.02,
        "leakage_conductance_s": 1e-6,
        "max_voltage": 10.0,
        "initial_voltage": None,
    },
    validate=_validate_supercapacitor,
)


# ----------------------------------------------------------------------
# Governors
# ----------------------------------------------------------------------
def _register_power_neutral(name: str, label: str, base: ControllerParameters) -> None:
    def build(**kwargs):
        params = base.with_overrides(**kwargs) if kwargs else base
        return PowerNeutralGovernor(params)

    # Governor overrides are validated when the governor is built (a worker
    # failure record), not when the config is constructed, so a campaign can
    # persist and report a bad cell instead of dying during expansion.
    GOVERNORS.register(name, build, label=label, tunable=True, open_params=True)


_register_power_neutral("power-neutral", "Proposed Approach", PAPER_TUNED_PARAMETERS)
_register_power_neutral("power-neutral-fig6", "Proposed (Fig. 6 params)", FIG6_PARAMETERS)
_register_power_neutral("power-neutral-fig11", "Proposed (Fig. 11 params)", FIG11_PARAMETERS)
_register_power_neutral(
    "power-neutral-dvfs-only",
    "Proposed (DVFS only)",
    PAPER_TUNED_PARAMETERS.with_overrides(use_hotplug=False),
)
_register_power_neutral(
    "power-neutral-hotplug-only",
    "Proposed (hot-plug only)",
    PAPER_TUNED_PARAMETERS.with_overrides(use_dvfs=False),
)


def _register_baseline_governors() -> None:
    from ..governors.linux import (
        ConservativeGovernor,
        InteractiveGovernor,
        OndemandGovernor,
        PerformanceGovernor,
        PowersaveGovernor,
    )
    from ..governors.single_core_dfs import SingleCoreDFSGovernor
    from ..governors.solartune import SolarTuneGovernor

    for name, label, factory in (
        ("performance", "Linux Performance", PerformanceGovernor),
        ("powersave", "Linux Powersave", PowersaveGovernor),
        ("ondemand", "Linux Ondemand", OndemandGovernor),
        ("conservative", "Linux Conservative", ConservativeGovernor),
        ("interactive", "Linux Interactive", InteractiveGovernor),
        ("single-core-dfs", "Single-core DFS [11]", SingleCoreDFSGovernor),
        ("solartune", "SolarTune-style [9]", SolarTuneGovernor),
    ):
        # Baselines take no parameters; `open_params` stays True so that the
        # "does not accept parameter overrides" error surfaces at build time
        # with its historical wording rather than as an unknown-parameter
        # error at config time.
        GOVERNORS.register(name, factory, label=label, tunable=False, open_params=True)


_register_baseline_governors()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _build_synthetic_workload(
    instructions_per_unit: float = 1e9, utilization: float = 1.0
) -> Workload:
    return SyntheticWorkload(
        instructions_per_unit=float(instructions_per_unit),
        utilization=float(utilization),
    )


WORKLOADS_REGISTRY.register(
    "table2-render", lambda: TABLE2_RENDER, label="Table II render", defaults={}
)
WORKLOADS_REGISTRY.register(
    "fig7-frame", lambda: FIG7_FRAME, label="Fig. 7 frame", defaults={}
)
WORKLOADS_REGISTRY.register(
    "synthetic",
    _build_synthetic_workload,
    label="synthetic fixed-cost workload",
    defaults={"instructions_per_unit": 1e9, "utilization": 1.0},
)
