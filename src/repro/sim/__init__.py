"""Simulation engine: supplies and the event-driven system simulator."""

from .supplies import ConstantPowerSupply, ControlledVoltageSupply, PVArraySupply, Supply
from .result import SimulationEvent, SimulationResult
from .simulator import EnergyHarvestingSimulation, SimulationConfig

__all__ = [
    "ConstantPowerSupply",
    "ControlledVoltageSupply",
    "PVArraySupply",
    "Supply",
    "SimulationEvent",
    "SimulationResult",
    "EnergyHarvestingSimulation",
    "SimulationConfig",
]
