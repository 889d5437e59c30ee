"""Energy accounting (paper Fig. 14).

Quantifies how well a power-management scheme used the available harvest:
energy harvested vs. energy consumed vs. maximum harvestable energy, the
instantaneous tracking error between consumed and available power (the gap in
Fig. 14).  Table II's work metrics are rebuilt from campaign records by
:func:`repro.sweep.table2_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.result import SimulationResult

__all__ = ["EnergyAccount", "energy_account", "power_tracking_error"]


@dataclass(frozen=True)
class EnergyAccount:
    """Energy totals over a run."""

    available_energy_j: float
    harvested_energy_j: float
    consumed_energy_j: float
    harvest_utilisation: float
    mean_available_power_w: float
    mean_consumed_power_w: float

    def as_dict(self) -> dict:
        return {
            "available_energy_j": self.available_energy_j,
            "harvested_energy_j": self.harvested_energy_j,
            "consumed_energy_j": self.consumed_energy_j,
            "harvest_utilisation": self.harvest_utilisation,
            "mean_available_power_w": self.mean_available_power_w,
            "mean_consumed_power_w": self.mean_consumed_power_w,
        }


def energy_account(result: SimulationResult) -> EnergyAccount:
    """Energy totals and harvest utilisation for one simulation run."""
    if len(result.times) < 2:
        raise ValueError("the simulation result contains too few samples")
    available_energy = float(np.trapezoid(result.available_power, result.times))
    duration = result.duration_s if result.duration_s > 0 else float(result.times[-1] - result.times[0])
    utilisation = result.consumed_energy_j / available_energy if available_energy > 0 else 0.0
    return EnergyAccount(
        available_energy_j=available_energy,
        harvested_energy_j=result.harvested_energy_j,
        consumed_energy_j=result.consumed_energy_j,
        harvest_utilisation=utilisation,
        mean_available_power_w=available_energy / duration if duration > 0 else 0.0,
        mean_consumed_power_w=result.consumed_energy_j / duration if duration > 0 else 0.0,
    )


def power_tracking_error(result: SimulationResult) -> dict:
    """Statistics of the (available - consumed) power gap while running.

    A perfectly power-neutral system would keep the consumed power just below
    the available power at all times (Fig. 14); the mean and RMS gap quantify
    how closely that is achieved, and ``overdraw_fraction`` is the fraction of
    time the load exceeded what was harvestable (drawing down the buffer).
    """
    if len(result.times) < 2:
        raise ValueError("the simulation result contains too few samples")
    running = result.running > 0.5
    gap = result.available_power - result.consumed_power
    gap_running = gap[running]
    if len(gap_running) == 0:
        return {"mean_gap_w": 0.0, "rms_gap_w": 0.0, "overdraw_fraction": 0.0}
    return {
        "mean_gap_w": float(np.mean(gap_running)),
        "rms_gap_w": float(np.sqrt(np.mean(gap_running**2))),
        "overdraw_fraction": float(np.mean(gap_running < 0.0)),
    }

