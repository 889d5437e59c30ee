"""Voltage-monitoring hardware substrate (paper Fig. 9).

Models the external low-power circuitry that generates the ``V_high`` /
``V_low`` interrupts: the MCP4131 digital potentiometer, the comparator, and
the dual-channel :class:`VoltageMonitor` (one divider-plus-comparator channel
per threshold) that the system simulator samples each step.
"""

from .comparator import Comparator, LT6703_REFERENCE_V
from .potentiometer import (
    DigitalPotentiometer,
    MCP4131_FULL_SCALE_OHM,
    MCP4131_TAPS,
)
from .monitor import (
    MONITOR_POWER_W,
    ThresholdChannel,
    ThresholdCrossing,
    VoltageMonitor,
)

__all__ = [
    "Comparator",
    "LT6703_REFERENCE_V",
    "DigitalPotentiometer",
    "MCP4131_FULL_SCALE_OHM",
    "MCP4131_TAPS",
    "MONITOR_POWER_W",
    "ThresholdChannel",
    "ThresholdCrossing",
    "VoltageMonitor",
    ]
