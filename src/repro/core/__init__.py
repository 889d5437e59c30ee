"""The paper's contribution: the power-neutral performance-scaling governor.

Contains the controller parameters (Section II-A), the dynamic dual-threshold
tracker (eq. 1), the linear DVFS policy and derivative hot-plugging policy
(Section II-B, eq. 2-3), the :class:`PowerNeutralGovernor` tying them together
(Fig. 5), the Section III parameter-tuning methodology and the Table I buffer
capacitance sizing.
"""

from .parameters import (
    ControllerParameters,
    FIG6_PARAMETERS,
    FIG11_PARAMETERS,
    PAPER_TUNED_PARAMETERS,
)
from .thresholds import ThresholdTracker
from .dvfs_policy import LinearDVFSPolicy
from .hotplug_policy import CoreScalingResponse, DerivativeHotplugPolicy
from .governor import PowerNeutralGovernor
from .capacitor_sizing import (
    TransitionCost,
    TransitionOrdering,
    required_buffer_capacitance,
    table1,
    worst_case_transition_cost,
)
from .tuning import (
    TuningResult,
    TuningScenario,
    evaluate_parameters,
    grid_search,
)

__all__ = [
    "ControllerParameters",
    "FIG6_PARAMETERS",
    "FIG11_PARAMETERS",
    "PAPER_TUNED_PARAMETERS",
    "ThresholdTracker",
    "LinearDVFSPolicy",
    "CoreScalingResponse",
    "DerivativeHotplugPolicy",
    "PowerNeutralGovernor",
    "TransitionCost",
    "TransitionOrdering",
    "required_buffer_capacitance",
    "table1",
    "worst_case_transition_cost",
    "TuningResult",
    "TuningScenario",
    "evaluate_parameters",
    "grid_search",
]
