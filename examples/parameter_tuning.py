#!/usr/bin/env python3
"""Parameter tuning: reproduce the Section III methodology.

The paper selects V_width, V_q, alpha and beta by simulating the closed loop
under a sudden-shadowing scenario and scoring each candidate by the fraction
of time the supply voltage stays within 5 % of the target.  This example runs
a small grid search around the paper's tuned values and prints the ranked
candidates.

Run with:  python examples/parameter_tuning.py
"""

from repro.analysis.reporting import format_table
from repro.core.parameters import PAPER_TUNED_PARAMETERS
from repro.core.tuning import TuningScenario, evaluate_parameters, grid_search
from repro.soc.exynos5422 import build_exynos5422_platform


def main() -> None:
    scenario = TuningScenario(platform_factory=build_exynos5422_platform, duration_s=24.0)

    print("Scoring the paper's tuned parameters (144 mV, 47.9 mV, 0.120 V/s, 0.479 V/s)...")
    reference = evaluate_parameters(PAPER_TUNED_PARAMETERS, scenario)
    print(format_table([reference.as_dict()], title="paper-tuned parameters"))
    print()

    print("Grid search around the tuned values...")
    grid = grid_search(
        scenario,
        v_width_values=(0.10, 0.144, 0.20, 0.30),
        v_q_values=(0.03, 0.0479, 0.08),
        alpha_values=(0.120,),
        beta_values=(0.479,),
    )
    print(format_table([r.as_dict() for r in grid[:6]], title="top grid candidates"))


if __name__ == "__main__":
    main()
