"""Tests for the Section III parameter-tuning methodology."""

import pytest

from repro.core.parameters import PAPER_TUNED_PARAMETERS, ControllerParameters
from repro.core.tuning import TuningScenario, evaluate_parameters, grid_search
from repro.soc.exynos5422 import build_exynos5422_platform


@pytest.fixture(scope="module")
def scenario() -> TuningScenario:
    # A short scenario keeps the sweep fast while still exercising the
    # shadowing transient the paper tunes against.
    return TuningScenario(platform_factory=build_exynos5422_platform, duration_s=12.0)


class TestEvaluateParameters:
    def test_paper_parameters_score_well(self, scenario):
        result = evaluate_parameters(PAPER_TUNED_PARAMETERS, scenario)
        assert result.survived
        assert result.fraction_within > 0.5
        assert result.instructions > 0
        assert result.score == result.fraction_within

    def test_result_dict_fields(self, scenario):
        result = evaluate_parameters(PAPER_TUNED_PARAMETERS, scenario)
        d = result.as_dict()
        assert d["v_width_mv"] == pytest.approx(144.0)
        assert d["v_q_mv"] == pytest.approx(47.9)
        assert 0.0 <= d["fraction_within"] <= 1.0

    def test_brownout_penalises_score(self):
        result_like = evaluate_parameters.__wrapped__ if hasattr(evaluate_parameters, "__wrapped__") else None
        # Direct check of the scoring rule via the dataclass.
        from repro.core.tuning import TuningResult

        bad = TuningResult(PAPER_TUNED_PARAMETERS, fraction_within=0.9, survived=False, brownouts=1, instructions=0)
        good = TuningResult(PAPER_TUNED_PARAMETERS, fraction_within=0.4, survived=True, brownouts=0, instructions=0)
        assert good.score > bad.score


class TestSearches:
    def test_grid_search_skips_invalid_combinations_and_sorts(self, scenario):
        results = grid_search(
            scenario,
            v_width_values=[0.144],
            v_q_values=[0.0479],
            alpha_values=[0.12, 0.5],
            beta_values=[0.3],
        )
        # alpha=0.5 with beta=0.3 is invalid and must be skipped.
        assert len(results) == 1
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
