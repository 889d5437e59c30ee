"""Golden numerics of the exact path (``build_system(config, fast=False)``).

The exact path runs the simulator loop with a supply that solves the
single-diode equation (Lambert-W) on every call.  ``tests/data/
exact_engine_golden.json`` pins what it produced on a handful of short
scenarios — scalar outcomes, the event kind sequence and per-series sums and
lengths — so a refactor of the loop or of the supply cannot silently move
the exact numbers.  Regenerate the file only for an intended numerical
change::

    PYTHONPATH=src python tests/test_exact_engine_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from repro.sim.result import ARRAY_FIELDS, SCALAR_FIELDS
from repro.sweep.build import build_system
from repro.sweep.spec import ScenarioConfig

GOLDEN = Path(__file__).parent / "data" / "exact_engine_golden.json"

#: name -> (scenario config, extra SimulationConfig overrides)
CASES = {
    "pv-power-neutral": (
        {"governor": "power-neutral", "supply": "pv-array", "duration_s": 4.0},
        {},
    ),
    "pv-ondemand": (
        {"governor": "ondemand", "supply": "pv-array", "duration_s": 3.0},
        {},
    ),
    "controlled-voltage-fig11": (
        {"governor": "power-neutral-fig11", "supply": "controlled-voltage", "duration_s": 5.0},
        {},
    ),
    "constant-power-ondemand": (
        {
            "governor": "ondemand",
            "supply": {"kind": "constant-power", "power_w": 2.5},
            "duration_s": 5.0,
        },
        {},
    ),
    "constant-power-brownout-stop": (
        {
            "governor": "performance",
            "supply": {"kind": "constant-power", "power_w": 0.5},
            "duration_s": 5.0,
        },
        {"stop_on_brownout": True},
    ),
}


def capture(name: str) -> dict:
    """Run one case on the exact path and reduce it to comparable numbers."""
    config, overrides = CASES[name]
    result = build_system(ScenarioConfig.from_dict(config), fast=False, **overrides).run()
    return {
        "scalars": {field: getattr(result, field) for field in SCALAR_FIELDS},
        "event_kinds": [event.kind for event in result.events],
        "series": {
            field: {
                "len": len(getattr(result, field)),
                "sum": float(getattr(result, field).sum()),
                "dtype_kind": getattr(result, field).dtype.kind,
            }
            for field in ARRAY_FIELDS
        },
    }


def _assert_close(actual, expected, what):
    if isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), what
    else:
        assert actual == expected, what


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_path_matches_golden(name, golden):
    expected = golden[name]
    actual = capture(name)
    for field, value in expected["scalars"].items():
        _assert_close(actual["scalars"][field], value, field)
    assert actual["event_kinds"] == expected["event_kinds"]
    for field, stats in expected["series"].items():
        got = actual["series"][field]
        assert got["len"] == stats["len"], field
        assert got["dtype_kind"] == stats["dtype_kind"], field
        _assert_close(got["sum"], stats["sum"], field)


def test_brownout_case_stops_at_the_first_brownout(golden):
    case = golden["constant-power-brownout-stop"]
    assert case["scalars"]["brownout_count"] == 1
    assert case["event_kinds"][-1] == "brownout"
    assert case["scalars"]["duration_s"] < CASES["constant-power-brownout-stop"][0]["duration_s"]
    assert math.isclose(case["scalars"]["duration_s"], case["scalars"]["first_brownout_time"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: capture(name) for name in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
