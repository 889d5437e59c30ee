"""Sweep expansion against a per-cell reference, and its work counts.

``SweepSpec.iter_scenarios`` shares axis prefixes and canonicalises each
distinct component once; ``ScenarioConfig.with_value`` re-canonicalises only
the component it replaces.  The reference below is the straightforward form
of both: every cell rebuilt from ``base`` through ``itertools.product``, with
a full ``ScenarioConfig(**fields)`` construction per axis step.  The two must
agree on every scenario id, campaign hash and error, and each cell's
``canonical_json()`` must equal a plain ``json.dumps`` of its ``to_dict()``.
"""

import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.registry import ComponentSpec, Registry
from repro.sweep.components import GOVERNORS
from repro.serve.scheduler import parse_submission
from repro.sweep.presets import build_preset, preset_names
from repro.sweep.spec import (
    _COMPONENT_REGISTRIES,
    _SCALAR_FIELDS,
    Axis,
    ScenarioConfig,
    ShadowSpec,
    SweepSpec,
    _switch_kind,
    campaign_hash_of,
    resolve_axis_path,
)

FIELDS = (
    "governor",
    "supply",
    "platform",
    "capacitor",
    "workload",
    "duration_s",
    "monitor_quantised",
)

PV_GOVERNORS = (
    "performance",
    "ondemand",
    "interactive",
    "conservative",
    "powersave",
    "single-core-dfs",
    "solartune",
    "power-neutral",
)


# ----------------------------------------------------------------------
# The reference expansion
# ----------------------------------------------------------------------
def reference_with_value(config: ScenarioConfig, path: str, value) -> ScenarioConfig:
    """One axis step as a full rebuild: every component re-canonicalised."""
    path = resolve_axis_path(path)
    head, _, sub = path.partition(".")
    fields = {name: getattr(config, name) for name in FIELDS}
    if head in _SCALAR_FIELDS:
        fields[head] = value
    else:
        spec = fields[head]
        registry = _COMPONENT_REGISTRIES[head]
        if not sub:
            if isinstance(value, str):
                fields[head] = _switch_kind(spec, value, registry)
            else:
                fields[head] = ComponentSpec.coerce(value)
        elif sub == "params":
            fields[head] = ComponentSpec(kind=spec.kind, params=dict(value or {}))
        else:
            fields[head] = spec.with_params(**{sub: value})
    return ScenarioConfig(**fields)


def reference_iter(spec: SweepSpec):
    if not spec.axes:
        yield spec.base
        return
    for combo in itertools.product(*(axis.values for axis in spec.axes)):
        config = spec.base
        for axis, value in zip(spec.axes, combo):
            config = reference_with_value(config, axis.name, value)
        yield config


def reference_ids(spec: SweepSpec) -> list[str]:
    unique: dict[str, None] = {}
    for config in reference_iter(spec):
        unique.setdefault(config.scenario_id, None)
    return list(unique)


def plain_json(config: ScenarioConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


def assert_expands_like_reference(spec: SweepSpec) -> None:
    configs = spec.scenarios()
    expected = list(reference_iter(spec))
    assert len(configs) == len(expected) == len(spec)
    assert [c.canonical_json() for c in configs] == [plain_json(c) for c in expected]
    assert configs == expected
    ids = reference_ids(spec)
    assert spec.scenario_ids() == ids
    assert spec.campaign_hash() == campaign_hash_of(ids)


def first_error(iterator) -> tuple[int, str]:
    """How many cells an expansion yields before it raises, and the message."""
    count = 0
    with pytest.raises(ValueError) as err:
        for _config in iterator:
            count += 1
    return count, str(err.value)


def big_grid() -> SweepSpec:
    """The 8 governors × 3 weathers × 5 capacitances × 5 seeds grid."""
    return SweepSpec.grid(
        governors=list(PV_GOVERNORS),
        weather=["full_sun", "partial_sun", "cloud"],
        capacitances_f=[0.01, 0.022, 0.047, 0.068, 0.1],
        seeds=[1, 2, 3, 4, 5],
    )


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", preset_names())
def test_presets_expand_like_reference(name):
    assert_expands_like_reference(build_preset(name))


def test_preset_campaign_hashes_are_pinned():
    assert {name: build_preset(name).campaign_hash() for name in preset_names()} == {
        "constant-power-survival": "2a652de17549e187",
        "dist-smoke": "9d0bcbc65fdd580d",
        "fig11-governors": "ecb67e9ad89ad719",
        "table2-pv": "dba874c821e9ffb0",
        "table2-shootout": "d2703d4e87b598ec",
    }


BRANCH_SPECS = {
    "no-axes": SweepSpec(base=ScenarioConfig(governor="power-neutral")),
    "scalar-duration": SweepSpec(
        base=ScenarioConfig(governor="power-neutral", weather="cloud"),
        axes=(Axis("duration_s", [30, 60.0, 90.5]), Axis("monitor_quantised", [True, False])),
    ),
    "whole-supply-kind-hops": SweepSpec(
        base=ScenarioConfig(
            governor="power-neutral",
            weather="partial_sun",
            seed=3,
            shadowing=(ShadowSpec(start_s=5.0, duration_s=2.0),),
        ),
        axes=(
            Axis(
                "supply",
                [
                    "constant-power",
                    {"kind": "pv-array", "weather": "cloud"},
                    {"kind": "constant-power", "power_w": 4.5},
                    "pv-array",
                ],
            ),
            Axis("capacitance_f", [0.022, 0.047]),
        ),
    ),
    "governor-kind-switch-carries-overrides": SweepSpec(
        base=ScenarioConfig(
            governor={"kind": "power-neutral", "v_q": 0.06, "alpha": 0.2},
        ),
        axes=(
            Axis("governor.kind", ["power-neutral", "performance", "solartune"]),
            Axis("supply.weather", ["full_sun", "cloud"]),
        ),
    ),
    "governor-params": SweepSpec(
        base=ScenarioConfig(governor="power-neutral"),
        axes=(
            Axis("governor.params", [{}, {"v_q": 0.05}, {"v_q": 0.05, "alpha": 0.3}, None]),
            Axis("seed", [1, 2]),
        ),
    ),
    "capacitance-path": SweepSpec(
        base=ScenarioConfig(
            governor="powersave", supply={"kind": "constant-power", "power_w": 2.0}
        ),
        axes=(
            Axis("capacitor.capacitance_f", [0.01, 0.047, 0.1]),
            Axis("supply.power_w", [1.5, 3]),
        ),
    ),
    "duplicate-cells": SweepSpec(
        base=ScenarioConfig(governor="power-neutral"),
        axes=(
            Axis("governor", ["performance", "performance", "powersave"]),
            Axis("capacitance_f", [0.047, 47e-3, 0.01]),
            Axis("supply.seed", [7, 7.0]),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(BRANCH_SPECS))
def test_with_value_branches_expand_like_reference(name):
    assert_expands_like_reference(BRANCH_SPECS[name])


def test_duplicate_cells_spec_collapses_cells():
    spec = BRANCH_SPECS["duplicate-cells"]
    assert len(spec) == 18
    assert len(spec.scenario_ids()) == 4  # 2 distinct governors x 2 capacitances


def test_big_grid_expands_like_reference():
    assert_expands_like_reference(big_grid())


INVALID_SPECS = {
    "capacitance-not-positive": SweepSpec(
        base=ScenarioConfig(governor="power-neutral"),
        axes=(
            Axis("governor", ["performance", "powersave"]),
            Axis("capacitor.capacitance_f", [0.047, 0.0]),
            Axis("seed", [1, 2]),
        ),
    ),
    "unknown-param-on-closed-kind": SweepSpec(
        base=ScenarioConfig(governor="power-neutral"),
        axes=(
            Axis("seed", [1, 2]),
            Axis("supply", ["pv-array", {"kind": "constant-power", "bogus": 1.0}]),
        ),
    ),
    "duration-not-positive": SweepSpec(
        base=ScenarioConfig(governor="power-neutral"),
        axes=(
            Axis("capacitance_f", [0.01, 0.02]),
            Axis("duration_s", [10, -5]),
        ),
    ),
}


@pytest.mark.parametrize(
    "name, good_cells, message",
    [
        ("capacitance-not-positive", 2, "capacitance_f must be positive"),
        ("unknown-param-on-closed-kind", 1, "unknown parameter(s) bogus"),
        ("duration-not-positive", 1, "duration_s must be positive"),
    ],
)
def test_invalid_cells_raise_like_reference(name, good_cells, message):
    spec = INVALID_SPECS[name]
    got = first_error(spec.iter_scenarios())
    assert got == first_error(reference_iter(spec))
    assert got[0] == good_cells
    assert message in got[1]


# ----------------------------------------------------------------------
# Random grids: duplicate values, and ``True``/``1`` spellings that are
# equal in Python but are distinct parameter values
# ----------------------------------------------------------------------
BAD_VALUES = {
    "governor": "no-such-governor",
    "capacitor.capacitance_f": -1.0,
    "duration_s": -1.0,
    "supply.weather": "no-such-weather",
    "supply.power_w": -1.0,
}


@st.composite
def sweep_grids(draw):
    """One to four axes, in random order, over one rig's sweepable paths."""

    def values(elements):
        return st.lists(elements, min_size=1, max_size=3)

    axes = {
        "governor": values(st.sampled_from(GOVERNORS.names())),
        "governor.params": values(
            st.sampled_from([{}, {"v_q": True}, {"v_q": 1}, {"v_q": 1.0}, {"v_q": 0.05}])
        ),
        "capacitor.capacitance_f": values(st.sampled_from([0.0154, 0.047, 0.047, 0.1])),
        "duration_s": values(st.sampled_from([10, 10.0, 12.5])),
    }
    if draw(st.booleans()):
        base = ScenarioConfig(governor="power-neutral", duration_s=20.0)
        axes["supply.weather"] = values(st.sampled_from(["full_sun", "partial_sun", "cloud"]))
        axes["supply.seed"] = values(st.integers(1, 4))
    else:
        base = ScenarioConfig(
            governor="power-neutral", supply={"kind": "constant-power"}, duration_s=20.0
        )
        axes["supply.power_w"] = values(st.sampled_from([2, 2.0, 4.5, 6]))
    names = draw(st.permutations(sorted(axes)))[: draw(st.integers(1, 4))]
    return SweepSpec(base=base, axes=tuple(Axis(n, draw(axes[n])) for n in names))


@given(spec=sweep_grids())
@settings(max_examples=60, deadline=None)
def test_random_grids_expand_like_reference(spec):
    assert_expands_like_reference(spec)


@given(spec=sweep_grids(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_invalid_value_raises_like_reference(spec, data):
    depths = [i for i, axis in enumerate(spec.axes) if axis.name in BAD_VALUES]
    assume(depths)
    depth = data.draw(st.sampled_from(depths))
    axis = spec.axes[depth]
    values = list(axis.values)
    values.insert(data.draw(st.integers(0, len(values))), BAD_VALUES[axis.name])
    axes = list(spec.axes)
    axes[depth] = Axis(axis.name, values)
    spec = SweepSpec(base=spec.base, axes=tuple(axes))
    assert first_error(spec.iter_scenarios()) == first_error(reference_iter(spec))


# ----------------------------------------------------------------------
# Work counts (deterministic, unlike wall time)
# ----------------------------------------------------------------------
def test_parse_submission_expands_once_with_bounded_canonical_calls(monkeypatch):
    payload = {"kind": "sweep", "spec": big_grid().to_dict()}
    calls = {"canonical": 0, "scenarios": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Registry, "canonical", counting("canonical", Registry.canonical))
    monkeypatch.setattr(SweepSpec, "scenarios", counting("scenarios", SweepSpec.scenarios))
    kind, _snapshot, campaign_id, ids = parse_submission(payload)
    assert kind == "sweep" and len(ids) == 600
    assert calls["scenarios"] == 1
    # 5 for the base config, then one per distinct component an axis makes:
    # 8 governors, 3 weathers, 5 capacitors, 3 x 5 (weather, seed) supplies.
    assert calls["canonical"] == 5 + 8 + 3 + 5 + 15
    monkeypatch.undo()
    assert campaign_id == big_grid().campaign_hash()


# ----------------------------------------------------------------------
# with_value never inherits its parent's cached id
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path, value", [("duration_s", 120.0), ("capacitor.capacitance_f", 0.022)]
)
def test_with_value_does_not_inherit_cached_scenario_id(path, value):
    base = ScenarioConfig(governor="power-neutral", weather="cloud")
    base_id = base.scenario_id  # cache it on the parent first
    changed = base.with_value(path, value)
    assert changed.scenario_id != base_id
    rebuilt = ScenarioConfig.from_dict(changed.to_dict())
    assert changed == rebuilt
    assert hash(changed) == hash(rebuilt)
    assert changed.scenario_id == rebuilt.scenario_id
    assert base.scenario_id == base_id
