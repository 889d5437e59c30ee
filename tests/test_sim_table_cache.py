"""The process-level I-V table cache (``repro.sim.supplies.shared_iv_table``).

Fast-mode :class:`PVArraySupply` instances share one read-only
:class:`IVSurfaceTable` per content key — cell parameters, topology, exact
``g_max`` and grid settings — so a campaign tabulates each weather once per
process.  These tests pin the key, the LRU bound, what is never cached, and
that a cache hit changes no simulated value.
"""

import sys
import threading

import numpy as np
import pytest

from repro.energy.irradiance import constant_irradiance
from repro.energy.pv_array import PVArray, paper_pv_array
from repro.sim.result import ARRAY_FIELDS, SCALAR_FIELDS
from repro.sim.supplies import TABLE_CACHE_SIZE, IVSurfaceTable, PVArraySupply, shared_iv_table
from repro.sweep import build_preset
from repro.sweep.build import build_system

#: A coarse grid keeps each build cheap; the cache does not care about size.
SMALL_GRID = {"table_voltage_points": 65, "table_irradiance_points": 33, "table_rel_tol": 2e-2}


@pytest.fixture(autouse=True)
def empty_cache():
    shared_iv_table.cache_clear()
    yield
    shared_iv_table.cache_clear()


def supply(array=None, irradiance=800.0, **grid):
    trace = constant_irradiance(irradiance, duration=10.0, dt=1.0)
    return PVArraySupply(array or paper_pv_array(), trace, **{**SMALL_GRID, **grid})


def test_same_key_returns_the_same_table():
    first, second = supply(), supply()
    assert first.iv_table is second.iv_table
    info = shared_iv_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # Both the lookup path and the fused step closure read the shared table.
    fn = second.step_current_fn()
    assert fn(5.0, 1.0) == first.iv_table.current(5.0, 800.0)


@pytest.mark.parametrize(
    "variant",
    [
        {"irradiance": 700.0},  # g_max
        {"table_rel_tol": 1e-2},
        {"table_voltage_points": 97},
        {"table_irradiance_points": 65},
        {"array": paper_pv_array(temperature_k=310.0)},
        {"array": PVArray(paper_pv_array().cell.parameters, cells_in_series=9)},
    ],
    ids=["g_max", "rel_tol", "voltage_points", "irradiance_points", "temperature", "topology"],
)
def test_any_key_part_builds_a_new_table(variant):
    base = supply().iv_table
    changed = supply(**variant)
    table = changed.iv_table
    assert table is not base
    assert shared_iv_table.cache_info().misses == 2
    direct = IVSurfaceTable(
        changed.array,
        changed._g_max,
        changed._table_voltage_points,
        changed._table_irradiance_points,
        changed._table_rel_tol,
    )
    assert table._rows == direct._rows
    assert table._mpp_row == direct._mpp_row
    assert table.max_rel_error == direct.max_rel_error


def test_lru_eviction_holds_the_bound():
    irradiances = [300.0 + 50.0 * i for i in range(TABLE_CACHE_SIZE + 2)]
    tables = [supply(irradiance=g).iv_table for g in irradiances]
    assert shared_iv_table.cache_info().currsize == TABLE_CACHE_SIZE
    # The most recent key is still shared; the oldest was evicted and rebuilt.
    assert supply(irradiance=irradiances[-1]).iv_table is tables[-1]
    assert supply(irradiance=irradiances[0]).iv_table is not tables[0]
    assert shared_iv_table.cache_info().currsize == TABLE_CACHE_SIZE


def test_failing_build_is_not_cached():
    unreachable = {"table_voltage_points": 3, "table_irradiance_points": 3, "table_rel_tol": 1e-9}
    for _ in range(2):
        with pytest.raises(ValueError, match="use exact=True"):
            supply(**unreachable).current(5.0, 0.0)
    info = shared_iv_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


def test_exact_mode_leaves_the_cache_untouched():
    exact = supply(exact=True)
    exact.current(5.0, 1.0)
    exact.step_current_fn()(5.0, 1.0)
    exact.available_power(1.0)
    exact.open_circuit_voltage(1.0)
    assert exact.iv_table is None
    config = {"governor": "power-neutral", "supply": "pv-array", "duration_s": 2.0}
    built = build_system(config, fast=False)
    built.run()
    assert built.simulation.supply._table is None
    info = shared_iv_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


def test_array_subclass_tables_are_not_shared():
    class Dimmed(PVArray):
        def current_surface(self, voltages, irradiances):
            return 0.5 * super().current_surface(voltages, irradiances)

    params = paper_pv_array().cell.parameters
    first = supply(array=Dimmed(params, cells_in_series=10)).iv_table
    second = supply(array=Dimmed(params, cells_in_series=10)).iv_table
    assert first is not second
    assert shared_iv_table.cache_info().currsize == 0


def test_concurrent_lookups_share_correct_tables_within_the_bound():
    """Threads hammering more keys than the bound, with evictions racing
    lookups, always get the table of the key they asked for."""
    irradiances = [400.0 + 100.0 * i for i in range(TABLE_CACHE_SIZE + 1)]
    expected = {g: supply(irradiance=g).iv_table._rows for g in irradiances}
    shared_iv_table.cache_clear()
    failures = []

    def worker(offset):
        for i in range(6):
            g = irradiances[(offset + i) % len(irradiances)]
            if supply(irradiance=g).iv_table._rows != expected[g]:
                failures.append(g)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert shared_iv_table.cache_info().currsize <= TABLE_CACHE_SIZE


def test_blocked_tabulation_equals_the_one_shot_solve():
    """Row blocks (and the midpoint error's block seams) change no value."""
    array = paper_pv_array()
    table = IVSurfaceTable(array, 700.0, voltage_points=150, irradiance_points=40, rel_tol=0.5)
    voltages = np.linspace(0.0, table.v_max, 150)
    irradiances = np.linspace(0.0, table.g_max, 40)
    surface = array.current_surface(voltages, irradiances)
    assert table._rows == surface.tolist()
    exact = array.current_surface(
        0.5 * (voltages[:-1] + voltages[1:]), 0.5 * (irradiances[:-1] + irradiances[1:])
    )
    interp = 0.25 * (
        surface[:-1, :-1] + surface[1:, :-1] + surface[:-1, 1:] + surface[1:, 1:]
    )
    assert table.max_rel_error == float(np.max(np.abs(interp - exact))) / float(np.max(surface))


def assert_identical(a, b):
    for name in ARRAY_FIELDS:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in SCALAR_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.events == b.events


def test_cache_hit_gives_an_identical_simulation_result():
    config = next(
        c
        for c in build_preset("table2-pv", duration_s=20.0).scenarios()
        if c.weather == "cloud" and c.governor.kind == "power-neutral"
    )
    first = build_system(config)
    first_result = first.run()
    hit = build_system(config)
    hit_result = hit.run()
    assert hit.simulation.supply.iv_table is first.simulation.supply.iv_table
    assert shared_iv_table.cache_info().hits >= 1

    shared_iv_table.cache_clear()
    fresh = build_system(config)
    fresh_result = fresh.run()
    assert fresh.simulation.supply.iv_table is not first.simulation.supply.iv_table
    assert_identical(hit_result, fresh_result)
    assert_identical(first_result, fresh_result)
