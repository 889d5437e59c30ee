"""Tabulated vs exact supply parity suite.

Covers the layers of the fast path:

* the tabulated bilinear I-V surface against the exact Lambert-W solve
  (grid parity within the declared tolerance, ``exact=True`` bypass),
* the vectorised building blocks it rests on (``current_array``,
  ``open_circuit_voltage_array``, ``TraceCursor``),
* the simulator end-to-end with the tabulated supply against the same loop
  with the exact (Lambert-W) supply on the Table II seed scenarios (summary
  metrics within 1%, brown-out counts exactly equal).
"""

import numpy as np
import pytest

from repro.energy.irradiance import constant_irradiance
from repro.energy.pv_array import paper_pv_array
from repro.energy.traces import Trace, TraceCursor
from repro.sim.result import ARRAY_FIELDS, SCALAR_FIELDS
from repro.sim.supplies import ConstantPowerSupply, PVArraySupply
from repro.soc.cores import CoreConfig
from repro.soc.exynos5422 import build_exynos5422_platform
from repro.soc.opp import GHZ, OperatingPoint
from repro.sweep.build import build_system
from repro.sweep.presets import table2_pv_preset
from repro.sweep.spec import ScenarioConfig


# ----------------------------------------------------------------------
# Tabulated I-V surface
# ----------------------------------------------------------------------
class TestIVSurfaceTable:
    @pytest.fixture(scope="class")
    def supply(self):
        return PVArraySupply(paper_pv_array(), constant_irradiance(1000.0, duration=30.0, dt=1.0))

    def test_grid_parity_within_declared_tolerance(self, supply):
        """Tabulated currents match the exact solve over a dense
        (irradiance x voltage) probe grid, within the declared full-scale
        tolerance."""
        array = paper_pv_array()
        table = supply.iv_table
        assert table is not None
        assert table.max_rel_error <= 5e-3  # the declared construction bound
        full_scale = array.short_circuit_current(1000.0)
        rng = np.random.default_rng(42)
        voltages = rng.uniform(0.0, 7.3, size=400)
        irradiances = rng.uniform(0.0, 1000.0, size=400)
        for v, g in zip(voltages, irradiances):
            exact = array.current(float(v), float(g))
            fast = table.current(float(v), float(g))
            assert abs(fast - exact) <= table.max_rel_error * full_scale * 1.05

    def test_lookup_clamps_to_grid_edges(self, supply):
        table = supply.iv_table
        # Beyond open-circuit voltage the clipped current is zero.
        assert table.current(9.5, 1000.0) == pytest.approx(0.0, abs=1e-9)
        # Negative voltage clamps onto the short-circuit row.
        isc = paper_pv_array().short_circuit_current(1000.0)
        assert table.current(-0.2, 1000.0) == pytest.approx(isc, rel=5e-3)
        # Irradiance beyond the trace maximum clamps onto the brightest column.
        assert table.current(3.0, 2000.0) == pytest.approx(table.current(3.0, 1000.0))

    def test_table2_pv_grids_pinned(self):
        """The preset's tables keep their refinement decisions: a solver
        change that flipped one would move records by the table's full
        error, not by rounding."""
        grids = {}
        for config in table2_pv_preset().scenarios():
            weather = dict(config.supply.params)["weather"]
            if weather not in grids:
                table = build_system(config).simulation.supply.iv_table
                grids[weather] = (table._nv, table._ng)
        assert grids == {
            "full_sun": (385, 257),
            "partial_sun": (385, 257),
            "cloud": (769, 513),
        }

    def test_exact_true_bypasses_tabulation(self):
        supply = PVArraySupply(
            paper_pv_array(), constant_irradiance(800.0, duration=10.0), exact=True
        )
        assert supply.iv_table is None
        assert supply.current(5.0, 1.0) == paper_pv_array().current(5.0, 800.0)

    def test_toggling_exact_builds_table_lazily(self):
        supply = PVArraySupply(
            paper_pv_array(), constant_irradiance(800.0, duration=10.0), exact=True
        )
        supply.exact = False
        assert supply.iv_table is not None
        assert supply.current(5.0, 1.0) == pytest.approx(
            paper_pv_array().current(5.0, 800.0), rel=2e-2
        )

    def test_unreachable_tolerance_raises_at_table_build(self):
        supply = PVArraySupply(
            paper_pv_array(),
            constant_irradiance(1000.0, duration=10.0),
            table_voltage_points=3,
            table_irradiance_points=3,
            table_rel_tol=1e-9,
        )
        # The table is lazy: the failure surfaces at the first fast lookup
        # (before any interpolated current is ever answered).
        with pytest.raises(ValueError, match="use exact=True"):
            supply.current(5.0, 0.0)

    def test_step_current_fn_matches_current(self, supply):
        fn = supply.step_current_fn()
        for v, t in ((5.1, 0.0), (5.2, 3.0), (4.9, 3.0), (6.5, 12.0), (0.1, 29.0)):
            assert fn(v, t) == pytest.approx(supply.current(v, t), rel=1e-12, abs=1e-15)

    def test_step_current_fn_clamps_before_trace_start(self):
        # Regression: a trace recorded mid-day starts at t > 0; lookups in
        # the pre-trace prefix must clamp to the first sample (like
        # Trace.value_at), not linearly extrapolate into darkness.
        from repro.energy.traces import IrradianceTrace

        trace = IrradianceTrace(times=[100.0, 200.0], values=[800.0, 900.0])
        supply = PVArraySupply(paper_pv_array(), trace)
        fn = supply.step_current_fn()
        assert fn(5.0, 0.0) == pytest.approx(supply.current(5.0, 0.0), rel=1e-12)
        assert fn(5.0, 150.0) == pytest.approx(supply.current(5.0, 150.0), rel=1e-12)
        # Exactly on a sample instant, after having advanced past it.
        assert fn(5.0, 200.0) == pytest.approx(supply.current(5.0, 200.0), rel=1e-12)
        assert fn(5.0, 100.0) == pytest.approx(supply.current(5.0, 100.0), rel=1e-12)

    def test_step_current_fn_exact_mode(self):
        supply = PVArraySupply(
            paper_pv_array(), constant_irradiance(700.0, duration=10.0), exact=True
        )
        fn = supply.step_current_fn()
        assert fn(5.0, 2.0) == supply.current(5.0, 2.0)

    def test_exact_mode_samples_irradiance_like_value_at(self):
        # Exact mode samples the trace through a cursor; over a forward walk
        # with one backward jump it must agree with random-access value_at.
        from repro.energy.irradiance import IrradianceGenerator

        trace = IrradianceGenerator(seed=7).generate(
            t_start=37_800.0, duration=60.0, weather="cloud"
        )
        array = paper_pv_array()
        supply = PVArraySupply(array, trace, exact=True)
        fn = supply.step_current_fn()
        ts = list(37_800.0 + np.arange(0.0, 30.0, 0.37))
        ts += list(37_800.0 + np.arange(10.0, 61.0, 0.53))  # backward jump
        for k, t in enumerate(ts):
            t = float(t)
            v = 4.5 + 1.5 * np.sin(0.3 * k)
            expected = array.current(v, trace.value_at(t))
            assert fn(v, t) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert supply.current(v, t) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_constant_power_step_current_fn(self):
        supply = ConstantPowerSupply(Trace(times=[0.0, 10.0], values=[3.0, 1.0]))
        fn = supply.step_current_fn()
        for v, t in ((5.0, 0.0), (5.5, 5.0), (0.2, 9.0), (7.0, 2.0)):
            assert fn(v, t) == pytest.approx(supply.current(v, t))


# ----------------------------------------------------------------------
# Flat constant-power closure
# ----------------------------------------------------------------------
#: Voltages on both sides of the 6.5 V limit and of the 0.5 V floor.
PROBE_VOLTAGES = (0.0, 0.2, 0.5, np.nextafter(0.5, 1.0), 3.3, 6.4999999, 6.5, 7.0)


class TestFlatConstantPowerClosure:
    """A flat power trace takes a closure that skips the trace cursor; it
    must answer exactly what the cursor path (``current``) answers."""

    @pytest.mark.parametrize(
        "times",
        [[10.0, 20.0], [0.0, 5.0, 5.0, 10.0], [3.0]],
        ids=["two-point", "repeated-instant", "one-point"],
    )
    @pytest.mark.parametrize("power", [5.0, 0.3, 7.123456789])
    def test_flat_closure_equals_the_cursor_path(self, times, power):
        supply = ConstantPowerSupply(Trace(times=times, values=[power] * len(times)))
        fn = supply.step_current_fn()
        assert fn.__name__ == "flat_current"
        # Before the start, on every sample instant, inside, past the end.
        instants = sorted({0.0, *times, times[0] + 0.37, 0.5 * (times[0] + times[-1]), 1e3})
        for t in instants:
            for v in PROBE_VOLTAGES:
                assert fn(v, t) == supply.current(v, t), (v, t)

    @pytest.mark.parametrize(
        "values",
        [[3.0, 1.0], [0.0, 0.0], [-2.0, -2.0], [np.inf, np.inf]],
        ids=["not-flat", "zero", "negative", "infinite"],
    )
    def test_other_traces_keep_the_cursor_path(self, values):
        supply = ConstantPowerSupply(Trace(times=[0.0, 10.0], values=values))
        fn = supply.step_current_fn()
        assert fn.__name__ == "fast_current"
        for t in (0.0, 4.0, 10.0, 12.0):
            for v in PROBE_VOLTAGES:
                np.testing.assert_equal(fn(v, t), supply.current(v, t))

    def test_infinite_power_keeps_the_cursors_nan(self):
        # inf - inf inside the trace is NaN on the cursor path; a constant
        # closure would answer inf instead.
        fn = ConstantPowerSupply(Trace(times=[0.0, 10.0], values=[np.inf] * 2)).step_current_fn()
        assert np.isnan(fn(5.0, 4.0))

    @pytest.mark.parametrize("governor", ["powersave", "power-neutral"])
    def test_whole_run_equals_the_cursor_path(self, governor, monkeypatch):
        config = ScenarioConfig(
            governor=governor,
            supply={"kind": "constant-power", "power_w": 5.0},
            duration_s=30.0,
        )
        flat = build_system(config)
        assert flat.simulation.supply.step_current_fn().__name__ == "flat_current"
        flat_result = flat.run()
        monkeypatch.setattr(ConstantPowerSupply, "step_current_fn", lambda self: self.current)
        cursor_result = build_system(config).run()
        for name in SCALAR_FIELDS:
            assert getattr(flat_result, name) == getattr(cursor_result, name), name
        for name in ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(flat_result, name), getattr(cursor_result, name), err_msg=name
            )
        assert flat_result.events == cursor_result.events


# ----------------------------------------------------------------------
# Vectorised building blocks
# ----------------------------------------------------------------------
class TestTabulatedAuxiliaryCurves:
    """available_power / open_circuit_voltage through the I-V surface table.

    The record-tick channels are answered from the table's 1-D MPP and Voc
    rows in fast mode (pure float operations) and must agree with both the
    exact per-irradiance solve and exact mode's ``np.interp`` cache.
    """

    def _ramp_supply(self, **kwargs) -> PVArraySupply:
        # Irradiance ramps 0 -> 1000 W/m^2 over 10 s, so lookups land between
        # grid points (a constant trace would only ever hit grid nodes).
        from repro.energy.traces import IrradianceTrace

        trace = IrradianceTrace(times=[0.0, 10.0], values=[0.0, 1000.0])
        return PVArraySupply(paper_pv_array(), trace, **kwargs)

    def test_fast_available_power_matches_exact_mpp(self):
        array = paper_pv_array()
        supply = self._ramp_supply()
        for t in (0.5, 1.0, 2.5, 5.0, 7.3, 9.9, 10.0):
            g = supply.irradiance_at(t)
            assert supply.available_power(t) == pytest.approx(
                array.power_at_mpp(g), rel=2e-2, abs=1e-3
            )
        # Zero irradiance means zero harvestable power, exactly.
        assert supply.available_power(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_fast_open_circuit_voltage_matches_exact(self):
        array = paper_pv_array()
        supply = self._ramp_supply()
        for t in (1.0, 2.5, 5.0, 7.3, 9.9, 10.0):
            g = supply.irradiance_at(t)
            assert supply.open_circuit_voltage(t) == pytest.approx(
                array.open_circuit_voltage(g), rel=2e-2
            )

    def test_fast_and_exact_modes_agree_on_record_channels(self):
        fast = self._ramp_supply()
        exact = self._ramp_supply(exact=True)
        for t in (0.0, 1.0, 3.7, 6.2, 9.5, 12.0):
            assert fast.available_power(t) == pytest.approx(
                exact.available_power(t), rel=2e-2, abs=1e-3
            )
            assert fast.open_circuit_voltage(t) == pytest.approx(
                exact.open_circuit_voltage(t), rel=2e-2, abs=1e-3
            )

    @staticmethod
    def _assert_interp_channels(supply, points=64):
        """Exact-mode channels are np.interp over the 0..g_max cache grid."""
        array = paper_pv_array()
        grid = np.linspace(0.0, 1000.0, points)
        mpp = array.mpp_power_array(grid)
        voc = array.open_circuit_voltage_array(grid)
        for t in (2.0, 8.0):
            g = supply.irradiance_at(t)
            assert supply.available_power(t) == float(np.interp(g, grid, mpp))
            assert supply.open_circuit_voltage(t) == float(np.interp(g, grid, voc))

    def test_exact_mode_keeps_the_interp_cache_path(self):
        """In exact mode the channels answer from the np.interp cache and
        never build the table."""
        supply = self._ramp_supply(exact=True)
        self._assert_interp_channels(supply)
        assert supply._table is None

    def test_exact_cache_honours_cache_points(self):
        supply = self._ramp_supply(exact=True, mpp_cache_points=9)
        self._assert_interp_channels(supply, points=9)

    def test_exact_cache_after_toggling_a_built_supply(self):
        supply = self._ramp_supply()
        supply.available_power(5.0)  # fast lookup: builds the table only
        assert supply._mpp_cache is None
        supply.exact = True
        self._assert_interp_channels(supply)
        assert supply._mpp_cache is not None

    def test_fast_scenario_never_builds_the_exact_cache(self):
        built = build_system(
            ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=2.0)
        )
        built.run()
        supply = built.simulation.supply
        assert supply._table is not None
        assert supply._mpp_cache is None

    def test_fast_channels_answer_from_the_table(self):
        supply = self._ramp_supply()
        assert supply._table is None
        power = supply.available_power(5.0)
        assert supply._table is not None  # built lazily by the first lookup
        g = supply.irradiance_at(5.0)
        assert power == supply._table.mpp_power(g)
        assert supply.open_circuit_voltage(5.0) == supply._table.open_circuit_voltage(g)

    def test_table_rows_clamp_at_grid_edges(self):
        supply = self._ramp_supply()
        table = supply.iv_table
        assert table.mpp_power(-5.0) == table.mpp_power(0.0)
        assert table.mpp_power(2000.0) == table.mpp_power(table.g_max)
        assert table.open_circuit_voltage(2000.0) == table.open_circuit_voltage(table.g_max)


class TestVectorisedSolves:
    def test_current_array_matches_scalar_loop(self):
        cell = paper_pv_array().cell
        voltages = np.linspace(-0.1, 0.9, 37)
        for g in (0.0, 4.0, 220.0, 1000.0):
            vec = cell.current_array(voltages, g)
            scalar = np.array([cell.current(float(v), g) for v in voltages])
            np.testing.assert_allclose(vec, scalar, rtol=1e-12, atol=1e-15)

    def test_current_surface_matches_scalar_grid(self):
        array = paper_pv_array()
        voltages = np.linspace(0.0, 7.2, 9)
        irradiances = np.linspace(0.0, 1000.0, 7)
        surface = array.current_surface(voltages, irradiances)
        for i, v in enumerate(voltages):
            for j, g in enumerate(irradiances):
                assert surface[i, j] == pytest.approx(
                    array.current(float(v), float(g)), rel=1e-12, abs=1e-15
                )

    def test_open_circuit_voltage_array_matches_scalar(self):
        array = paper_pv_array()
        irradiances = np.array([0.0, 15.0, 340.0, 1000.0])
        vec = array.open_circuit_voltage_array(irradiances)
        scalar = np.array([array.open_circuit_voltage(float(g)) for g in irradiances])
        np.testing.assert_allclose(vec, scalar, atol=1e-6)

    def test_mpp_power_array_matches_golden_section(self):
        array = paper_pv_array()
        irradiances = np.array([0.0, 120.0, 560.0, 1000.0])
        dense = array.mpp_power_array(irradiances)
        golden = np.array([array.power_at_mpp(float(g)) if g > 0 else 0.0 for g in irradiances])
        np.testing.assert_allclose(dense, golden, rtol=1e-3, atol=1e-9)


class TestTraceCursor:
    def test_matches_np_interp_forward_and_backward(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 100.0, size=40))
        values = rng.normal(size=40)
        trace = Trace(times=times, values=values)
        cursor = TraceCursor(trace)
        ts = list(np.linspace(-5.0, 105.0, 73))
        # Forward sweep, then deliberately out-of-order probes.
        for t in ts + [50.0, 3.0, 99.0, 0.5]:
            assert cursor.value(float(t)) == pytest.approx(trace.value_at(float(t)), abs=1e-12)

    def test_clamps_at_trace_ends(self):
        trace = Trace(times=[1.0, 2.0], values=[10.0, 20.0])
        cursor = trace.cursor()
        assert cursor.value(0.0) == 10.0
        assert cursor.value(5.0) == 20.0


# ----------------------------------------------------------------------
# Platform actuation-epoch protocol
# ----------------------------------------------------------------------
class TestActuationEpoch:
    def test_epoch_moves_exactly_at_power_events(self):
        platform = build_exynos5422_platform()
        epoch = platform.actuation_epoch

        # Idle advance above the brown-out threshold: no change.
        platform.advance(1.0, 5.3)
        assert not platform.power_changed_since(epoch)

        # An OPP request starts a transition: power changes.
        target = OperatingPoint(CoreConfig(4, 4), 1.8 * GHZ)
        latency = platform.request_opp(target, 1.0)
        assert latency > 0
        assert platform.power_changed_since(epoch)
        epoch = platform.actuation_epoch

        # In-flight advance: no change until the transition completes.
        platform.advance(1.0 + latency / 2, 5.3)
        assert not platform.power_changed_since(epoch)
        platform.advance(1.0 + latency + 1e-6, 5.3)
        assert platform.power_changed_since(epoch)
        epoch = platform.actuation_epoch

        # Brown-out, then reboot: both are power events.
        platform.advance(3.0, 3.0)
        assert not platform.running
        assert platform.power_changed_since(epoch)
        epoch = platform.actuation_epoch
        platform.advance(3.0 + platform.spec.reboot_latency_s + 1.0, 5.0)
        assert platform.running
        assert platform.power_changed_since(epoch)

    def test_noop_request_does_not_move_epoch(self):
        platform = build_exynos5422_platform()
        epoch = platform.actuation_epoch
        platform.request_opp(platform.current_opp, 0.0)
        assert platform.actuation_epoch == epoch


# ----------------------------------------------------------------------
# End-to-end engine parity on the Table II seed scenarios
# ----------------------------------------------------------------------
def _run_both(config: ScenarioConfig):
    fast = build_system(config, fast=True).run()
    exact = build_system(config, fast=False).run()
    return fast, exact


def _assert_metric_parity(fast, exact, rel=0.01):
    assert fast.brownout_count == exact.brownout_count
    for name in ("total_instructions", "harvested_energy_j", "consumed_energy_j"):
        a = float(getattr(fast, name))
        b = float(getattr(exact, name))
        assert a == pytest.approx(b, rel=rel, abs=1e-9), name


class TestEndToEndParity:
    def test_pv_interrupt_governor(self):
        config = ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=12.0)
        fast, exact = _run_both(config)
        _assert_metric_parity(fast, exact)
        assert len(fast.times) == len(exact.times)
        np.testing.assert_allclose(fast.supply_voltage, exact.supply_voltage, atol=0.05)

    def test_pv_tick_governor(self):
        config = ScenarioConfig(governor="ondemand", supply="pv-array", duration_s=12.0)
        fast, exact = _run_both(config)
        _assert_metric_parity(fast, exact)

    def test_pv_cloud_weather(self):
        # The cloud trace needs the twice-refined 769x513 table.
        config = ScenarioConfig(
            governor="power-neutral", supply="pv-array", weather="cloud", duration_s=12.0
        )
        fast, exact = _run_both(config)
        _assert_metric_parity(fast, exact)

    def test_constant_power_supply(self):
        config = ScenarioConfig(
            governor="ondemand",
            supply={"kind": "constant-power", "power_w": 2.5},
            duration_s=12.0,
        )
        fast, exact = _run_both(config)
        _assert_metric_parity(fast, exact)

    def test_controlled_voltage_series_identical(self):
        config = ScenarioConfig(
            governor="power-neutral-fig11", supply="controlled-voltage", duration_s=12.0
        )
        fast, exact = _run_both(config)
        _assert_metric_parity(fast, exact, rel=1e-9)
        np.testing.assert_allclose(fast.supply_voltage, exact.supply_voltage, atol=1e-12)

    def test_build_system_fast_flag_plumbs_through(self):
        config = ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=5.0)
        fast_system = build_system(config, fast=True)
        exact_system = build_system(config, fast=False)
        assert fast_system.simulation.supply.exact is False
        assert exact_system.simulation.supply.exact is True
        # The exact system must never have paid for (or built) the table.
        assert exact_system.simulation.supply._table is None

    def test_recorded_series_consistent_with_decimation(self):
        config = ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=8.0)
        result = build_system(config, record_interval_s=0.1).run()
        assert len(result.times) == pytest.approx(8.0 / 0.1, abs=3)
        assert np.all(np.diff(result.times) > 0)
        assert result.n_little.dtype.kind == "i"
        assert result.n_big.dtype.kind == "i"

    def test_recorder_growth_beyond_initial_capacity(self):
        # Forced (non-tick) records can exceed the duration-derived capacity;
        # the buffer must grow transparently.
        from repro.sim.simulator import _Recorder

        recorder = _Recorder(record_interval_s=1.0, duration_s=2.0)
        for k in range(100):
            recorder.record(float(k), 5.0, 1.0, 2.0, 3.0, 1e9, 4, 1, 1.0, float(k), 4.9, 5.4)
        arrays = recorder.to_arrays()
        assert len(arrays["times"]) == 100
        np.testing.assert_allclose(arrays["times"], np.arange(100.0))
        assert arrays["n_little"].dtype.kind == "i"
        assert list(arrays["n_little"][:3]) == [4, 4, 4]

    @pytest.mark.parametrize("record_interval_s", [0.05, 0.25])
    def test_recorder_starts_small_for_a_day_long_run(self, record_interval_s):
        from repro.sim import simulator

        recorder = simulator._Recorder(record_interval_s=record_interval_s, duration_s=86_400.0)
        assert recorder._buf.shape[0] == simulator._INITIAL_RECORD_ROWS
        assert recorder._buf.nbytes <= 128 * 1024

    def test_series_unchanged_by_a_small_initial_buffer(self, monkeypatch):
        """A 60 s run grows past the initial rows; its series match a run
        whose buffer was sized from the duration up front."""
        from repro.sim import simulator

        config = ScenarioConfig(governor="power-neutral", supply="pv-array", duration_s=60.0)
        grown = build_system(config, record_interval_s=0.05).run()
        assert len(grown.times) > simulator._INITIAL_RECORD_ROWS
        monkeypatch.setattr(simulator, "_INITIAL_RECORD_ROWS", 10**9)
        presized = build_system(config, record_interval_s=0.05).run()
        for name in ARRAY_FIELDS:
            a, b = getattr(grown, name), getattr(presized, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert grown.to_dict() == presized.to_dict()
