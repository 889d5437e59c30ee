"""Supply models: what feeds the harvesting node.

Two kinds of supply appear in the paper's evaluation:

* a **PV array under an irradiance trace** (Sections V-B/C/D) — the supply
  injects the array's I-V current at the present node voltage, so the
  operating point on the I-V curve emerges from the load; and
* a **controlled laboratory supply** (Section V-A, Fig. 11) — a stiff voltage
  source whose programmed profile the node voltage simply follows, used to
  verify that the governor responds correctly to a changing input voltage.

Both implement the small :class:`Supply` interface consumed by the system
simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np

from ..energy.pv_array import PVArray
from ..energy.solar_cell import SolarCellParameters
from ..energy.traces import IrradianceTrace, Trace, TraceCursor

__all__ = [
    "Supply",
    "IVSurfaceTable",
    "TABLE_CACHE_SIZE",
    "shared_iv_table",
    "PVArraySupply",
    "ControlledVoltageSupply",
    "ConstantPowerSupply",
]


class Supply(ABC):
    """Interface between the harvesting source and the node equation."""

    #: Whether the supply pins the node voltage directly (ideal voltage source).
    is_voltage_source: bool = False

    @abstractmethod
    def current(self, voltage: float, t: float) -> float:
        """Current injected into the node at node voltage ``voltage`` and time ``t``."""

    def voltage(self, t: float) -> float:
        """Node voltage imposed by a stiff supply (voltage sources only)."""
        raise NotImplementedError("this supply does not impose a node voltage")

    @abstractmethod
    def available_power(self, t: float) -> float:
        """Maximum power the supply could deliver at time ``t`` (for Fig. 14)."""

    @abstractmethod
    def open_circuit_voltage(self, t: float) -> float:
        """Unloaded node voltage at time ``t`` (used for initial conditions)."""

    def step_current_fn(self):
        """A fused ``current(v, t)`` callable for the simulator's hot loop.

        Subclasses with a cheap closed-form evaluation return a flat closure
        (no attribute lookups, no nested method calls per evaluation); the
        default is simply the bound :meth:`current`.  The returned callable
        may carry its own trace cursor, so it expects (amortised) monotone
        ``t`` — exactly the simulator's access pattern.
        """
        return self.current


class IVSurfaceTable:
    """Bilinear interpolation of a PV array's I-V surface on a uniform grid.

    The table stores clipped terminal currents on a uniform
    (voltage x irradiance) grid covering the voltages and irradiances a
    simulation can visit.  A lookup is a handful of Python float operations —
    no Lambert-W, no numpy dispatch — which is what makes the simulator's
    fast path fast.

    Construction measures the interpolation error against the exact
    Lambert-W solve at every grid-cell midpoint (where bilinear error peaks)
    and refines the grid until the worst error is below ``rel_tol``
    (raising if the refinement cap cannot achieve it).  The error is
    normalised by the full-scale current — the short-circuit current at the
    brightest tabulated irradiance — because the clipped surface has a slope
    kink along the open-circuit boundary where a locally-relative measure
    would be unsatisfiable at any practical grid size, while the quantity
    that bounds simulation error is the absolute current error against the
    currents the node actually integrates.

    Alongside the surface, the table carries the two 1-D curves the
    simulator samples on record ticks — MPP power and open-circuit voltage
    vs irradiance — on the same irradiance grid, so :meth:`mpp_power` and
    :meth:`open_circuit_voltage` are a couple of float operations instead of
    a ``np.interp`` dispatch each.

    A table is read-only once built.  A :class:`PVArraySupply`'s table is
    built lazily, shared per process by content key (see
    :func:`shared_iv_table`): supplies over the same array, ``g_max`` and
    grid settings point at one object.
    """

    __slots__ = (
        "v_max",
        "g_max",
        "_nv",
        "_ng",
        "_inv_dv",
        "_inv_dg",
        "_rows",
        "_mpp_row",
        "_voc_row",
        "max_rel_error",
    )

    #: Hard cap on grid refinement (per axis) before construction fails.
    _MAX_REFINEMENTS = 3
    #: Voltage rows per Wright-omega evaluation: bounds the solver's temporaries
    #: without changing a value (every element is solved independently).
    _BLOCK_ROWS = 64

    def __init__(
        self,
        array: PVArray,
        g_max: float,
        voltage_points: int = 193,
        irradiance_points: int = 129,
        rel_tol: float = 5e-3,
    ):
        if voltage_points < 2 or irradiance_points < 2:
            raise ValueError("table needs at least 2 points per axis")
        if rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        self.g_max = max(float(g_max), 1.0)
        # Past the open-circuit voltage the (clipped) current is identically
        # zero, so the voltage axis only needs to reach Voc at the brightest
        # irradiance; lookups beyond the edge clamp onto that all-zero row.
        self.v_max = float(array.open_circuit_voltage(self.g_max)) * 1.02

        nv, ng = int(voltage_points), int(irradiance_points)
        for refinement in range(self._MAX_REFINEMENTS + 1):
            voltages = np.linspace(0.0, self.v_max, nv)
            irradiances = np.linspace(0.0, self.g_max, ng)
            surface = np.empty((nv, ng))
            for rows in self._row_blocks(nv):
                surface[rows] = array.current_surface(voltages[rows], irradiances)
            error = self._midpoint_error(array, voltages, irradiances, surface)
            if error <= rel_tol or refinement == self._MAX_REFINEMENTS:
                break
            nv = 2 * nv - 1
            ng = 2 * ng - 1
        if error > rel_tol:
            raise ValueError(
                f"I-V surface tabulation cannot reach rel_tol={rel_tol:g} "
                f"(best {error:.2e} on a {nv}x{ng} grid); use exact=True"
            )

        self._nv = nv
        self._ng = ng
        self._inv_dv = (nv - 1) / self.v_max
        self._inv_dg = (ng - 1) / self.g_max
        # The 1-D curves first: the MPP scan's temporaries are freed before
        # the (much larger) list-of-lists surface exists.
        voc = array.open_circuit_voltage_array(irradiances)
        self._mpp_row = array._mpp_power_scan(irradiances, voc).tolist()
        self._voc_row = voc.tolist()
        # Nested Python lists: element access beats numpy scalar indexing in
        # the per-step lookup by a wide margin.
        self._rows = surface.tolist()
        self.max_rel_error = float(error)

    @classmethod
    def _row_blocks(cls, n: int) -> list[slice]:
        return [slice(lo, lo + cls._BLOCK_ROWS) for lo in range(0, n, cls._BLOCK_ROWS)]

    @classmethod
    def _midpoint_error(cls, array, voltages, irradiances, surface) -> float:
        """Worst full-scale-relative bilinear error at grid-cell midpoints."""
        v_mid = 0.5 * (voltages[:-1] + voltages[1:])
        g_mid = 0.5 * (irradiances[:-1] + irradiances[1:])
        worst = 0.0
        for rows in cls._row_blocks(len(v_mid)):
            exact = array.current_surface(v_mid[rows], g_mid)
            corners = surface[rows.start : rows.stop + 1]
            interp = 0.25 * (
                corners[:-1, :-1] + corners[1:, :-1] + corners[:-1, 1:] + corners[1:, 1:]
            )
            worst = max(worst, float(np.max(np.abs(interp - exact))))
        full_scale = max(float(np.max(surface)), 1e-12)
        return worst / full_scale

    def current(self, voltage: float, irradiance: float) -> float:
        """Bilinearly interpolated clipped current (clamped to the grid)."""
        fx = voltage * self._inv_dv
        if fx <= 0.0:
            ix = 0
            wx = 0.0
        elif fx >= self._nv - 1:
            ix = self._nv - 2
            wx = 1.0
        else:
            ix = int(fx)
            wx = fx - ix
        fy = irradiance * self._inv_dg
        if fy <= 0.0:
            iy = 0
            wy = 0.0
        elif fy >= self._ng - 1:
            iy = self._ng - 2
            wy = 1.0
        else:
            iy = int(fy)
            wy = fy - iy
        r0 = self._rows[ix]
        r1 = self._rows[ix + 1]
        a = r0[iy]
        b = r1[iy]
        a += (r0[iy + 1] - a) * wy
        b += (r1[iy + 1] - b) * wy
        return a + (b - a) * wx

    def _sample_irradiance_row(self, row: list, irradiance: float) -> float:
        """Clamped linear interpolation of a 1-D curve on the irradiance grid."""
        fy = irradiance * self._inv_dg
        if fy <= 0.0:
            return row[0]
        if fy >= self._ng - 1:
            return row[-1]
        iy = int(fy)
        a = row[iy]
        return a + (row[iy + 1] - a) * (fy - iy)

    def mpp_power(self, irradiance: float) -> float:
        """Tabulated maximum-power-point power at an irradiance (W)."""
        return self._sample_irradiance_row(self._mpp_row, irradiance)

    def open_circuit_voltage(self, irradiance: float) -> float:
        """Tabulated open-circuit voltage at an irradiance (V)."""
        return self._sample_irradiance_row(self._voc_row, irradiance)


#: Most I-V tables one process keeps (least recently used evicted first).  A
#: campaign's tables differ only by weather trace, and the paper's grids use
#: three weathers.
TABLE_CACHE_SIZE = 4


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def shared_iv_table(
    parameters: SolarCellParameters,
    topology,
    g_max: float,
    voltage_points: int,
    irradiance_points: int,
    rel_tol: float,
) -> IVSurfaceTable:
    """The process's :class:`IVSurfaceTable` for this content, built once.

    The key is the array's cell parameters and topology (frozen dataclasses),
    the exact ``g_max`` and the grid settings, and the table is built from
    the key alone: only truly identical tables are reused, so sharing changes
    no simulated value.  A build that raises is not cached.
    ``shared_iv_table.cache_clear()`` empties the cache.
    """
    array = PVArray(parameters, topology.cells_in_series, topology.strings_in_parallel)
    return IVSurfaceTable(array, g_max, voltage_points, irradiance_points, rel_tol)


class PVArraySupply(Supply):
    """A PV array illuminated by an irradiance trace.

    By default the supply answers :meth:`current` — and, on record ticks,
    :meth:`available_power` / :meth:`open_circuit_voltage` — from a tabulated
    :class:`IVSurfaceTable` (the bilinear I-V surface plus its 1-D MPP/Voc
    curves): the simulator's fast path.  The table is built lazily, shared
    per process by content key: at the first fast lookup (so a supply
    immediately switched to ``exact`` never pays the tabulation cost), and
    only if :func:`shared_iv_table` holds no table for the same array
    parameters, ``g_max`` and grid settings.  Its interpolation error is
    checked against the exact solve at build time, before any lookup is
    answered.  ``exact=True`` bypasses tabulation — and the shared cache —
    and solves the single-diode equation (Lambert-W) on every call, with
    MPP/Voc answered by ``np.interp`` over a dedicated cache (built at the
    first exact-mode lookup, so fast mode never pays for it); the flag can
    also be toggled on a built supply.

    Parameters
    ----------
    array:
        The PV array model.
    irradiance:
        Irradiance trace in W/m^2; times outside the trace clamp to its ends.
    mpp_cache_points:
        In exact mode the available-power curve (P_mpp vs irradiance) and
        the open-circuit voltage are computed once on a grid of this many
        irradiance values and interpolated, because locating the MPP exactly
        at every record tick would dominate the run time.
    exact:
        Solve the I-V equation exactly per call instead of interpolating the
        tabulated surface.
    table_voltage_points / table_irradiance_points / table_rel_tol:
        Initial grid resolution and the accepted worst relative interpolation
        error of the tabulated surface (checked, and refined if necessary,
        when the table is built).
    """

    is_voltage_source = False

    def __init__(
        self,
        array: PVArray,
        irradiance: IrradianceTrace,
        mpp_cache_points: int = 64,
        exact: bool = False,
        table_voltage_points: int = 193,
        table_irradiance_points: int = 129,
        table_rel_tol: float = 5e-3,
    ):
        if mpp_cache_points < 2:
            raise ValueError("mpp_cache_points must be at least 2")
        self.array = array
        self.irradiance = irradiance
        self._mpp_cache_points = int(mpp_cache_points)
        self._mpp_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._g_max = max(float(irradiance.maximum()), 1.0)
        self._g_cursor = TraceCursor(irradiance)
        self._table_voltage_points = int(table_voltage_points)
        self._table_irradiance_points = int(table_irradiance_points)
        self._table_rel_tol = float(table_rel_tol)
        self._table: IVSurfaceTable | None = None
        self._exact = bool(exact)

    def _build_table(self) -> IVSurfaceTable:
        grid = (
            self._g_max,
            self._table_voltage_points,
            self._table_irradiance_points,
            self._table_rel_tol,
        )
        if type(self.array) is not PVArray:
            # A subclass may model more than its parameters say: not shared.
            return IVSurfaceTable(self.array, *grid)
        return shared_iv_table(self.array.cell.parameters, self.array.topology, *grid)

    def _exact_cache(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(irradiances, mpp_power, voc)`` grid of the exact-mode channels."""
        if self._mpp_cache is None:
            irradiances = np.linspace(0.0, self._g_max, self._mpp_cache_points)
            voc = self.array.open_circuit_voltage_array(irradiances)
            self._mpp_cache = (irradiances, self.array._mpp_power_scan(irradiances, voc), voc)
        return self._mpp_cache

    @property
    def exact(self) -> bool:
        """Whether :meth:`current` solves the I-V equation exactly per call."""
        return self._exact

    @exact.setter
    def exact(self, value: bool) -> None:
        self._exact = bool(value)

    @property
    def iv_table(self) -> IVSurfaceTable | None:
        """The tabulated I-V surface (``None`` in exact mode).

        In fast mode the table is built — and its interpolation error
        checked — on first access, which is also what the first fast lookup
        does.  A previously built table is retained internally across
        ``exact`` toggles but never exposed while exact mode is active.
        """
        if self._exact:
            return None
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def irradiance_at(self, t: float) -> float:
        return self.irradiance.value_at(t)

    def current(self, voltage: float, t: float) -> float:
        g = self._g_cursor.value(t)
        if self._exact:
            return self.array.current(voltage, g)
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        return table.current(voltage, g)

    def step_current_fn(self):
        """Fully fused fast-path lookup: cursor advance + bilinear, one call.

        The closure keeps the irradiance cursor index and the table geometry
        in local/cell variables so one supply evaluation is a single Python
        call with no attribute traffic — the difference between ~0.8 us and
        ~0.4 us per step matters when every boundary-search probe takes tens
        of thousands of steps.
        """
        if self._exact:
            array_current = self.array.current
            irradiance = self.irradiance.cursor().value

            def exact_current(v: float, t: float) -> float:
                return array_current(v, irradiance(t))

            return exact_current

        table = self._table
        if table is None:
            table = self._table = self._build_table()
        rows = table._rows
        inv_dv = table._inv_dv
        nv_hi = table._nv - 1
        inv_dg = table._inv_dg
        ng_hi = table._ng - 1
        # Reuse the float lists the supply's cursor already built (shared
        # read-only); the closure keeps its own segment index.
        times = self._g_cursor._times
        values = self._g_cursor._values
        n = len(times)
        idx = 0
        last_t = None
        last_g = 0.0

        def fast_current(v: float, t: float) -> float:
            nonlocal idx, last_t, last_g
            if t == last_t:
                # The Heun corrector samples at t+dt, which is exactly the
                # next step's predictor time: half of all lookups repeat the
                # previous t, so one cursor walk serves two evaluations.
                g = last_g
            else:
                # Inlined TraceCursor.value
                i = idx
                if t < times[i]:
                    i = 0
                while i + 1 < n and t >= times[i + 1]:
                    i += 1
                idx = i
                if i + 1 >= n:
                    g = values[-1]
                else:
                    t0 = times[i]
                    if t <= t0:
                        # Clamp at (or before) a sample instant, matching
                        # TraceCursor.value — i can only sit at 0 with t
                        # below it, or exactly on times[i].
                        g = values[i]
                    else:
                        g0 = values[i]
                        g = g0 + (values[i + 1] - g0) * (t - t0) / (times[i + 1] - t0)
                last_t = t
                last_g = g
            # Inlined IVSurfaceTable.current
            fx = v * inv_dv
            if fx <= 0.0:
                ix = 0
                wx = 0.0
            elif fx >= nv_hi:
                ix = nv_hi - 1
                wx = 1.0
            else:
                ix = int(fx)
                wx = fx - ix
            fy = g * inv_dg
            if fy <= 0.0:
                iy = 0
                wy = 0.0
            elif fy >= ng_hi:
                iy = ng_hi - 1
                wy = 1.0
            else:
                iy = int(fy)
                wy = fy - iy
            r0 = rows[ix]
            r1 = rows[ix + 1]
            a = r0[iy]
            b = r1[iy]
            a += (r0[iy + 1] - a) * wy
            b += (r1[iy + 1] - b) * wy
            return a + (b - a) * wx

        return fast_current

    def available_power(self, t: float) -> float:
        """MPP power at time ``t`` — the record-tick "available power" channel.

        In fast mode this samples the table's 1-D MPP curve (pure float
        operations); in exact mode it is ``np.interp`` over the exact-mode
        MPP cache.
        """
        g = self.irradiance_at(t)
        if not self._exact:
            return self.iv_table.mpp_power(g)
        irradiances, mpp_power, _ = self._exact_cache()
        return float(np.interp(g, irradiances, mpp_power))

    def open_circuit_voltage(self, t: float) -> float:
        g = self.irradiance_at(t)
        if not self._exact:
            return self.iv_table.open_circuit_voltage(g)
        irradiances, _, voc = self._exact_cache()
        return float(np.interp(g, irradiances, voc))


class ControlledVoltageSupply(Supply):
    """A stiff laboratory supply whose voltage follows a programmed trace.

    The node voltage equals the programmed voltage regardless of the load
    (within the supply's current limit, which we expose only for the
    available-power estimate).
    """

    is_voltage_source = True

    def __init__(self, voltage_trace: Trace, current_limit_a: float = 3.0):
        if current_limit_a <= 0:
            raise ValueError("current_limit_a must be positive")
        self.voltage_trace = voltage_trace
        self.current_limit_a = current_limit_a
        self._v_cursor = TraceCursor(voltage_trace)

    def voltage(self, t: float) -> float:
        # Cursor-based sampling: the simulator reads the programmed voltage
        # every step, and simulation time is monotone.
        return self._v_cursor.value(t)

    def current(self, voltage: float, t: float) -> float:
        # A stiff source supplies whatever the load draws; the simulator does
        # not integrate the node when the supply is a voltage source, so this
        # is only used for power accounting.
        return self.current_limit_a

    def available_power(self, t: float) -> float:
        return self.voltage(t) * self.current_limit_a

    def open_circuit_voltage(self, t: float) -> float:
        return self.voltage(t)


class ConstantPowerSupply(Supply):
    """An idealised source that delivers a fixed power at any voltage.

    Useful for unit tests and for the conceptual Fig. 3 study where the
    harvested power is prescribed directly rather than through an I-V curve.
    """

    is_voltage_source = False

    def __init__(self, power_trace: Trace, voltage_limit: float = 6.5):
        if voltage_limit <= 0:
            raise ValueError("voltage_limit must be positive")
        self.power_trace = power_trace
        self.voltage_limit = voltage_limit
        self._p_cursor = TraceCursor(power_trace)

    def current(self, voltage: float, t: float) -> float:
        if voltage >= self.voltage_limit:
            return 0.0
        power = self._p_cursor.value(t)
        if power <= 0.0:
            return 0.0
        return power / (voltage if voltage > 0.5 else 0.5)

    def step_current_fn(self):
        voltage_limit = self.voltage_limit
        values = self.power_trace.values
        power = float(values[0])
        if np.all(values == power) and 0.0 < power < float("inf"):
            # A flat trace: the cursor's interpolation P + 0.0 * x is exactly
            # P (and both ends clamp to P), so skip it.  Non-finite values
            # keep the cursor, whose inf - inf makes NaN.

            def flat_current(v: float, t: float) -> float:
                if v >= voltage_limit:
                    return 0.0
                return power / (v if v > 0.5 else 0.5)

            return flat_current

        cursor_value = TraceCursor(self.power_trace).value

        def fast_current(v: float, t: float) -> float:
            if v >= voltage_limit:
                return 0.0
            power = cursor_value(t)
            if power <= 0.0:
                return 0.0
            return power / (v if v > 0.5 else 0.5)

        return fast_current

    def available_power(self, t: float) -> float:
        return max(self.power_trace.value_at(t), 0.0)

    def open_circuit_voltage(self, t: float) -> float:
        return self.voltage_limit
