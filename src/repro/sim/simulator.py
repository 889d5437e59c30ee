"""The event-driven system simulator.

This is the reproduction's stand-in for the paper's testbed (Fig. 8): a PV
array (or controlled supply) feeding a small buffer capacitor, the
voltage-monitoring hardware watching the capacitor voltage, and the
ODROID-XU4 platform model running a governor.

Each step the simulator:

1. evaluates the supply current and the load current (board power at the
   present operating point, plus the monitoring hardware) at the present node
   voltage,
2. integrates the capacitor node equation with an adaptive explicit
   Heun (RK2) step sized so the voltage moves by at most a few millivolts,
3. advances the platform's actuation state machine (transition completion,
   brown-out detection, reboot),
4. samples the voltage monitor and delivers any threshold-crossing interrupts
   to the governor, applying its decisions through the platform (which
   charges the transition latency), and
5. invokes periodically-sampled governors (the Linux baselines) on their
   sampling interval.

The recorded time series and summary metrics are returned as a
:class:`~repro.sim.result.SimulationResult`.

The loop caches the load power between platform actuation events (it only
changes at OPP transitions, brown-outs, reboots and transition boundaries —
see :attr:`repro.soc.platform.SoCPlatform.actuation_epoch`), evaluates the
supply's available (MPP) power only on record ticks, and records into a
preallocated NumPy buffer.  How accurately the supply answers is the
supply's business: :class:`~repro.sim.supplies.PVArraySupply` interpolates a
tabulated I-V surface by default and solves the single-diode equation
(Lambert-W) per call with ``exact=True`` — what ``build_system(fast=False)``
selects.  Both run through this one loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..energy.supercapacitor import PAPER_BUFFER_CAPACITANCE_F, Supercapacitor
from ..governors.base import Governor, GovernorDecision
from ..hw.monitor import VoltageMonitor
from ..soc.platform import SoCPlatform
from .result import SimulationEvent, SimulationResult
from .supplies import Supply

__all__ = ["DeadlineExceeded", "SimulationConfig", "EnergyHarvestingSimulation"]


class DeadlineExceeded(TimeoutError):
    """Raised by :meth:`EnergyHarvestingSimulation.run` once its deadline passes."""


@dataclass
class SimulationConfig:
    """Numerical and behavioural knobs of the system simulator."""

    #: Total simulated duration in seconds.
    duration_s: float = 60.0
    #: Largest integration step.
    max_step_s: float = 0.02
    #: Smallest integration step (steps shrink when the voltage moves fast).
    min_step_s: float = 1e-5
    #: Target voltage change per step; the step size adapts to respect it.
    target_dv_per_step: float = 0.004
    #: Interval between recorded samples (decimation of the output series).
    record_interval_s: float = 0.05
    #: Initial capacitor voltage; ``None`` uses the supply's open-circuit
    #: voltage clamped to the platform's operating window.
    initial_voltage: Optional[float] = None
    #: Stop the simulation at the first brown-out instead of modelling reboot.
    stop_on_brownout: bool = False
    #: Model the digital potentiometer's finite threshold resolution.
    monitor_quantised: bool = True
    #: How often a persistently-asserted comparator re-raises its interrupt
    #: after the governor had nothing to do (the ISR masks the line and polls
    #: it back at this rate).  Keeps a saturated governor responsive without
    #: allowing an interrupt storm.
    monitor_rearm_interval_s: float = 0.25
    #: Include the 1.61 mW monitoring-hardware power in the load.
    include_monitor_power: bool = True
    #: Constant CPU utilisation presented to utilisation-driven governors
    #: (the ray-tracing workload is CPU bound, so 1.0).
    utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.max_step_s <= 0 or self.min_step_s <= 0:
            raise ValueError("step sizes must be positive")
        if self.min_step_s > self.max_step_s:
            raise ValueError("min_step_s must not exceed max_step_s")
        if self.target_dv_per_step <= 0:
            raise ValueError("target_dv_per_step must be positive")
        if self.record_interval_s <= 0:
            raise ValueError("record_interval_s must be positive")
        if self.monitor_rearm_interval_s <= 0:
            raise ValueError("monitor_rearm_interval_s must be positive")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError("utilization must lie in [0, 1]")


#: Column order of the recorder's sample rows.
_RECORD_COLUMNS = (
    "times",
    "voltage",
    "harvested",
    "available",
    "consumed",
    "frequency",
    "n_little",
    "n_big",
    "running",
    "instructions",
    "v_low",
    "v_high",
)


#: Most rows the recorder allocates before the run asks for more: a short
#: run fits at once, and a long one grows by doubling as it goes.
_INITIAL_RECORD_ROWS = 1024


class _Recorder:
    """Accumulates the decimated output series in a preallocated buffer.

    Rows are written positionally into one ``(capacity, 12)`` float array —
    no per-step kwargs dicts, no Python lists.  Capacity is sized from the
    run duration up to :data:`_INITIAL_RECORD_ROWS`; a run that records more
    rows doubles the buffer, so memory follows what the run has recorded,
    not what its configured duration could reach.
    """

    __slots__ = ("record_interval_s", "next_record_time", "_buf", "_n")

    def __init__(self, record_interval_s: float, duration_s: float):
        self.record_interval_s = record_interval_s
        self.next_record_time = 0.0
        capacity = min(int(duration_s / record_interval_s) + 8, _INITIAL_RECORD_ROWS)
        self._buf = np.empty((capacity, len(_RECORD_COLUMNS)), dtype=float)
        self._n = 0

    def record(
        self,
        t: float,
        voltage: float,
        harvested: float,
        available: float,
        consumed: float,
        frequency: float,
        n_little: int,
        n_big: int,
        running: float,
        instructions: float,
        v_low: float,
        v_high: float,
    ) -> None:
        n = self._n
        buf = self._buf
        if n >= buf.shape[0]:
            self._buf = buf = np.concatenate([buf, np.empty_like(buf)])
        row = buf[n]
        row[0] = t
        row[1] = voltage
        row[2] = harvested
        row[3] = available
        row[4] = consumed
        row[5] = frequency
        row[6] = n_little
        row[7] = n_big
        row[8] = running
        row[9] = instructions
        row[10] = v_low
        row[11] = v_high
        self._n = n + 1

    def record_tick(self, t: float, *signals) -> None:
        """Record a decimation-tick sample and advance the tick clock."""
        self.record(t, *signals)
        while self.next_record_time <= t + 1e-12:
            self.next_record_time += self.record_interval_s

    def to_arrays(self) -> dict:
        data = self._buf[: self._n]
        return {
            name: data[:, j].astype(np.int64) if name in ("n_little", "n_big") else data[:, j].copy()
            for j, name in enumerate(_RECORD_COLUMNS)
        }


class EnergyHarvestingSimulation:
    """Couples a supply, a buffer capacitor, the monitor, a governor and the SoC.

    Parameters
    ----------
    platform:
        The MP-SoC platform model (actuation state machine + power/perf).
    governor:
        The power-management governor under test.
    supply:
        The harvesting source (PV array supply or controlled voltage supply).
    capacitor:
        The buffer capacitor; defaults to the paper's 47 mF part.  Ignored
        when the supply is a stiff voltage source.
    config:
        Numerical/behavioural configuration.
    """

    def __init__(
        self,
        platform: SoCPlatform,
        governor: Governor,
        supply: Supply,
        capacitor: Supercapacitor | None = None,
        config: SimulationConfig | None = None,
    ):
        self.platform = platform
        self.governor = governor
        self.supply = supply
        self.capacitor = capacitor if capacitor is not None else Supercapacitor(PAPER_BUFFER_CAPACITANCE_F)
        self.config = config if config is not None else SimulationConfig()
        self.monitor = VoltageMonitor(quantised=self.config.monitor_quantised)
        #: A time.monotonic() instant: run() raises DeadlineExceeded at the
        #: first record tick past it.
        self.deadline = math.inf

    # ------------------------------------------------------------------
    # Initial conditions
    # ------------------------------------------------------------------
    def _initial_voltage(self) -> float:
        if self.config.initial_voltage is not None:
            return self.config.initial_voltage
        if self.supply.is_voltage_source:
            return self.supply.voltage(0.0)
        voc = self.supply.open_circuit_voltage(0.0)
        v = min(voc, self.platform.spec.maximum_voltage)
        return max(v, 0.0)

    def _program_monitor(self, supply_voltage: float) -> None:
        thresholds = self.governor.thresholds()
        if thresholds is None:
            return
        v_low, v_high = thresholds
        self.monitor.set_thresholds(v_low, v_high)
        self.monitor.prime(supply_voltage)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the simulation to ``duration_s`` (or the first brown-out).

        Derived quantities are evaluated only when they can change: the load
        power per platform actuation epoch, the available power per record
        tick.  Recording goes into a preallocated buffer.
        """
        cfg = self.config
        platform = self.platform
        governor = self.governor
        supply = self.supply
        capacitor = self.capacitor
        monitor = self.monitor

        platform.reset()
        governor.reset_accounting()

        t = 0.0
        vc = self._initial_voltage()
        capacitor.reset(min(vc, capacitor.max_voltage))

        governor.initialise(platform, t, vc)
        uses_monitor = governor.uses_voltage_monitor
        if uses_monitor:
            self._program_monitor(vc)

        recorder = _Recorder(cfg.record_interval_s, cfg.duration_s)
        events: list[SimulationEvent] = []

        instructions = 0.0
        harvested_energy = 0.0
        consumed_energy = 0.0
        first_brownout: Optional[float] = None
        was_running = platform.running

        sampling_interval = governor.sampling_interval_s
        next_tick = 0.0 if sampling_interval else float("inf")
        next_monitor_rearm = cfg.monitor_rearm_interval_s
        monitor_power = monitor.power_w if cfg.include_monitor_power else 0.0

        # Hot-loop locals (attribute lookups hoisted out of the loop).
        duration = cfg.duration_s
        max_step = cfg.max_step_s
        min_step = cfg.min_step_s
        target_dv = cfg.target_dv_per_step
        stop_on_brownout = cfg.stop_on_brownout
        rearm_interval = cfg.monitor_rearm_interval_s
        is_voltage_source = supply.is_voltage_source
        supply_current = supply.step_current_fn()
        supply_voltage_at = supply.voltage if is_voltage_source else None
        cap_c = capacitor.capacitance_f
        g_leak = capacitor.leakage_conductance_s
        cap_vmax = capacitor.max_voltage
        plat_min_v = platform.spec.minimum_voltage
        utilization = cfg.utilization
        monitor_sample = monitor.sample
        platform_advance = platform.advance
        next_record = recorder.next_record_time
        deadline = self.deadline
        monotonic = time.monotonic

        # Event-driven load power: platform power and instruction rate are
        # piecewise constant between actuation events; re-read them only when
        # the platform's actuation epoch moves.
        epoch = -1
        load_power = 0.0
        inst_rate = 0.0

        while t < duration:
            p_epoch = platform.actuation_epoch
            if p_epoch != epoch:
                epoch = p_epoch
                load_power = platform.power(t) + monitor_power
                inst_rate = platform.instruction_rate()

            # --------------------------------------------------------------
            # 1. Currents at the present node voltage; one Heun (RK2) step
            # --------------------------------------------------------------
            if is_voltage_source:
                remaining = duration - t
                dt = max_step if remaining > max_step else remaining
                t_new = t + dt
                vc_new = supply_voltage_at(t_new)
                harvested_power = load_power
            else:
                i_load = load_power / (vc if vc > 0.5 else 0.5)
                i_supply = supply_current(vc, t)
                dvdt = (i_supply - i_load - g_leak * vc) / cap_c
                # Adaptive step: keep the per-step voltage change small, never
                # step past the end of the run or the next governor tick.
                # (Branches instead of min()/max() calls: this arithmetic runs
                # every step and builtin-call overhead is measurable here.)
                dvdt_abs = dvdt if dvdt >= 0.0 else -dvdt
                dt = target_dv / (dvdt_abs if dvdt_abs > 1e-9 else 1e-9)
                if dt < min_step:
                    dt = min_step
                if dt > max_step:
                    dt = max_step
                remaining = duration - t
                if dt > remaining:
                    dt = remaining
                if next_tick > t:
                    gap = next_tick - t
                    if gap < min_step:
                        gap = min_step
                    if dt > gap:
                        dt = gap
                vc_pred = vc + dvdt * dt
                if vc_pred < 0.0:
                    vc_pred = 0.0
                elif vc_pred > cap_vmax:
                    vc_pred = cap_vmax
                i_supply_pred = supply_current(vc_pred, t + dt)
                i_load_pred = load_power / (vc_pred if vc_pred > 0.5 else 0.5)
                dvdt_pred = (i_supply_pred - i_load_pred - g_leak * vc_pred) / cap_c
                vc_new = vc + 0.5 * (dvdt + dvdt_pred) * dt
                if vc_new < 0.0:
                    vc_new = 0.0
                elif vc_new > cap_vmax:
                    vc_new = cap_vmax
                t_new = t + dt
                harvested_power = i_supply * vc

            # --------------------------------------------------------------
            # 2. Accounting over the step
            # --------------------------------------------------------------
            instructions += inst_rate * dt
            harvested_energy += harvested_power * dt
            consumed_energy += load_power * dt

            t = t_new
            vc = vc_new

            # --------------------------------------------------------------
            # 3. Platform state machine: transitions, brown-out, reboot
            #
            # advance() is a no-op while the platform is running above the
            # brown-out threshold with no transition in flight; skip the call
            # in that (overwhelmingly common) case.
            # --------------------------------------------------------------
            if vc < plat_min_v or platform.pending is not None or not was_running:
                platform_advance(t, vc)
            running = platform.running
            if was_running and not running:
                events.append(SimulationEvent(t, "brownout", f"V_C={vc:.3f}V"))
                if first_brownout is None:
                    first_brownout = t
                if stop_on_brownout:
                    was_running = running
                    recorder.record(
                        t,
                        vc,
                        harvested_power,
                        supply.available_power(t),
                        load_power,
                        0.0,
                        0,
                        0,
                        0.0,
                        instructions,
                        monitor.v_low,
                        monitor.v_high,
                    )
                    break
            elif not was_running and running:
                events.append(SimulationEvent(t, "reboot", f"V_C={vc:.3f}V"))
                governor.initialise(platform, t, vc)
                if uses_monitor:
                    self._program_monitor(vc)
            was_running = running

            # --------------------------------------------------------------
            # 4. Voltage monitor -> governor interrupts
            #
            # Interrupts are held off while an OPP transition is in flight:
            # the ISR performs the sysfs writes synchronously, so the next
            # threshold crossing is serviced only once the previous response
            # has taken effect (this is the dead time Table I budgets for).
            # --------------------------------------------------------------
            if uses_monitor and running and platform.pending is None:
                if t >= next_monitor_rearm:
                    # Periodic re-poll of a persistently asserted comparator.
                    monitor.prime(vc)
                    next_monitor_rearm = t + rearm_interval
                crossings = monitor_sample(vc)
                if crossings:
                    for crossing in crossings:
                        events.append(SimulationEvent(t, crossing.value, f"V_C={vc:.3f}V"))
                        thresholds_before = monitor.v_low, monitor.v_high
                        decision = governor.on_interrupt(crossing, t, vc, platform)
                        self._apply_decision(decision, t, events)
                        self._program_monitor(vc)
                        thresholds_after = monitor.v_low, monitor.v_high
                        if decision is None and thresholds_after == thresholds_before:
                            # The governor is saturated (nothing changed):
                            # fall back to edge semantics so a supply that
                            # stays beyond the threshold does not generate an
                            # interrupt storm.
                            monitor.acknowledge(vc)

            # --------------------------------------------------------------
            # 5. Periodic governor tick (Linux-style governors)
            # --------------------------------------------------------------
            if sampling_interval and t >= next_tick:
                if running:
                    decision = governor.on_tick(t, vc, utilization, platform)
                    self._apply_decision(decision, t, events)
                next_tick += sampling_interval

            # --------------------------------------------------------------
            # 6. Record (decimated; available power evaluated lazily, only
            #    when this step actually lands on a record tick)
            # --------------------------------------------------------------
            if t + 1e-12 >= next_record:
                if monotonic() >= deadline:
                    raise DeadlineExceeded(f"deadline passed at simulated t={t:.3f} s")
                if running:
                    opp = platform.current_opp
                    recorder.record_tick(
                        t,
                        vc,
                        harvested_power,
                        supply.available_power(t),
                        load_power,
                        opp.frequency_hz,
                        opp.config.n_little,
                        opp.config.n_big,
                        1.0,
                        instructions,
                        monitor.v_low,
                        monitor.v_high,
                    )
                else:
                    recorder.record_tick(
                        t,
                        vc,
                        harvested_power,
                        supply.available_power(t),
                        monitor_power,
                        0.0,
                        0,
                        0,
                        0.0,
                        instructions,
                        monitor.v_low,
                        monitor.v_high,
                    )
                next_record = recorder.next_record_time

        if not is_voltage_source:
            # Nothing in the loop reads the capacitor object: write its state
            # once, not every step.
            capacitor.voltage = vc
        return self._finalise(
            recorder.to_arrays(),
            events,
            t,
            instructions,
            harvested_energy,
            consumed_energy,
            first_brownout,
        )

    def _finalise(
        self,
        arrays: dict,
        events: list[SimulationEvent],
        t: float,
        instructions: float,
        harvested_energy: float,
        consumed_energy: float,
        first_brownout: Optional[float],
    ) -> SimulationResult:
        return SimulationResult(
            times=arrays["times"],
            supply_voltage=arrays["voltage"],
            harvested_power=arrays["harvested"],
            available_power=arrays["available"],
            consumed_power=arrays["consumed"],
            frequency_hz=arrays["frequency"],
            n_little=arrays["n_little"],
            n_big=arrays["n_big"],
            running=arrays["running"],
            instructions=arrays["instructions"],
            v_low=arrays["v_low"],
            v_high=arrays["v_high"],
            events=events,
            duration_s=min(t, self.config.duration_s),
            total_instructions=instructions,
            harvested_energy_j=harvested_energy,
            consumed_energy_j=consumed_energy,
            brownout_count=self.platform.brownout_count,
            first_brownout_time=first_brownout,
            transition_count=self.platform.transition_count,
            dvfs_transition_count=self.platform.dvfs_transition_count,
            hotplug_transition_count=self.platform.hotplug_transition_count,
            interrupt_count=self.monitor.interrupt_count,
            governor_invocations=self.governor.invocation_count,
            governor_cpu_time_s=self.governor.cpu_time_s,
            governor_name=self.governor.name,
        )

    def _apply_decision(
        self,
        decision: Optional[GovernorDecision],
        t: float,
        events: list[SimulationEvent],
    ) -> None:
        if decision is None:
            return
        latency = self.platform.request_opp(decision.target, t, cores_first=decision.cores_first)
        events.append(
            SimulationEvent(
                t,
                "opp-request",
                f"{decision.target} (latency {latency * 1e3:.1f} ms)",
            )
        )
