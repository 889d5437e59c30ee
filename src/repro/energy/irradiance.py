"""Synthetic solar-irradiance generation.

The paper drives its Simulink model and hardware experiments with recorded
solar data (DOI:10.5258/SOTON/403155) exhibiting

* **macro variability** -- the slow diurnal bell curve, and
* **micro variability** -- rapid dips caused by shadowing and passing clouds.

That dataset is not redistributable here, so this module synthesises
statistically similar irradiance traces: a clear-sky diurnal envelope
modulated by a two-state (clear/occluded) cloud process plus short shadowing
events, with presets for the weather conditions the paper tested under
(full sun, partial sun, cloud, hail).  All generation is seedable and
deterministic, so tests and benchmarks are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .traces import IrradianceTrace

__all__ = [
    "WeatherCondition",
    "ClearSkyModel",
    "CloudModel",
    "ShadowingEvent",
    "IrradianceGenerator",
    "constant_irradiance",
    "step_irradiance",
    "ramped_shadow_irradiance",
    "sinusoidal_irradiance",
]

#: Seconds in one day.
SECONDS_PER_DAY = 86_400.0


class WeatherCondition(str, Enum):
    """Weather presets matching the conditions tested in Section V-B."""

    FULL_SUN = "full_sun"
    PARTIAL_SUN = "partial_sun"
    CLOUD = "cloud"
    HAIL = "hail"


@dataclass(frozen=True)
class ClearSkyModel:
    """Clear-sky diurnal irradiance envelope.

    A raised-cosine (solar-elevation-like) profile between sunrise and sunset:

        G(t) = G_peak * max(0, sin(pi * (t - sunrise) / (sunset - sunrise)))^p

    Attributes
    ----------
    peak_irradiance_w_m2:
        Irradiance at solar noon under a clear sky.
    sunrise_s / sunset_s:
        Sunrise and sunset instants as seconds since local midnight.
    shape_exponent:
        Sharpens (>1) or flattens (<1) the bell.
    """

    peak_irradiance_w_m2: float = 1000.0
    sunrise_s: float = 6.0 * 3600.0
    sunset_s: float = 20.0 * 3600.0
    shape_exponent: float = 1.2

    def __post_init__(self) -> None:
        if self.peak_irradiance_w_m2 <= 0:
            raise ValueError("peak_irradiance_w_m2 must be positive")
        if not 0.0 <= self.sunrise_s < self.sunset_s <= SECONDS_PER_DAY:
            raise ValueError("require 0 <= sunrise < sunset <= 86400")
        if self.shape_exponent <= 0:
            raise ValueError("shape_exponent must be positive")

    def irradiance(self, time_of_day_s: float) -> float:
        """Clear-sky irradiance at a time of day (seconds since midnight)."""
        t = time_of_day_s % SECONDS_PER_DAY
        if t <= self.sunrise_s or t >= self.sunset_s:
            return 0.0
        phase = (t - self.sunrise_s) / (self.sunset_s - self.sunrise_s)
        return self.peak_irradiance_w_m2 * math.sin(math.pi * phase) ** self.shape_exponent

    def irradiance_array(self, times_of_day_s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`irradiance`."""
        t = np.asarray(times_of_day_s, dtype=float) % SECONDS_PER_DAY
        phase = (t - self.sunrise_s) / (self.sunset_s - self.sunrise_s)
        envelope = np.where(
            (t > self.sunrise_s) & (t < self.sunset_s),
            np.sin(np.pi * np.clip(phase, 0.0, 1.0)) ** self.shape_exponent,
            0.0,
        )
        return self.peak_irradiance_w_m2 * envelope


@dataclass(frozen=True)
class CloudModel:
    """Two-state Markov cloud-occlusion process ("micro" variability).

    The sky alternates between *clear* and *occluded*.  Sojourn times are
    exponentially distributed with the configured means; while occluded the
    irradiance is multiplied by an attenuation drawn uniformly from
    ``[attenuation_min, attenuation_max]``.  Transitions are smoothed with a
    first-order lag so cloud edges take a few seconds, as in real traces.
    """

    mean_clear_duration_s: float = 600.0
    mean_occluded_duration_s: float = 120.0
    attenuation_min: float = 0.15
    attenuation_max: float = 0.55
    edge_time_constant_s: float = 4.0

    def __post_init__(self) -> None:
        if self.mean_clear_duration_s <= 0 or self.mean_occluded_duration_s <= 0:
            raise ValueError("mean durations must be positive")
        if not 0.0 <= self.attenuation_min <= self.attenuation_max <= 1.0:
            raise ValueError("require 0 <= attenuation_min <= attenuation_max <= 1")
        if self.edge_time_constant_s <= 0:
            raise ValueError("edge_time_constant_s must be positive")

    def attenuation_profile(
        self, times: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Multiplicative attenuation factor (1 = clear) for each sample time."""
        times = np.asarray(times, dtype=float)
        if len(times) == 0:
            return np.ones(0)
        duration = float(times[-1] - times[0])
        # Generate the piecewise-constant target attenuation.
        t = float(times[0])
        segments: list[tuple[float, float]] = []  # (start_time, attenuation)
        clear = True
        while t <= times[-1]:
            if clear:
                segments.append((t, 1.0))
                t += rng.exponential(self.mean_clear_duration_s)
            else:
                factor = rng.uniform(self.attenuation_min, self.attenuation_max)
                segments.append((t, factor))
                t += rng.exponential(self.mean_occluded_duration_s)
            clear = not clear
        seg_times = np.array([s[0] for s in segments])
        seg_values = np.array([s[1] for s in segments])
        idx = np.searchsorted(seg_times, times, side="right") - 1
        target = seg_values[np.clip(idx, 0, len(seg_values) - 1)]
        # First-order smoothing of the edges.
        out = np.empty_like(target)
        out[0] = target[0]
        for i in range(1, len(target)):
            dt = times[i] - times[i - 1]
            a = 1.0 - math.exp(-dt / self.edge_time_constant_s)
            out[i] = out[i - 1] + a * (target[i] - out[i - 1])
        return out


@dataclass(frozen=True)
class ShadowingEvent:
    """A deterministic shadowing episode (e.g. a person walking past the array).

    The irradiance is multiplied by ``attenuation`` between ``start_s`` and
    ``start_s + duration_s`` with linear ramps of ``ramp_s`` on either side.
    """

    start_s: float
    duration_s: float
    attenuation: float = 0.2
    ramp_s: float = 0.5

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.attenuation <= 1.0:
            raise ValueError("attenuation must be in [0, 1]")
        if self.ramp_s < 0:
            raise ValueError("ramp_s must be non-negative")

    def factor(self, t: float) -> float:
        """Multiplicative factor applied to the irradiance at time ``t``."""
        end = self.start_s + self.duration_s
        if t <= self.start_s - self.ramp_s or t >= end + self.ramp_s:
            return 1.0
        if self.start_s <= t <= end:
            return self.attenuation
        if t < self.start_s:  # rising edge of the shadow
            frac = (self.start_s - t) / self.ramp_s if self.ramp_s > 0 else 0.0
            return self.attenuation + (1.0 - self.attenuation) * frac
        frac = (t - end) / self.ramp_s if self.ramp_s > 0 else 0.0
        return self.attenuation + (1.0 - self.attenuation) * frac


#: Per-weather tuning of the cloud process and overall attenuation.
_WEATHER_PRESETS: dict[WeatherCondition, dict] = {
    WeatherCondition.FULL_SUN: dict(
        sky_factor=1.0,
        cloud=CloudModel(
            mean_clear_duration_s=1800.0,
            mean_occluded_duration_s=45.0,
            attenuation_min=0.55,
            attenuation_max=0.85,
        ),
    ),
    WeatherCondition.PARTIAL_SUN: dict(
        sky_factor=0.85,
        cloud=CloudModel(
            mean_clear_duration_s=420.0,
            mean_occluded_duration_s=180.0,
            attenuation_min=0.3,
            attenuation_max=0.7,
        ),
    ),
    WeatherCondition.CLOUD: dict(
        sky_factor=0.45,
        cloud=CloudModel(
            mean_clear_duration_s=120.0,
            mean_occluded_duration_s=600.0,
            attenuation_min=0.25,
            attenuation_max=0.6,
        ),
    ),
    WeatherCondition.HAIL: dict(
        sky_factor=0.3,
        cloud=CloudModel(
            mean_clear_duration_s=60.0,
            mean_occluded_duration_s=600.0,
            attenuation_min=0.1,
            attenuation_max=0.4,
        ),
    ),
}


class IrradianceGenerator:
    """Seedable generator of synthetic irradiance traces.

    Parameters
    ----------
    clear_sky:
        Diurnal envelope model.
    seed:
        Seed for the internal random generator (cloud process).
    """

    def __init__(self, clear_sky: ClearSkyModel | None = None, seed: int = 0):
        self.clear_sky = clear_sky if clear_sky is not None else ClearSkyModel()
        self.seed = seed

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def generate_day(
        self,
        weather: WeatherCondition = WeatherCondition.FULL_SUN,
        dt: float = 1.0,
        shadowing_events: Sequence[ShadowingEvent] = (),
    ) -> IrradianceTrace:
        """Generate a full 24-hour irradiance trace.

        Times run from 0 (midnight) to 86 400 s with step ``dt``.
        """
        return self.generate(
            t_start=0.0,
            duration=SECONDS_PER_DAY,
            dt=dt,
            weather=weather,
            shadowing_events=shadowing_events,
        )

    def generate(
        self,
        t_start: float,
        duration: float,
        dt: float = 1.0,
        weather: WeatherCondition = WeatherCondition.FULL_SUN,
        shadowing_events: Sequence[ShadowingEvent] = (),
    ) -> IrradianceTrace:
        """Generate a trace over ``[t_start, t_start + duration]``.

        ``t_start`` is interpreted as seconds since local midnight so the
        diurnal envelope lines up with wall-clock times like the paper's
        10:30-16:30 test window.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        preset = _WEATHER_PRESETS[WeatherCondition(weather)]
        rng = self._rng()
        times = t_start + np.arange(0.0, duration + 0.5 * dt, dt)
        envelope = self.clear_sky.irradiance_array(times) * preset["sky_factor"]
        attenuation = preset["cloud"].attenuation_profile(times, rng)
        values = envelope * attenuation
        for event in shadowing_events:
            factors = np.array([event.factor(float(t)) for t in times])
            values = values * factors
        return IrradianceTrace(times=times, values=np.clip(values, 0.0, None))


# ----------------------------------------------------------------------
# Simple deterministic profiles used by unit tests and the concept figures
# ----------------------------------------------------------------------
def constant_irradiance(level_w_m2: float, duration: float, dt: float = 0.1) -> IrradianceTrace:
    """A flat irradiance trace."""
    times = np.arange(0.0, duration + 0.5 * dt, dt)
    return IrradianceTrace(times=times, values=np.full_like(times, float(level_w_m2)))


def step_irradiance(
    high_w_m2: float,
    low_w_m2: float,
    step_time: float,
    duration: float,
    dt: float = 0.01,
    recover_time: float | None = None,
) -> IrradianceTrace:
    """A sudden-shadowing profile: high, drop to low at ``step_time``.

    If ``recover_time`` is given the irradiance returns to the high level at
    that instant, mimicking a passing shadow (the scenario of paper Fig. 6).
    """
    times = np.arange(0.0, duration + 0.5 * dt, dt)
    values = np.where(times < step_time, float(high_w_m2), float(low_w_m2))
    if recover_time is not None:
        values = np.where(times >= recover_time, float(high_w_m2), values)
    return IrradianceTrace(times=times, values=values)


def ramped_shadow_irradiance(
    high_w_m2: float,
    low_w_m2: float,
    shadow_start: float,
    shadow_end: float,
    duration: float,
    ramp_s: float = 0.5,
    dt: float = 0.01,
) -> IrradianceTrace:
    """A shadowing episode with finite-slope edges.

    Real shadows (clouds, passers-by) attenuate the irradiance over a fraction
    of a second rather than instantaneously; the ramp duration controls how
    fast the harvested power collapses and therefore how hard the scenario is
    on the controller (paper Fig. 6 shows exactly such a ramped dip).
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    if ramp_s < 0:
        raise ValueError("ramp_s must be non-negative")
    if not 0.0 <= shadow_start < shadow_end <= duration:
        raise ValueError("require 0 <= shadow_start < shadow_end <= duration")
    times = np.arange(0.0, duration + 0.5 * dt, dt)
    knots_t = [0.0, shadow_start, shadow_start + ramp_s, shadow_end, shadow_end + ramp_s, duration + ramp_s]
    knots_v = [high_w_m2, high_w_m2, low_w_m2, low_w_m2, high_w_m2, high_w_m2]
    values = np.interp(times, knots_t, knots_v)
    return IrradianceTrace(times=times, values=np.clip(values, 0.0, None))


def sinusoidal_irradiance(
    mean_w_m2: float,
    amplitude_w_m2: float,
    period_s: float,
    duration: float,
    dt: float = 0.01,
) -> IrradianceTrace:
    """A sinusoidally varying irradiance (the transient input of paper Fig. 3)."""
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    times = np.arange(0.0, duration + 0.5 * dt, dt)
    values = mean_w_m2 + amplitude_w_m2 * np.sin(2.0 * np.pi * times / period_s)
    return IrradianceTrace(times=times, values=np.clip(values, 0.0, None))
