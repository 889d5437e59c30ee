"""Operating performance points (OPPs) and the DVFS frequency ladder.

An OPP couples a :class:`~repro.soc.cores.CoreConfig` with an operating
frequency.  The paper (Section III) restricts DVFS to eight predefined
frequencies chosen so that the corresponding power consumptions are roughly
linearly spaced:

    0.2, 0.45, 0.72, 0.92, 1.1, 1.2, 1.3, 1.4 GHz

Both clusters are driven from the same ladder (the control algorithm applies
one ``fclk`` to the system), matching the paper's presentation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cores import CoreConfig, core_ladder

__all__ = [
    "GHZ",
    "MHZ",
    "PAPER_FREQUENCIES_HZ",
    "OperatingPoint",
    "FrequencyLadder",
    "OPPTable",
]

#: One gigahertz in hertz.
GHZ = 1e9
#: One megahertz in hertz.
MHZ = 1e6

#: The eight DVFS frequencies used throughout the paper, in Hz.
PAPER_FREQUENCIES_HZ: tuple[float, ...] = (
    0.20 * GHZ,
    0.45 * GHZ,
    0.72 * GHZ,
    0.92 * GHZ,
    1.10 * GHZ,
    1.20 * GHZ,
    1.30 * GHZ,
    1.40 * GHZ,
)


@dataclass(frozen=True)
class OperatingPoint:
    """A single operating performance point: core configuration + frequency."""

    config: CoreConfig
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")

    @property
    def frequency_ghz(self) -> float:
        return self.frequency_hz / GHZ

    def with_frequency(self, frequency_hz: float) -> "OperatingPoint":
        return OperatingPoint(self.config, frequency_hz)

    def with_config(self, config: CoreConfig) -> "OperatingPoint":
        return OperatingPoint(config, self.frequency_hz)

    def __str__(self) -> str:
        return f"{self.config}@{self.frequency_ghz:.2f}GHz"


class FrequencyLadder:
    """An ordered set of permitted DVFS frequencies with step-wise navigation."""

    def __init__(self, frequencies_hz: Sequence[float] = PAPER_FREQUENCIES_HZ):
        freqs = sorted(set(float(f) for f in frequencies_hz))
        if not freqs:
            raise ValueError("the frequency ladder must contain at least one frequency")
        if any(f <= 0 for f in freqs):
            raise ValueError("all frequencies must be positive")
        self._frequencies = tuple(freqs)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def frequencies_hz(self) -> tuple[float, ...]:
        return self._frequencies

    def __len__(self) -> int:
        return len(self._frequencies)

    def __iter__(self) -> Iterator[float]:
        return iter(self._frequencies)

    def __contains__(self, frequency_hz: float) -> bool:
        return any(abs(f - frequency_hz) < 1.0 for f in self._frequencies)

    @property
    def lowest(self) -> float:
        return self._frequencies[0]

    @property
    def highest(self) -> float:
        return self._frequencies[-1]

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def index_of(self, frequency_hz: float) -> int:
        """Index of the ladder entry nearest to ``frequency_hz``."""
        pos = bisect_left(self._frequencies, frequency_hz)
        if pos == 0:
            return 0
        if pos == len(self._frequencies):
            return len(self._frequencies) - 1
        before = self._frequencies[pos - 1]
        after = self._frequencies[pos]
        return pos if (after - frequency_hz) < (frequency_hz - before) else pos - 1

    def snap(self, frequency_hz: float) -> float:
        """Return the ladder frequency nearest to ``frequency_hz``."""
        return self._frequencies[self.index_of(frequency_hz)]

    def step_down(self, frequency_hz: float, steps: int = 1) -> float:
        """The frequency ``steps`` ladder positions below (clamped at the bottom)."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        idx = max(self.index_of(frequency_hz) - steps, 0)
        return self._frequencies[idx]

    def step_up(self, frequency_hz: float, steps: int = 1) -> float:
        """The frequency ``steps`` ladder positions above (clamped at the top)."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        idx = min(self.index_of(frequency_hz) + steps, len(self._frequencies) - 1)
        return self._frequencies[idx]

    def is_lowest(self, frequency_hz: float) -> bool:
        return self.index_of(frequency_hz) == 0

    def is_highest(self, frequency_hz: float) -> bool:
        return self.index_of(frequency_hz) == len(self._frequencies) - 1


class OPPTable:
    """The full set of operating performance points of a platform.

    Combines a frequency ladder with the ordered core-configuration ladder and
    provides the OPP-level navigation the governor and the baseline governors
    need (lowest/highest OPP, enumeration for characterisation sweeps).
    """

    def __init__(
        self,
        frequency_ladder: FrequencyLadder | None = None,
        configs: Sequence[CoreConfig] | None = None,
    ):
        self.frequencies = frequency_ladder if frequency_ladder is not None else FrequencyLadder()
        self.configs: tuple[CoreConfig, ...] = tuple(configs) if configs is not None else tuple(core_ladder())
        if not self.configs:
            raise ValueError("the OPP table needs at least one core configuration")

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def all_points(self) -> list[OperatingPoint]:
        """Every (configuration, frequency) combination, lowest first."""
        return [
            OperatingPoint(cfg, f)
            for cfg in self.configs
            for f in self.frequencies
        ]

    def __len__(self) -> int:
        return len(self.configs) * len(self.frequencies)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self.all_points())

    # ------------------------------------------------------------------
    # Extremes
    # ------------------------------------------------------------------
    @property
    def lowest(self) -> OperatingPoint:
        """The minimum-power OPP: the smallest configuration at the lowest frequency."""
        return OperatingPoint(self.configs[0], self.frequencies.lowest)

    @property
    def highest(self) -> OperatingPoint:
        """The maximum-performance OPP: the largest configuration at the highest frequency."""
        return OperatingPoint(self.configs[-1], self.frequencies.highest)

    # ------------------------------------------------------------------
    # Config ladder navigation
    # ------------------------------------------------------------------
    def config_index(self, config: CoreConfig) -> int:
        """Index of ``config`` in the configuration ladder."""
        try:
            return self.configs.index(config)
        except ValueError as exc:
            raise KeyError(f"configuration {config} is not in the OPP table") from exc

    def config_step_down(self, config: CoreConfig, steps: int = 1) -> CoreConfig:
        idx = max(self.config_index(config) - steps, 0)
        return self.configs[idx]

    def config_step_up(self, config: CoreConfig, steps: int = 1) -> CoreConfig:
        idx = min(self.config_index(config) + steps, len(self.configs) - 1)
        return self.configs[idx]

    def contains_config(self, config: CoreConfig) -> bool:
        """Whether ``config`` is one of the ladder's characterised rungs."""
        return config in self.configs

    @property
    def max_little(self) -> int:
        """Largest LITTLE-core count appearing in the table."""
        return max(c.n_little for c in self.configs)

    @property
    def max_big(self) -> int:
        """Largest big-core count appearing in the table."""
        return max(c.n_big for c in self.configs)

    def allows_config(self, config: CoreConfig) -> bool:
        """Whether ``config`` lies within the platform's cluster sizes.

        The governor's independent LITTLE/big scaling factors (paper eq. 2)
        can produce configurations off the characterised ladder (e.g. two
        LITTLE cores plus one big core); any configuration within the cluster
        sizes is electrically valid and allowed here.
        """
        return 1 <= config.n_little <= self.max_little and 0 <= config.n_big <= self.max_big
