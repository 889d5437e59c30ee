"""Core types and core configurations for a big.LITTLE MP-SoC.

The Exynos5422 used in the paper has two clusters: four low-power ARM
Cortex-A7 ('LITTLE') cores and four high-performance ARM Cortex-A15 ('big')
cores.  Dynamic power management (DPM) is performed by hot-plugging cores in
and out at runtime, so the unit of DPM state is the *core configuration*: how
many LITTLE and how many big cores are currently online.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["CoreType", "CoreConfig", "CORE_LADDER", "core_ladder"]


class CoreType(str, Enum):
    """The two core types of a big.LITTLE system."""

    LITTLE = "LITTLE"
    BIG = "big"


@dataclass(frozen=True, order=True)
class CoreConfig:
    """Number of online LITTLE and big cores.

    The ordering used by ``order=True`` (first by LITTLE count, then by big
    count) is *not* the platform's power ordering; use
    :func:`core_ladder` / :class:`repro.soc.opp.OPPTable` for that.

    Attributes
    ----------
    n_little:
        Number of online LITTLE (A7) cores.  At least one core must stay
        online to run the OS, and on the Exynos5422 CPU0 is a LITTLE core, so
        ``n_little >= 1``.
    n_big:
        Number of online big (A15) cores.
    """

    n_little: int
    n_big: int

    def __post_init__(self) -> None:
        if self.n_little < 1:
            raise ValueError("at least one LITTLE core must remain online")
        if self.n_big < 0:
            raise ValueError("n_big must be non-negative")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Total number of online cores."""
        return self.n_little + self.n_big

    def count(self, core_type: CoreType) -> int:
        """Number of online cores of the given type."""
        return self.n_little if core_type is CoreType.LITTLE else self.n_big

    def as_tuple(self) -> tuple[int, int]:
        return (self.n_little, self.n_big)

    # ------------------------------------------------------------------
    # Hot-plug transitions
    # ------------------------------------------------------------------
    def can_add(self, core_type: CoreType, max_little: int = 4, max_big: int = 4) -> bool:
        """Whether one more core of ``core_type`` can be brought online."""
        if core_type is CoreType.LITTLE:
            return self.n_little < max_little
        return self.n_big < max_big

    def can_remove(self, core_type: CoreType) -> bool:
        """Whether one core of ``core_type`` can be taken offline."""
        if core_type is CoreType.LITTLE:
            return self.n_little > 1
        return self.n_big > 0

    def add(self, core_type: CoreType, max_little: int = 4, max_big: int = 4) -> "CoreConfig":
        """Return the configuration with one more core of ``core_type`` online.

        If the cluster is already full the configuration is returned
        unchanged (hot-plug requests beyond the cluster size are no-ops on
        the real platform too).
        """
        if not self.can_add(core_type, max_little, max_big):
            return self
        if core_type is CoreType.LITTLE:
            return CoreConfig(self.n_little + 1, self.n_big)
        return CoreConfig(self.n_little, self.n_big + 1)

    def remove(self, core_type: CoreType) -> "CoreConfig":
        """Return the configuration with one core of ``core_type`` offline.

        Removing the last LITTLE core (or a big core when none is online) is
        a no-op.
        """
        if not self.can_remove(core_type):
            return self
        if core_type is CoreType.LITTLE:
            return CoreConfig(self.n_little - 1, self.n_big)
        return CoreConfig(self.n_little, self.n_big - 1)

    def __str__(self) -> str:
        if self.n_big == 0:
            return f"{self.n_little}xA7"
        return f"{self.n_little}xA7+{self.n_big}xA15"


def core_ladder(max_little: int = 4, max_big: int = 4) -> list[CoreConfig]:
    """The ordered ladder of core configurations used by the paper (Fig. 4).

    LITTLE cores are filled first, then big cores are added on top of a full
    LITTLE cluster:

        1xA7, 2xA7, 3xA7, 4xA7, 4xA7+1xA15, ..., 4xA7+4xA15

    This matches the configurations the paper characterises and is the
    natural monotone-power ordering for the governor's DPM decisions.
    """
    ladder: list[CoreConfig] = [CoreConfig(n, 0) for n in range(1, max_little + 1)]
    ladder.extend(CoreConfig(max_little, n) for n in range(1, max_big + 1))
    return ladder


#: The default Exynos5422 ladder (4 LITTLE + 4 big).
CORE_LADDER: list[CoreConfig] = core_ladder()
