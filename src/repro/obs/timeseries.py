"""Fixed-boundary log-bucket histograms and bounded rolling time-windows.

The distribution side of :mod:`repro.obs`: a :class:`Histogram` keeps a
*shape* — sample counts in fixed, typically
log-spaced buckets — from which quantiles (p50/p95/p99) are estimated by
linear interpolation inside the bucket that crosses the target rank.  Fixed
boundaries are what make histograms **mergeable**: two histograms recorded
by different processes (the shards of one campaign, or two serve
replicas) add bucket-wise into one distribution, exactly the property
Prometheus exposition (:mod:`repro.obs.promexport`) needs for its
cumulative ``_bucket`` series.

:class:`RollingWindow` is the complementary *recent* view: a bounded deque
of ``(t, value)`` samples evicted by age and by count, answering "p95 over
the last 30 s" and "events per second right now" for the live view
(``repro obs top``) where a since-process-start histogram would be too
sluggish to watch.

Quantile estimates are clamped into ``[min_observed, max_observed]`` — an
estimated p95 can never exceed the largest sample actually seen, however
coarse the buckets.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import deque
from typing import Iterable, Optional, Sequence

__all__ = [
    "Histogram",
    "RollingWindow",
    "log_bucket_boundaries",
    "exact_quantile",
    "DEFAULT_LATENCY_BOUNDARIES",
    "DEFAULT_QUANTILES",
]

#: The quantiles every serialised histogram reports.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def log_bucket_boundaries(
    lo: float = 1e-4, hi: float = 60.0, per_decade: int = 3
) -> tuple:
    """Geometric bucket boundaries from ``lo`` to at least ``hi``.

    ``per_decade`` boundaries per power of ten, e.g. the default produces
    0.0001, 0.000215, 0.000464, 0.001, ... — even coverage in log space, so
    one set of buckets resolves sub-millisecond cache hits and minute-long
    simulations alike.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi (got lo={lo!r}, hi={hi!r})")
    if per_decade < 1:
        raise ValueError("per_decade must be at least 1")
    boundaries = []
    exponent = 0
    while True:
        value = lo * 10.0 ** (exponent / per_decade)
        boundaries.append(float(f"{value:.6g}"))  # trim float dust: 0.00046415888…
        if value >= hi:
            return tuple(boundaries)
        exponent += 1


#: Request/scenario latency buckets: 0.1 ms .. 60 s, 3 per decade.
DEFAULT_LATENCY_BOUNDARIES = log_bucket_boundaries(1e-4, 60.0, 3)


def exact_quantile(values: Sequence[float], q: float) -> Optional[float]:
    """The q-quantile of raw samples (linear interpolation, None when empty)."""
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1] (got {q!r})")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class Histogram:
    """A fixed-boundary bucket histogram with count/sum/min/max.

    ``boundaries`` are the *upper* edges of the finite buckets; one implicit
    overflow bucket catches everything above the last edge.  Observation is
    O(log buckets) (``bisect``), merging is element-wise addition, and the
    whole state round-trips through :meth:`to_dict`/:meth:`from_dict` so
    histograms serialise into the service's ``metrics.json`` snapshot next
    to its counters and gauges.
    """

    __slots__ = ("boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, boundaries: Optional[Iterable[float]] = None):
        bounds = tuple(
            float(b) for b in (boundaries if boundaries is not None else DEFAULT_LATENCY_BOUNDARIES)
        )
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must be strictly increasing: {bounds}")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram (same boundaries) into this one."""
        if other.boundaries != self.boundaries:
            raise ValueError(
                "cannot merge histograms with different boundaries "
                f"({len(self.boundaries)} vs {len(other.boundaries)} buckets)"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile: interpolated inside the crossing bucket.

        The estimate is clamped to ``[min, max]`` of the *observed* samples,
        so coarse buckets can blur a quantile but never push it past the
        largest value actually recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1] (got {q!r})")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                lower = self.boundaries[i - 1] if i > 0 else min(self.min, self.boundaries[0])
                upper = self.boundaries[i] if i < len(self.boundaries) else self.max
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return min(max(estimate, self.min), self.max)
        return self.max

    def quantiles(self, qs: Sequence[float] = DEFAULT_QUANTILES) -> dict:
        return {f"p{int(q * 100)}": self.quantile(q) for q in qs}

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def cumulative_buckets(self) -> list:
        """``(upper_edge, cumulative_count)`` pairs, Prometheus-style.

        The final pair is ``(math.inf, count)`` — the ``le="+Inf"`` bucket.
        """
        pairs = []
        cumulative = 0
        for edge, bucket_count in zip(self.boundaries, self.counts):
            cumulative += bucket_count
            pairs.append((edge, cumulative))
        pairs.append((math.inf, self.count))
        return pairs

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        empty = self.count == 0
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.sum, 9),
            # min/max share the quantiles' rounding so the serialised
            # document keeps the clamp invariant (p95 <= max) exactly
            "min": None if empty else round(self.min, 9),
            "max": None if empty else round(self.max, 9),
            "mean": None if empty else round(self.sum / self.count, 9),
            "quantiles": {
                name: (None if value is None else round(value, 9))
                for name, value in self.quantiles().items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls(boundaries=data["boundaries"])
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"counts length {len(counts)} does not match "
                f"{len(histogram.boundaries)} boundaries"
            )
        histogram.counts = counts
        histogram.count = int(data["count"])
        histogram.sum = float(data["sum"])
        histogram.min = math.inf if data.get("min") is None else float(data["min"])
        histogram.max = -math.inf if data.get("max") is None else float(data["max"])
        return histogram


class RollingWindow:
    """A bounded window of recent ``(t, value)`` samples.

    Samples older than ``window_s`` are evicted on read and write; the deque
    is additionally capped at ``max_samples`` so a hot loop cannot grow it
    without bound.  Quantiles over the window are exact (computed from the
    retained samples), which is what a live view wants — the long-run shape
    belongs to :class:`Histogram`.
    """

    __slots__ = ("window_s", "max_samples", "_samples")

    def __init__(self, window_s: float = 60.0, max_samples: int = 4096):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        self.window_s = float(window_s)
        self.max_samples = int(max_samples)
        self._samples: deque = deque()

    def observe(self, value: float, t: Optional[float] = None) -> None:
        now = time.time() if t is None else float(t)
        self._samples.append((now, float(value)))
        if len(self._samples) > self.max_samples:
            self._samples.popleft()
        self._evict(now)

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        samples = self._samples
        while samples and samples[0][0] < horizon:
            samples.popleft()

    # ------------------------------------------------------------------
    def values(self, now: Optional[float] = None) -> list:
        self._evict(time.time() if now is None else float(now))
        return [value for _, value in self._samples]

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float, now: Optional[float] = None) -> Optional[float]:
        return exact_quantile(self.values(now), q)

    def rate(self, now: Optional[float] = None) -> float:
        """Samples per second over the (occupied part of the) window."""
        now = time.time() if now is None else float(now)
        self._evict(now)
        if not self._samples:
            return 0.0
        elapsed = max(now - self._samples[0][0], 1e-9)
        return len(self._samples) / elapsed
