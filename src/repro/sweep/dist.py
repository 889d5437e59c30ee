"""Sharded campaign execution: partition a campaign, run shards, merge stores.

A :class:`~repro.sweep.spec.SweepSpec` campaign is embarrassingly parallel —
every cell is an independent simulation keyed by its content hash — so the
natural way past one machine's process pool is to *shard* the campaign:

* :func:`shard_index_of` / :func:`partition_scenarios` — **deterministic,
  content-addressed sharding**.  A scenario belongs to shard
  ``int(scenario_id, 16) % n_shards``: membership depends only on the
  scenario's content hash, never on expansion order, axis spelling or which
  host does the partitioning, so N workers expanding the same spec agree on
  disjoint subsets whose union is the whole campaign;
* :class:`ShardPlan` — one worker's slice of a campaign, stamped into a JSON
  **shard manifest** (campaign hash, shard count/index, engine choice, spec
  snapshot).  Workers rebuild the spec from the snapshot and verify the
  recomputed campaign hash against the stamped one, so a drifted preset, a
  mis-copied spec file or a stale shard store is caught before any
  simulation runs.

Multi-host execution: run ``python -m repro shard --spec campaign.json
--num-shards N --shard-index I --store shard-I.jsonl`` on each host (each
shard runs on that host's :class:`~repro.sweep.runner.SweepRunner` worker
slots), collect the shard stores, and assemble the final store with ``python -m repro store merge DEST shard-*.jsonl`` — the
merged store is what ``sweep --resume``, ``aggregate`` and ``boundary``
consume unchanged, and re-running any shard against it is pure cache hits.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .spec import ScenarioConfig, SweepSpec, campaign_hash_of, expand_unique

__all__ = [
    "MANIFEST_VERSION",
    "ShardPlan",
    "shard_index_of",
    "partition_scenarios",
]

#: Shard manifest layout version.
MANIFEST_VERSION = 1

#: Engine names a manifest may carry (mapped to ``build_system(fast=...)``).
_ENGINES = ("fast", "exact")


def shard_index_of(scenario_id: str, n_shards: int) -> int:
    """The shard a scenario belongs to — a pure function of its content hash."""
    return int(scenario_id, 16) % int(n_shards)


def partition_scenarios(
    configs: Sequence[ScenarioConfig], n_shards: int, shard_index: int
) -> list[ScenarioConfig]:
    """This shard's subset of a config list, in the list's (partition) order."""
    return [c for c in configs if shard_index_of(c.scenario_id, n_shards) == shard_index]


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of a campaign: which scenarios, under which contract.

    Attributes
    ----------
    spec:
        The full campaign (every worker holds the whole spec; the slice is
        computed, not enumerated, so manifests stay small at any grid size).
    n_shards / shard_index:
        The partition geometry; ``shard_index`` is 0-based.
    engine:
        ``"fast"`` or ``"exact"`` — the simulation engine every shard of the
        campaign must use.  Stamped into the manifest (a half-fast,
        half-exact campaign would be silently inconsistent) even though it
        is not part of any scenario's identity.
    """

    spec: SweepSpec
    n_shards: int
    shard_index: int
    engine: str = "fast"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_shards", int(self.n_shards))
        object.__setattr__(self, "shard_index", int(self.shard_index))
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if not 0 <= self.shard_index < self.n_shards:
            raise ValueError(
                f"shard_index must be in [0, {self.n_shards}) (got {self.shard_index})"
            )
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES} (got {self.engine!r})")

    @classmethod
    def partition(
        cls,
        spec: Union[SweepSpec, ScenarioConfig],
        n_shards: int,
        shard_index: int,
        engine: str = "fast",
    ) -> "ShardPlan":
        """Split a campaign: the plan for shard ``shard_index`` of ``n_shards``.

        All N plans of one campaign are disjoint and their union is exactly
        the campaign's de-duplicated expansion, regardless of which process
        computes them (membership is content-addressed, see
        :func:`shard_index_of`).
        """
        if isinstance(spec, ScenarioConfig):
            spec = SweepSpec(base=spec)
        return cls(spec=spec, n_shards=n_shards, shard_index=shard_index, engine=engine)

    # ------------------------------------------------------------------
    # Expanding a 100k-cell campaign hashes 100k canonical-JSON configs, so
    # the plan expands once and every consumer (hash, configs, manifest,
    # banner lines) reads the cache.  cached_property writes straight into
    # __dict__, which a frozen dataclass permits.
    @functools.cached_property
    def _expanded(self) -> tuple[ScenarioConfig, ...]:
        return tuple(expand_unique(self.spec))

    @functools.cached_property
    def campaign_hash(self) -> str:
        """The campaign's content hash — shared by all shards of one campaign."""
        return campaign_hash_of(c.scenario_id for c in self._expanded)

    def configs(self) -> list[ScenarioConfig]:
        """The scenarios this shard executes, in partition order."""
        return partition_scenarios(self._expanded, self.n_shards, self.shard_index)

    def with_geometry(
        self, n_shards: int, shard_index: int, engine: Optional[str] = None
    ) -> "ShardPlan":
        """This campaign re-sliced: same spec, different shard geometry.

        Carries the cached expansion across (membership is content-addressed,
        so the expansion is geometry-independent) — re-slicing a verified
        manifest's plan for another worker costs no re-hashing.
        """
        plan = ShardPlan(
            spec=self.spec,
            n_shards=n_shards,
            shard_index=shard_index,
            engine=engine if engine is not None else self.engine,
        )
        if "_expanded" in self.__dict__:
            plan.__dict__["_expanded"] = self._expanded
            plan.__dict__["campaign_hash"] = self.campaign_hash
        return plan

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self) -> dict:
        """The JSON shard manifest: identity, geometry, engine, spec snapshot."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "campaign_hash": self.campaign_hash,
            "n_shards": self.n_shards,
            "shard_index": self.shard_index,
            "engine": self.engine,
            "total_scenarios": len(self._expanded),
            "shard_scenarios": len(self.configs()),
            "spec": self.spec.to_dict(),
        }

    def write_manifest(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_manifest(cls, source: "str | Path | dict") -> "ShardPlan":
        """Load and *verify* a manifest.

        The spec snapshot is re-expanded and its campaign hash recomputed;
        a mismatch against the stamped hash means the snapshot was edited,
        the manifest was written by an incompatible config schema, or two
        different campaigns are being mixed — all of which must stop a
        worker before it burns CPU on the wrong campaign.
        """
        if isinstance(source, (str, Path)):
            try:
                data = json.loads(Path(source).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"unreadable shard manifest {source}: {exc}") from None
        else:
            data = dict(source)
        version = data.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"shard manifest version {version!r} is not supported "
                f"(this build writes v{MANIFEST_VERSION})"
            )
        try:
            spec = SweepSpec.from_dict(data["spec"])
            plan = cls(
                spec=spec,
                n_shards=data["n_shards"],
                shard_index=data["shard_index"],
                engine=data.get("engine", "fast"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid shard manifest: {exc}") from None
        stamped = data.get("campaign_hash")
        if stamped != plan.campaign_hash:
            raise ValueError(
                f"shard manifest campaign hash {stamped!r} does not match the "
                f"spec snapshot (expands to {plan.campaign_hash!r}); the manifest "
                "was edited or belongs to a different campaign"
            )
        return plan

    def describes_same_campaign(self, other: "ShardPlan") -> bool:
        """Whether another plan is a slice of the same partitioned campaign."""
        return (
            self.campaign_hash == other.campaign_hash
            and self.n_shards == other.n_shards
            and self.engine == other.engine
        )
