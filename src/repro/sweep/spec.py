"""Declarative scenario grids: component specs, axes and sweep expansion.

The paper's evaluation spans two rigs — the PV-array outdoor system of
Sections V-B/C/D and the controlled laboratory supply of Section V-A — and
each cell of its grids is one closed-loop simulation.  This module describes
such grids declaratively:

* :class:`ScenarioConfig` — one fully specified simulation, composed of five
  registry-backed :class:`~repro.registry.ComponentSpec`s (``supply``,
  ``platform``, ``capacitor``, ``governor``, ``workload``) plus the scalar
  run knobs (``duration_s``, ``monitor_quantised``); serialisable to
  canonical JSON (schema v2) and content-addressed by
  :attr:`~ScenarioConfig.scenario_id`;
* :class:`Axis` — one swept dimension, addressed by a dotted path *inside*
  the composition (``"supply.weather"``, ``"capacitor.capacitance_f"``,
  ``"governor.kind"``) or a PR-1-era flat alias (``"weather"``, ``"seed"``,
  ``"capacitance_f"``, ...);
* :class:`SweepSpec` — a base config plus axes, expanded by
  :meth:`SweepSpec.scenarios` into the full cartesian product.

The content hash is what makes the result store (:mod:`repro.sweep.store`)
cache-correct: registry defaults are folded into every spec and numeric
spellings are normalised, so two configs with identical physics hash
identically.  :meth:`ScenarioConfig.from_dict` also accepts PR-1-era flat
records (schema v1) and upgrades them to the composed form.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Optional, Sequence

from ..energy.irradiance import ShadowingEvent, WeatherCondition
from ..energy.supercapacitor import PAPER_BUFFER_CAPACITANCE_F
from ..registry import ComponentSpec, Registry, jsonable_value, normalise_value
from .components import CAPACITORS, GOVERNORS, PLATFORMS, SUPPLIES, WORKLOADS_REGISTRY

__all__ = [
    "SCHEMA_VERSION",
    "AXIS_ALIASES",
    "ShadowSpec",
    "ScenarioConfig",
    "Axis",
    "SweepSpec",
    "campaign_hash_of",
    "expand_unique",
    "resolve_axis_path",
    "component_label",
]


def campaign_hash_of(scenario_ids) -> str:
    """Content hash of a campaign: its (sorted) scenario-id set.

    Shared by :meth:`SweepSpec.campaign_hash` and the dist layer's
    :class:`~repro.sweep.dist.ShardPlan`, which hashes an already-expanded
    scenario list instead of re-expanding the spec.
    """
    digest = hashlib.sha256()
    for scenario_id in sorted(scenario_ids):
        digest.update(scenario_id.encode())
    return digest.hexdigest()[:16]

#: Version stamped into serialised configs and store records.  v1 was the
#: PR-1 flat layout (governor/weather/capacitance_f/... as top-level keys).
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ShadowSpec:
    """A deterministic shadowing episode, JSON-friendly.

    Mirrors :class:`repro.energy.irradiance.ShadowingEvent` but lives in the
    config layer so scenario configs stay plain data.
    """

    start_s: float
    duration_s: float
    attenuation: float = 0.2
    ramp_s: float = 0.5

    def __post_init__(self) -> None:
        # Normalise to float so int-vs-float spellings hash identically.
        for name in ("start_s", "duration_s", "attenuation", "ramp_s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Delegate validation to the simulation-side event.
        self.to_event()

    def to_event(self) -> ShadowingEvent:
        return ShadowingEvent(
            start_s=self.start_s,
            duration_s=self.duration_s,
            attenuation=self.attenuation,
            ramp_s=self.ramp_s,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ShadowSpec":
        return cls(
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            attenuation=float(data.get("attenuation", 0.2)),
            ramp_s=float(data.get("ramp_s", 0.5)),
        )


#: The five component fields of a scenario, in serialisation order.
_COMPONENT_FIELDS: tuple[str, ...] = ("supply", "platform", "capacitor", "governor", "workload")

#: Registry backing each component field.
_COMPONENT_REGISTRIES: dict[str, Registry] = {
    "supply": SUPPLIES,
    "platform": PLATFORMS,
    "capacitor": CAPACITORS,
    "governor": GOVERNORS,
    "workload": WORKLOADS_REGISTRY,
}

_SCALAR_FIELDS: tuple[str, ...] = ("duration_s", "monitor_quantised")

#: PR-1 flat axis/field names mapped onto the composed schema.
AXIS_ALIASES: dict[str, str] = {
    "weather": "supply.weather",
    "seed": "supply.seed",
    "shadowing": "supply.shadowing",
    "capacitance_f": "capacitor.capacitance_f",
    "governor_overrides": "governor.params",
}


def resolve_axis_path(name: str) -> str:
    """Canonicalise an axis/field path, expanding PR-1 flat aliases.

    ``"<component>.kind"`` collapses to the bare component name (the two
    spellings are one dimension, so duplicate detection must see them as
    equal).  Raises ``ValueError`` when the path's head is neither a scalar
    field nor a component field.
    """
    path = AXIS_ALIASES.get(name, name)
    head, _, sub = path.partition(".")
    if head not in _SCALAR_FIELDS and head not in _COMPONENT_FIELDS:
        raise ValueError(
            f"unknown axis {name!r}; use a scalar field "
            f"({', '.join(_SCALAR_FIELDS)}), a component "
            f"({', '.join(_COMPONENT_FIELDS)}), a dotted component path like "
            f"'supply.weather', or a flat alias ({', '.join(sorted(AXIS_ALIASES))})"
        )
    if head in _COMPONENT_FIELDS and sub == "kind":
        return head
    return path


def _non_default_params(spec: ComponentSpec, registry: Registry) -> dict:
    """The parameters of a (canonical) spec that differ from the kind's defaults."""
    defaults = registry.get(spec.kind).defaults
    return {
        k: v
        for k, v in spec.params_dict().items()
        if k not in defaults or normalise_value(defaults[k]) != normalise_value(v)
    }


def _switch_kind(spec: ComponentSpec, new_kind: str, registry: Registry) -> ComponentSpec:
    """Change a spec's kind, keeping only the *portable* parameters.

    Default-valued parameters belong to the old kind's canonical folding and
    are dropped; explicitly-set parameters carry over only when the new kind
    also declares them (always, for open-parameter kinds like governors, so
    a governor axis sweeps overrides the way the flat schema did).  This
    lets a whole-component axis hop between kinds — e.g. a pinned pv-array
    ``weather`` does not poison the ``constant-power`` leg of a supply axis.
    """
    kept = _non_default_params(spec, registry)
    entry = registry.get(new_kind)
    if not entry.open_params:
        kept = {k: v for k, v in kept.items() if k in entry.defaults}
    return ComponentSpec(kind=new_kind, params=kept)


def component_label(spec: ComponentSpec, field: str) -> str:
    """A distinguishing report label for one component of a scenario.

    The kind name alone when the spec is all-defaults, otherwise the kind
    plus the differing parameters — so two ``constant-power`` supplies at
    different ``power_w`` never collapse into one aggregation group.
    """
    extras = _non_default_params(spec, _COMPONENT_REGISTRIES[field])
    if not extras:
        return spec.kind
    inner = ",".join(f"{k}={v}" for k, v in sorted(extras.items()))
    return f"{spec.kind}({inner})"


@dataclass(frozen=True, init=False)
class ScenarioConfig:
    """One concrete simulation scenario, fully specified by plain data.

    A scenario is the composition of five registry-backed component specs
    plus two scalar knobs:

    Attributes
    ----------
    governor:
        ``{"kind": <registered governor>, **ControllerParameters overrides}``.
        Overrides are only meaningful for the tunable power-neutral family.
    supply:
        ``{"kind": "pv-array" | "controlled-voltage" | "constant-power" |
        "trace-file", **params}`` — see :mod:`repro.sweep.components`.
    platform:
        ``{"kind": "exynos5422", **electrical-envelope overrides}``.
    capacitor:
        ``{"kind": "supercapacitor", "capacitance_f": ..., "esr_ohm": ...,
        "leakage_conductance_s": ..., "max_voltage": ...,
        "initial_voltage": V | null | "open-circuit"}``.  ``esr_ohm`` is
        validated and hashed but not modelled.
    workload:
        ``{"kind": "table2-render" | "fig7-frame" | "synthetic", **params}``.
    duration_s / monitor_quantised:
        Simulation length and monitor-quantisation flag.

    PR-1-era flat keyword arguments (``weather``, ``seed``, ``capacitance_f``,
    ``governor_overrides``, ``shadowing``) are still accepted and fold into
    the corresponding component spec, so existing call sites keep working.
    Registry defaults are folded into every spec on construction, making the
    canonical JSON — and therefore :attr:`scenario_id` — independent of how
    sparsely the config was spelled.
    """

    governor: ComponentSpec
    supply: ComponentSpec
    platform: ComponentSpec
    capacitor: ComponentSpec
    workload: ComponentSpec
    duration_s: float
    monitor_quantised: bool

    def __init__(
        self,
        governor: ComponentSpec | Mapping | str,
        supply: ComponentSpec | Mapping | str | None = None,
        platform: ComponentSpec | Mapping | str | None = None,
        capacitor: ComponentSpec | Mapping | str | None = None,
        workload: ComponentSpec | Mapping | str | None = None,
        duration_s: float = 60.0,
        monitor_quantised: bool = True,
        *,
        weather: "WeatherCondition | str | None" = None,
        seed: Optional[int] = None,
        capacitance_f: Optional[float] = None,
        governor_overrides: Optional[Mapping | Sequence] = None,
        shadowing: Optional[Sequence] = None,
    ):
        if not governor:
            raise ValueError("governor must be a non-empty name or component spec")
        governor_spec = ComponentSpec.coerce(governor)
        if governor_overrides:
            governor_spec = governor_spec.with_params(**dict(governor_overrides))

        supply_spec = ComponentSpec.coerce(supply) if supply is not None else ComponentSpec("pv-array")
        legacy_supply: dict = {}
        if weather is not None:
            legacy_supply["weather"] = weather.value if isinstance(weather, WeatherCondition) else str(weather)
        if seed is not None:
            legacy_supply["seed"] = int(seed)
        if shadowing is not None and len(tuple(shadowing)) > 0:
            legacy_supply["shadowing"] = tuple(shadowing)
        if legacy_supply:
            if supply_spec.kind != "pv-array":
                raise ValueError(
                    "weather/seed/shadowing are pv-array parameters; set them on the "
                    f"supply spec instead (supply kind is {supply_spec.kind!r})"
                )
            supply_spec = supply_spec.with_params(**legacy_supply)

        platform_spec = (
            ComponentSpec.coerce(platform) if platform is not None else ComponentSpec("exynos5422")
        )
        capacitor_spec = (
            ComponentSpec.coerce(capacitor)
            if capacitor is not None
            else ComponentSpec("supercapacitor")
        )
        if capacitance_f is not None:
            capacitor_spec = capacitor_spec.with_params(capacitance_f=float(capacitance_f))
        workload_spec = (
            ComponentSpec.coerce(workload) if workload is not None else ComponentSpec("table2-render")
        )

        # Canonicalise: validate kinds/params and fold registry defaults in,
        # so equivalent sparse and explicit spellings share one scenario_id.
        self._assign(
            governor=GOVERNORS.canonical(governor_spec),
            supply=SUPPLIES.canonical(supply_spec),
            platform=PLATFORMS.canonical(platform_spec),
            capacitor=CAPACITORS.canonical(capacitor_spec),
            workload=WORKLOADS_REGISTRY.canonical(workload_spec),
            duration_s=duration_s,
            monitor_quantised=monitor_quantised,
        )

    def _assign(
        self,
        governor: ComponentSpec,
        supply: ComponentSpec,
        platform: ComponentSpec,
        capacitor: ComponentSpec,
        workload: ComponentSpec,
        duration_s: float,
        monitor_quantised: bool,
    ) -> None:
        """Set the fields from canonical components and check the invariants.

        Shared by :meth:`__init__` and :meth:`with_value`, so scenario
        validation lives in one place.
        """
        object.__setattr__(self, "governor", governor)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "platform", platform)
        object.__setattr__(self, "capacitor", capacitor)
        object.__setattr__(self, "workload", workload)

        duration_s = float(duration_s)
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        object.__setattr__(self, "duration_s", duration_s)
        object.__setattr__(self, "monitor_quantised", bool(monitor_quantised))

        cap = capacitor.get("capacitance_f")
        if cap is None or float(cap) <= 0:
            raise ValueError("capacitance_f must be positive")

    # ------------------------------------------------------------------
    # Flat-schema compatibility accessors
    # ------------------------------------------------------------------
    @property
    def weather(self) -> Optional[str]:
        """The pv-array weather preset (None for other supply kinds)."""
        return self.supply.get("weather")

    @property
    def seed(self) -> Optional[int]:
        """The pv-array irradiance seed (None for other supply kinds)."""
        value = self.supply.get("seed")
        return None if value is None else int(value)

    @property
    def capacitance_f(self) -> float:
        return float(self.capacitor.get("capacitance_f", PAPER_BUFFER_CAPACITANCE_F))

    @property
    def governor_overrides(self) -> tuple[tuple[str, object], ...]:
        return self.governor.params

    @property
    def shadowing(self) -> tuple[ShadowSpec, ...]:
        return tuple(ShadowSpec.from_dict(s) for s in self.supply.get("shadowing") or ())

    def overrides_dict(self) -> dict:
        return self.governor.params_dict()

    # ------------------------------------------------------------------
    # Dotted-path access (shared by Axis expansion and aggregation)
    # ------------------------------------------------------------------
    def get(self, path: str):
        """Read a value by dotted path (``"supply.weather"``) or alias."""
        path = resolve_axis_path(path)
        head, _, sub = path.partition(".")
        if head in _SCALAR_FIELDS:
            return getattr(self, head)
        spec: ComponentSpec = getattr(self, head)
        if not sub or sub == "kind":
            return spec.kind
        if sub == "params":
            return spec.params_dict()
        return spec.get(sub)

    def with_value(self, path: str, value) -> "ScenarioConfig":
        """A copy with one dotted path (or alias) replaced.

        * ``"duration_s"`` — scalar replacement;
        * ``"supply"`` with a mapping/spec — whole-component replacement;
        * ``"governor"`` / ``"governor.kind"`` with a string — kind switch
          keeping explicitly-set (non-default) parameters;
        * ``"governor.params"`` — wholesale parameter replacement;
        * ``"capacitor.capacitance_f"`` — single parameter set/override.

        Only the replaced component is re-canonicalised: the other four are
        canonical already (and canonicalisation is idempotent), so the copy
        equals — field for field, and in :attr:`scenario_id` — what a full
        ``ScenarioConfig(...)`` rebuild would give, and raises the same
        ``ValueError`` for an invalid value.
        """
        path = resolve_axis_path(path)
        head, _, sub = path.partition(".")
        if head in _SCALAR_FIELDS:
            return self._replace(head, value)
        spec: ComponentSpec = getattr(self, head)
        registry = _COMPONENT_REGISTRIES[head]
        if not sub:  # bare component, or "<comp>.kind" (canonicalised away)
            if isinstance(value, str):
                spec = _switch_kind(spec, value, registry)
            else:
                spec = ComponentSpec.coerce(value)
        elif sub == "params":
            spec = ComponentSpec(kind=spec.kind, params=dict(value or {}))
        else:
            spec = spec.with_params(**{sub: value})
        return self._replace(head, registry.canonical(spec))

    def _replace(self, field: str, value) -> "ScenarioConfig":
        """A copy with one field set to an already-canonical value."""
        kwargs = {name: getattr(self, name) for name in (*_COMPONENT_FIELDS, *_SCALAR_FIELDS)}
        kwargs[field] = value
        # A fresh instance, not a copy of ``self.__dict__``: that holds the
        # cached ``scenario_id``, which must not carry over.
        config = object.__new__(ScenarioConfig)
        config._assign(**kwargs)
        return config

    # ------------------------------------------------------------------
    # Serialisation and identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        duration = self.duration_s
        return {
            "schema": SCHEMA_VERSION,
            "governor": self.governor.to_dict(),
            "supply": self.supply.to_dict(),
            "platform": self.platform.to_dict(),
            "capacitor": self.capacitor.to_dict(),
            "workload": self.workload.to_dict(),
            "duration_s": int(duration) if duration.is_integer() else duration,
            "monitor_quantised": self.monitor_quantised,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        """Load a config dict — composed (schema v2) or PR-1-era flat (v1).

        A schema-less dict is treated as v1 only when *no* component field is
        spelled in the composed ``{"kind": ...}`` form; hand-written dicts
        mixing a string governor with composed components parse as composed
        (any flat pv-array keys riding along still fold in).
        """
        schema = data.get("schema")
        composed = any(
            isinstance(data.get(name), (Mapping, ComponentSpec))
            for name in ("governor", *_COMPONENT_FIELDS)
        )
        if schema is None and not composed:
            return cls._from_v1_dict(data)
        if schema is not None and int(schema) > SCHEMA_VERSION:
            raise ValueError(
                f"scenario schema v{schema} is newer than this build understands "
                f"(up to v{SCHEMA_VERSION})"
            )
        flat_extras: dict = {}
        for key in ("weather", "seed", "capacitance_f", "governor_overrides", "shadowing"):
            if data.get(key) is not None:
                flat_extras[key] = data[key]
        return cls(
            governor=ComponentSpec.coerce(data["governor"]),
            supply=ComponentSpec.coerce(data.get("supply", "pv-array")),
            platform=ComponentSpec.coerce(data.get("platform", "exynos5422")),
            capacitor=ComponentSpec.coerce(data.get("capacitor", "supercapacitor")),
            workload=ComponentSpec.coerce(data.get("workload", "table2-render")),
            duration_s=float(data.get("duration_s", 60.0)),
            monitor_quantised=bool(data.get("monitor_quantised", True)),
            **flat_extras,
        )

    @classmethod
    def _from_v1_dict(cls, data: Mapping) -> "ScenarioConfig":
        """Upgrade a PR-1 flat record to the composed schema."""
        return cls(
            governor=str(data["governor"]),
            weather=str(data.get("weather", WeatherCondition.FULL_SUN.value)),
            duration_s=float(data.get("duration_s", 60.0)),
            seed=int(data.get("seed", 7)),
            capacitance_f=float(data.get("capacitance_f", PAPER_BUFFER_CAPACITANCE_F)),
            workload=str(data.get("workload", "table2-render")),
            governor_overrides=dict(data.get("governor_overrides", {})),
            shadowing=tuple(ShadowSpec.from_dict(s) for s in data.get("shadowing", [])),
            monitor_quantised=bool(data.get("monitor_quantised", True)),
        )

    def canonical_json(self) -> str:
        """Canonical serialisation used for content addressing.

        Byte for byte ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, assembled from each component's cached
        :attr:`~repro.registry.ComponentSpec.canonical_json` fragment.
        """
        duration = self.duration_s
        fields = {name: getattr(self, name).canonical_json for name in _COMPONENT_FIELDS}
        fields["duration_s"] = str(int(duration)) if duration.is_integer() else json.dumps(duration)
        fields["monitor_quantised"] = "true" if self.monitor_quantised else "false"
        fields["schema"] = str(SCHEMA_VERSION)
        return "{" + ",".join(f'"{key}":{fields[key]}' for key in sorted(fields)) + "}"

    @functools.cached_property
    def scenario_id(self) -> str:
        """Content hash of the config — the key in the result store.

        Computed once per instance (the config is frozen, so the hash cannot
        change): store lookups, runner dedup and shard partitioning all read
        the same id repeatedly.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def label(self) -> str:
        """A compact human-readable tag for progress lines and tables."""
        parts = [self.governor.kind]
        if self.supply.kind == "pv-array":
            parts.append(str(self.weather))
            parts.append(f"{1e3 * self.capacitance_f:g}mF")
            parts.append(f"seed{self.seed}")
        else:
            parts.append(self.supply.kind)
            power = self.supply.get("power_w")
            if power is not None:
                parts.append(f"{power:g}W")
            parts.append(f"{1e3 * self.capacitance_f:g}mF")
        if self.governor.params:
            parts.append("+".join(f"{k}={v}" for k, v in self.governor.params))
        if self.shadowing:
            parts.append(f"{len(self.shadowing)}shadow")
        return "/".join(parts)


def expand_unique(campaign) -> "list[ScenarioConfig]":
    """Expand a campaign into de-duplicated configs in stable partition order.

    ``campaign`` is a :class:`SweepSpec` or any sequence of configs.  First
    occurrence wins and order follows the spec's deterministic axis product
    (or the given sequence) — the one expansion every consumer (runners,
    shard partitioning, campaign hashing) must agree on.
    """
    scenarios = campaign.scenarios() if isinstance(campaign, SweepSpec) else list(campaign)
    unique: dict[str, ScenarioConfig] = {}
    for config in scenarios:
        unique.setdefault(config.scenario_id, config)
    return list(unique.values())


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a dotted config path and the values it takes.

    Paths address the composed schema (``"supply.weather"``,
    ``"capacitor.capacitance_f"``, ``"governor.kind"``, whole components like
    ``"supply"``, or scalars like ``"duration_s"``); PR-1 flat aliases
    (``"governor"``, ``"weather"``, ``"seed"``, ``"capacitance_f"``,
    ``"governor_overrides"``, ``"shadowing"``) keep working.
    """

    name: str
    values: tuple

    def __init__(self, name: str, values: Sequence):
        resolve_axis_path(name)  # raises on unknown heads
        values = tuple(values)
        if not values:
            raise ValueError(f"axis {name!r} needs at least one value")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario plus the axes to sweep — the declarative campaign.

    Expansion is the cartesian product of all axis values applied on top of
    ``base`` via :meth:`ScenarioConfig.with_value`.  Axis order determines
    iteration order (last axis varies fastest), which keeps progress output
    grouped by the first axis.
    """

    base: ScenarioConfig
    axes: tuple[Axis, ...] = ()

    def __post_init__(self) -> None:
        axes = tuple(a if isinstance(a, Axis) else Axis(*a) for a in self.axes)
        names = [resolve_axis_path(a.name) for a in axes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate sweep axes: {sorted(duplicates)}")
        object.__setattr__(self, "axes", axes)

    def __len__(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis)
        return n

    def scenarios(self) -> list[ScenarioConfig]:
        """Expand the grid into concrete scenario configs."""
        return list(self.iter_scenarios())

    def iter_scenarios(self) -> Iterator[ScenarioConfig]:
        """Expand the grid lazily, sharing axis prefixes and components.

        The axes are applied depth-first, so each prefix config is built
        once and reused for every cell under it.  A component axis's result
        depends only on the value and the prefix's component of that field,
        so it is memoised per ``(depth, value index, prefix component)``:
        an 8 × 3 × 5 × 5 grid over governor, weather, capacitance and seed
        canonicalises 8 + 3 + 5 + 15 components instead of 752, and the
        cells share component objects, whose cached JSON fragments make
        hashing cheap too.  The key is the value's *index* (``True == 1``)
        and the prefix component's ``id``, which the memo keeps alive.  The
        order is still ``itertools.product`` order — last axis fastest — and
        a miss goes through :meth:`ScenarioConfig.with_value`, so an invalid
        value raises at the same cell a per-cell rebuild would.
        """
        heads = [resolve_axis_path(axis.name).partition(".")[0] for axis in self.axes]
        memo: dict = {}

        def expand(config: ScenarioConfig, depth: int) -> Iterator[ScenarioConfig]:
            if depth == len(self.axes):
                yield config
                return
            axis, head = self.axes[depth], heads[depth]
            for index, value in enumerate(axis.values):
                if head in _SCALAR_FIELDS:
                    child = config.with_value(axis.name, value)
                else:
                    prefix = getattr(config, head)
                    key = (depth, index, id(prefix))
                    hit = memo.get(key)
                    if hit is None:
                        child = config.with_value(axis.name, value)
                        memo[key] = (prefix, getattr(child, head))
                    else:
                        child = config._replace(head, hit[1])
                yield from expand(child, depth + 1)

        return expand(self.base, 0)

    # ------------------------------------------------------------------
    # Campaign identity and serialisation (the distributed-execution
    # contract: every shard worker must agree on what the campaign *is*)
    # ------------------------------------------------------------------
    def scenario_ids(self) -> list[str]:
        """De-duplicated scenario ids, in the spec's stable expansion order.

        This is the **partition order** shard execution relies on: axis
        expansion is a deterministic cartesian product and the dedup is the
        same :func:`expand_unique` every runner uses, so every process
        expanding the same spec sees the same ids in the same order.
        """
        return [config.scenario_id for config in expand_unique(self)]

    def campaign_hash(self) -> str:
        """Content hash of the campaign: the *set* of scenarios it expands to.

        Hashed over the sorted scenario ids, so two spellings of the same
        grid — reordered axes, aliased paths, sparse vs explicit component
        specs — hash identically, while any change to the physics (an extra
        seed, a different duration) produces a new campaign.  Execution
        details (engine choice, worker counts, sharding) are deliberately
        excluded, exactly as they are excluded from the scenario ids.
        """
        return campaign_hash_of(self.scenario_ids())

    def to_dict(self) -> dict:
        """JSON-ready snapshot (base config + axes) for shard manifests."""
        return {
            "schema": SCHEMA_VERSION,
            "base": self.base.to_dict(),
            "axes": [
                {
                    "name": axis.name,
                    "values": [jsonable_value(normalise_value(v)) for v in axis.values],
                }
                for axis in self.axes
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a shard manifest).

        Axis values round-trip through the same normalise/jsonify pair the
        scenario configs use, so the rebuilt spec expands to the identical
        scenario ids — :meth:`campaign_hash` is stable across the trip.
        """
        base = ScenarioConfig.from_dict(data["base"])
        axes = tuple(
            Axis(str(axis["name"]), tuple(axis["values"])) for axis in data.get("axes", ())
        )
        return cls(base=base, axes=axes)

    # ------------------------------------------------------------------
    # Convenience constructor for the common governor × condition grids
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        governors: Sequence[str],
        weather: Optional[Sequence[str]] = None,
        capacitances_f: Optional[Sequence[float]] = None,
        seeds: Optional[Sequence[int]] = None,
        duration_s: float = 60.0,
        workload: str = "table2-render",
        shadowing: Sequence[ShadowSpec] = (),
        monitor_quantised: bool = True,
        extra_axes: Sequence[Axis] = (),
        supply: "ComponentSpec | Mapping | str | None" = None,
    ) -> "SweepSpec":
        """Build the standard governor × weather × capacitance × seed grid.

        ``supply`` selects the rig (default: the outdoor pv-array).  The
        weather / capacitance / seed dimensions default to ``None`` meaning
        "not swept": the supply/capacitor specs (and their registry defaults)
        stay authoritative, so ``supply={"kind": "pv-array", "weather":
        "cloud"}`` is not clobbered by a built-in default.  Weather, seed and
        shadowing only exist on the pv-array supply; passing them with
        another supply kind is rejected.  Single-valued dimensions fold into
        the base config so the expansion (and per-axis summaries) only see
        genuinely swept axes.
        """
        supply_spec = ComponentSpec.coerce(supply) if supply is not None else ComponentSpec("pv-array")
        pv = supply_spec.kind == "pv-array"
        if not pv and (weather is not None or seeds is not None or shadowing):
            raise ValueError(
                "weather/seed/shadowing dimensions only apply to the pv-array "
                f"supply (got supply kind {supply_spec.kind!r})"
            )
        base = ScenarioConfig(
            governor=str(governors[0]),
            supply=supply_spec,
            weather=str(weather[0]) if weather else None,
            duration_s=duration_s,
            seed=int(seeds[0]) if seeds else None,
            capacitance_f=float(capacitances_f[0]) if capacitances_f else None,
            workload=workload,
            shadowing=tuple(shadowing) if pv else None,
            monitor_quantised=monitor_quantised,
        )
        axes: list[Axis] = []
        for name, values in (
            ("governor", [str(g) for g in governors]),
            ("supply.weather", [str(w) for w in weather or ()]),
            ("capacitor.capacitance_f", [float(c) for c in capacitances_f or ()]),
            ("supply.seed", [int(s) for s in seeds or ()]),
        ):
            if len(values) > 1:
                axes.append(Axis(name, values))
        axes.extend(extra_axes)
        return cls(base=base, axes=tuple(axes))
