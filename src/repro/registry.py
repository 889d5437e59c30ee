"""Generic component registries and plain-data component specs.

The scenario layer composes a simulation out of interchangeable *components*
(supply, platform, capacitor, governor, workload).  Each component family is a
:class:`Registry` of named kinds, and each concrete component in a scenario
config is a :class:`ComponentSpec` — canonical plain data of the shape
``{"kind": "<registered name>", **params}``.

Two properties make specs safe to content-address:

* **normalisation** — parameter values are canonicalised on construction
  (``4`` and ``4.0`` become the same number, mappings are sorted, sequences
  become tuples), so two spellings of the same physics serialise to the same
  canonical JSON and therefore the same scenario hash;
* **default folding** — :meth:`Registry.canonical` merges a kind's registered
  defaults into a spec, so a sparse spec (``{"kind": "supercapacitor"}``) and
  a fully spelled-out one hash identically.

Registries are deliberately open: downstream code registers new kinds with
:meth:`Registry.register` (directly or as a decorator) and every sweep, CLI
listing and error message picks them up automatically.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

__all__ = ["ComponentSpec", "Registry", "RegistryEntry"]


def normalise_value(value: Any) -> Any:
    """Canonicalise one parameter value into hashable plain data.

    * booleans stay booleans;
    * numbers become ``int`` when integral, ``float`` otherwise (so ``4``,
      ``4.0`` and ``numpy.float64(4)`` are one value);
    * strings and ``None`` pass through;
    * mappings become key-sorted tuples of ``(key, value)`` pairs;
    * objects with a ``to_dict`` method are converted first;
    * sequences become tuples.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        f = float(value)
        return int(f) if f.is_integer() else f
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), normalise_value(v)) for k, v in value.items()))
    if hasattr(value, "to_dict"):
        return normalise_value(value.to_dict())
    if isinstance(value, Sequence):
        return tuple(normalise_value(v) for v in value)
    raise TypeError(
        f"component parameter of type {type(value).__name__} is not plain data "
        "(use numbers, strings, booleans, sequences or mappings)"
    )


def jsonable_value(value: Any) -> Any:
    """Inverse of :func:`normalise_value` for serialisation.

    Tuples whose items are all ``(str, value)`` pairs were mappings and become
    dicts again; other tuples become lists.  (An empty tuple serialises as an
    empty list — an empty mapping parameter is not round-trippable, which no
    component in this codebase needs.)
    """
    if isinstance(value, tuple):
        if value and all(
            isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str) for p in value
        ):
            return {k: jsonable_value(v) for k, v in value}
        return [jsonable_value(v) for v in value]
    return value


@dataclass(frozen=True)
class ComponentSpec:
    """One component of a scenario: a registered kind plus its parameters.

    The canonical plain-data form is ``{"kind": name, **params}``; internally
    the parameters are a sorted tuple of pairs so specs are hashable and two
    equivalent spellings compare (and content-hash) equal.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError("component kind must be a non-empty string")
        params = self.params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = (tuple(p) for p in params)
        normalised = tuple(sorted((str(k), normalise_value(v)) for k, v in items))
        names = [k for k, _ in normalised]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate component parameters: {sorted(duplicates)}")
        object.__setattr__(self, "params", normalised)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, value: "ComponentSpec | Mapping | str") -> "ComponentSpec":
        """Accept a spec, a ``{"kind": ...}`` mapping, or a bare kind name."""
        if isinstance(value, ComponentSpec):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(
            f"cannot build a ComponentSpec from {type(value).__name__}; "
            "expected a ComponentSpec, a mapping with a 'kind' key, or a kind name"
        )

    @classmethod
    def from_dict(cls, data: Mapping, default_kind: Optional[str] = None) -> "ComponentSpec":
        data = dict(data)
        kind = data.pop("kind", default_kind)
        if not kind:
            raise ValueError("component dict needs a 'kind' key")
        return cls(kind=str(kind), params=data)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def params_dict(self) -> dict:
        """The parameters as a JSON-ready dict."""
        return {k: jsonable_value(v) for k, v in self.params}

    def get(self, name: str, default: Any = None) -> Any:
        """One parameter value (JSON-ready form), or ``default``."""
        for key, value in self.params:
            if key == name:
                return jsonable_value(value)
        return default

    def with_params(self, **updates) -> "ComponentSpec":
        """A copy with the given parameters set/overridden."""
        merged = dict(self.params_dict())
        merged.update(updates)
        return ComponentSpec(kind=self.kind, params=merged)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params_dict()}

    @functools.cached_property
    def canonical_json(self) -> str:
        """Key-sorted compact JSON of :meth:`to_dict`, computed once per spec.

        A sweep shares one spec object across many scenarios, so each
        scenario hash reuses this fragment instead of re-serialising it.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component kind.

    Attributes
    ----------
    name:
        The kind name referenced from scenario configs.
    factory:
        Callable building the live component; parameters are passed as
        keyword arguments.
    label:
        Human-readable label for reports (defaults to the name).
    defaults:
        Parameter defaults folded into every spec of this kind.  Unless the
        entry is registered with ``open_params=True``, the default keys also
        define the set of *allowed* parameters.
    metadata:
        Free-form extras (e.g. ``tunable`` for governors, ``sim_defaults``
        for supplies).
    """

    name: str
    factory: Callable
    label: str
    defaults: Mapping = field(default_factory=dict)
    metadata: Mapping = field(default_factory=dict)

    @property
    def open_params(self) -> bool:
        return bool(self.metadata.get("open_params", False))


class Registry:
    """A named collection of component kinds, open for extension.

    >>> SUPPLIES = Registry("supply")
    >>> @SUPPLIES.register("my-supply", defaults={"power_w": 1.0})
    ... def build_my_supply(duration_s, power_w=1.0):
    ...     ...
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        label: Optional[str] = None,
        defaults: Optional[Mapping] = None,
        **metadata,
    ):
        """Register a kind; usable directly or as a decorator."""

        def _register(fn: Callable) -> Callable:
            if not name or not isinstance(name, str):
                raise ValueError(f"{self.kind} kind name must be a non-empty string")
            if name in self._entries:
                raise ValueError(f"{self.kind} kind {name!r} is already registered")
            self._entries[name] = RegistryEntry(
                name=name,
                factory=fn,
                label=label if label is not None else name,
                defaults=dict(defaults or {}),
                metadata=dict(metadata),
            )
            return fn

        if factory is None:
            return _register
        return _register(factory)

    def unregister(self, name: str) -> None:
        """Remove a kind (mainly for tests exercising extension)."""
        self._entries.pop(name, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} kind {name!r}; "
                f"registered kinds: {', '.join(sorted(self._entries)) or '(none)'}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Canonicalisation and building
    # ------------------------------------------------------------------
    def canonical(self, spec: "ComponentSpec | Mapping | str") -> ComponentSpec:
        """Coerce + validate a spec and fold the kind's defaults into it.

        Raises ``ValueError`` for an unknown kind (listing the registered
        kinds) or, for kinds without ``open_params``, for parameters the kind
        does not declare.
        """
        spec = ComponentSpec.coerce(spec)
        entry = self.get(spec.kind)
        params = spec.params_dict()
        if not entry.open_params:
            unknown = sorted(set(params) - set(entry.defaults))
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {', '.join(unknown)} for {self.kind} kind "
                    f"{spec.kind!r}; known: {', '.join(sorted(entry.defaults)) or '(none)'}"
                )
        merged = dict(entry.defaults)
        merged.update(params)
        canonical = ComponentSpec(kind=spec.kind, params=merged)
        validate = entry.metadata.get("validate")
        if validate is not None:
            validate(canonical.params_dict())
        return canonical

    def build(self, spec: "ComponentSpec | Mapping | str", **context):
        """Instantiate a component: ``factory(**context, **params)``."""
        spec = self.canonical(spec)
        entry = self.get(spec.kind)
        return entry.factory(**context, **spec.params_dict())
