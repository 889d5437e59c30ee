"""Deterministic, seeded fault injection + the retry/backoff vocabulary.

The paper's subject is systems that survive *power* loss gracefully; this
module holds the campaign infrastructure to the same standard under *process*
loss.  It provides two things:

* **Fault injection** — named sites woven through the execution stack
  (``store.append``, ``sqlindex.refresh``, ``worker.simulate``,
  ``serve.handle``, ``serve.scheduler``) fire against a JSON
  :class:`FaultPlan` that can inject exceptions, hard crashes (``os._exit``,
  the process-level analogue of a brown-out), delays and torn writes.  The
  plan travels in the ``REPRO_FAULTS`` environment variable — inline JSON or
  a path to a JSON file — so it propagates into worker slot processes under
  fork and spawn alike.

* **Self-healing vocabulary** — :func:`classify_error` splits failures into
  ``transient`` (worth retrying: I/O, connections, injected chaos) vs
  ``deterministic`` (same inputs, same failure: config errors), and
  :class:`RetryPolicy` turns attempt numbers into bounded exponential
  backoff with *deterministic* jitter, so chaos runs replay exactly.

Strict no-op when unset: :func:`active` resolves ``REPRO_FAULTS`` once per
process and caches the result, so a disabled build pays one module-global
``is`` check per *call site* invocation — no environment lookups on the
per-scenario fast path.

Determinism: every probabilistic decision is drawn from
``random.Random(f"{seed}:{rule}:{hit}")``, and one-shot rules can pin a
filesystem breadcrumb (``state_dir``) so "crash exactly once" holds across
respawned processes — without it, a respawned worker re-reading the same
plan would crash forever.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = [
    "FAULTS_ENV",
    "FAULT_SITES",
    "FAULT_KINDS",
    "InjectedFault",
    "InjectedIOFault",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "active",
    "install",
    "reset",
    "classify_error",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
]

#: Environment variable carrying a fault plan: inline JSON ("{...}") or a
#: path to a JSON file.  Inherited by worker processes, which is the point.
FAULTS_ENV = "REPRO_FAULTS"

#: The named injection sites woven through the stack.  A plan may name any
#: site string, but these are the ones that fire today.
FAULT_SITES = (
    "store.append",
    "sqlindex.refresh",
    "worker.simulate",
    "serve.handle",
    "serve.scheduler",
)

#: What a triggered rule does.
FAULT_KINDS = ("error", "crash", "delay", "torn-write")


class InjectedFault(RuntimeError):
    """An exception raised on purpose by a fault rule (``error_type: fault``)."""

    def __init__(self, message: str, site: str = "?", transient: bool = True):
        super().__init__(message)
        self.site = site
        self.transient = transient


class InjectedIOFault(OSError):
    """An injected *I/O* failure (``error_type: io``).

    An :class:`OSError` subclass, so sites guarded by I/O-shaped fallbacks
    (e.g. ``store stats`` falling back to opening the store on
    ``SIDECAR_ERRORS``)
    exercise their real degradation path under injection.
    """

    def __init__(self, message: str, site: str = "?", transient: bool = True):
        super().__init__(message)
        self.site = site
        self.transient = transient


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where it fires, what it does, how often.

    Attributes
    ----------
    site:
        The call-site name the rule arms (see :data:`FAULT_SITES`).
    kind:
        ``error`` raises, ``crash`` calls ``os._exit(exit_code)``, ``delay``
        sleeps ``delay_s`` (no later than the site's deadline), ``torn-write``
        asks the site to half-write (only ``store.append`` enacts it;
        elsewhere it degrades to a no-op hit).
    times:
        How many triggers before the rule disarms; ``0`` means unlimited.
    after:
        Matching calls to skip before the rule starts triggering — "crash on
        the third append" is ``after: 2``.
    probability:
        Chance a matching, armed call triggers, drawn deterministically from
        the plan seed + rule index + hit ordinal.
    once:
        With a plan ``state_dir``, pin a filesystem breadcrumb on first
        trigger so the rule fires at most once *across processes* (a
        respawned worker inherits the same plan and must not re-crash).
        Without a ``state_dir`` it caps ``times`` at 1 per process.
    match:
        Optional attribute equality filter against the keyword attributes
        the call site passes to :meth:`FaultInjector.fire`.
    """

    site: str
    kind: str = "error"
    times: int = 1
    after: int = 0
    probability: float = 1.0
    delay_s: float = 0.05
    message: str = ""
    transient: bool = True
    error_type: str = "fault"  # "fault" (RuntimeError) | "io" (OSError)
    exit_code: int = 86
    once: bool = False
    match: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS} (got {self.kind!r})")
        if self.error_type not in ("fault", "io"):
            raise ValueError(f"error_type must be 'fault' or 'io' (got {self.error_type!r})")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1] (got {self.probability})")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 — name set
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault rule keys: {sorted(unknown)}")
        if "site" not in data:
            raise ValueError("fault rule requires a 'site'")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "times": self.times,
            "after": self.after,
            "probability": self.probability,
            "delay_s": self.delay_s,
            "message": self.message,
            "transient": self.transient,
            "error_type": self.error_type,
            "exit_code": self.exit_code,
            "once": self.once,
            "match": dict(self.match),
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules, JSON round-trippable for the env var."""

    rules: tuple = ()
    seed: int = 0
    state_dir: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        unknown = set(data) - {"rules", "seed", "state_dir"}
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        rules = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in data.get("rules", ())
        )
        return cls(
            rules=rules,
            seed=int(data.get("seed", 0)),
            state_dir=data.get("state_dir"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid fault plan JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        doc: dict = {"rules": [rule.to_dict() for rule in self.rules], "seed": self.seed}
        if self.state_dir is not None:
            doc["state_dir"] = self.state_dir
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class FaultInjector:
    """Matches :meth:`fire` calls against a plan and enacts triggered rules."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._hits = [0] * len(plan.rules)
        self._applied = [0] * len(plan.rules)
        self._lock = threading.Lock()

    def fire(
        self, site: str, telemetry=None, metrics=None, deadline: float = math.inf, **attrs
    ) -> Optional[FaultRule]:
        """Offer an injection opportunity at ``site``.

        Returns the triggered rule (after enacting delays; ``torn-write`` is
        returned for the caller to enact) or ``None``.  A delay sleeps no
        later than ``deadline``, a :func:`time.monotonic` instant.  ``error``
        raises and ``crash`` never returns.  Injections are counted into
        ``faults.injected`` — on ``telemetry``'s tracer and, when given, the
        ``metrics`` registry — *before* enacting, so even a crash leaves its
        trace (the tracer flushes per event, like the store fsyncs per
        append).
        """
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if rule.match and any(attrs.get(k) != v for k, v in rule.match.items()):
                continue
            with self._lock:
                self._hits[index] += 1
                hits = self._hits[index]
                if hits <= rule.after:
                    continue
                limit = 1 if (rule.once and not self.plan.state_dir) else rule.times
                if limit > 0 and self._applied[index] >= limit:
                    continue
                if rule.probability < 1.0:
                    rng = random.Random(f"{self.plan.seed}:{index}:{hits}")
                    if rng.random() >= rule.probability:
                        continue
                if rule.once and self.plan.state_dir and not self._claim_once(index):
                    continue
                self._applied[index] += 1
            self._count(rule, site, telemetry, metrics)
            if rule.kind == "delay":
                time.sleep(max(0.0, min(rule.delay_s, deadline - time.monotonic())))
                return rule
            if rule.kind == "error":
                message = rule.message or f"injected fault at {site}"
                error_cls = InjectedIOFault if rule.error_type == "io" else InjectedFault
                raise error_cls(message, site=site, transient=rule.transient)
            if rule.kind == "crash":
                os._exit(rule.exit_code)
            return rule  # torn-write: the site enacts it
        return None

    def _claim_once(self, index: int) -> bool:
        """Atomically claim a one-shot rule across processes via O_EXCL."""
        state_dir = Path(self.plan.state_dir)  # type: ignore[arg-type]
        breadcrumb = state_dir / f"fault-rule-{index}.fired"
        try:
            state_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(breadcrumb, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False  # unwritable state dir: fail safe, do not inject
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f"pid={os.getpid()}\n")
        return True

    def _count(self, rule: FaultRule, site: str, telemetry, metrics) -> None:
        if metrics is not None:
            metrics.counter("faults.injected")
        tracer = getattr(telemetry, "tracer", None)
        if tracer is not None:
            tracer.counter("faults.injected", site=site, kind=rule.kind)


# ----------------------------------------------------------------------
# Per-process activation: resolve the environment exactly once.
# ----------------------------------------------------------------------
_UNRESOLVED = object()
_active: "FaultInjector | None | object" = _UNRESOLVED


def active() -> Optional[FaultInjector]:
    """The process-wide injector, or ``None`` when no plan is configured.

    The first call resolves :data:`FAULTS_ENV`; every later call is a cached
    global read, so disabled builds never touch the environment on hot paths.
    A malformed plan raises loudly — chaos tooling must not silently no-op.
    """
    global _active
    if _active is _UNRESOLVED:
        _active = _resolve_env()
    return _active  # type: ignore[return-value]


def _resolve_env() -> Optional[FaultInjector]:
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    if not raw.startswith("{"):
        try:
            raw = Path(raw).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"unreadable {FAULTS_ENV} plan file: {exc}") from None
    return FaultInjector(FaultPlan.from_json(raw))


def install(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Activate a plan in-process (tests; ``None`` disables injection)."""
    global _active
    _active = FaultInjector(plan) if plan is not None else None
    return _active  # type: ignore[return-value]


def reset() -> None:
    """Forget the cached injector; the next :func:`active` re-reads the env."""
    global _active
    _active = _UNRESOLVED


# ----------------------------------------------------------------------
# Error taxonomy + retry policy
# ----------------------------------------------------------------------

#: Exception types presumed transient: the environment failed, not the
#: scenario.  OSError covers disk/sidecar I/O; the rest are plumbing.
TRANSIENT_ERROR_TYPES = (
    ConnectionError,
    TimeoutError,
    EOFError,
    BrokenPipeError,
    InterruptedError,
    OSError,
)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (retry may succeed) or ``"deterministic"`` (won't).

    An explicit ``transient`` attribute on the exception wins (injected
    faults declare theirs); otherwise I/O-shaped types are transient and
    everything else — ValueError from a bad config, logic errors — is
    deterministic: same inputs, same failure, retrying burns CPU for nothing.
    """
    declared = getattr(exc, "transient", None)
    if isinstance(declared, bool):
        return "transient" if declared else "deterministic"
    return "transient" if isinstance(exc, TRANSIENT_ERROR_TYPES) else "deterministic"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay_s(attempt, key)`` grows ``base_delay_s * 2**(attempt-1)`` capped
    at ``max_delay_s``, then spreads by ±``jitter`` drawn from
    ``random.Random(f"{key}:{attempt}")`` — keyed by scenario id, two runs
    of the same campaign back off identically (replayable chaos), while
    different scenarios de-synchronise.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_s(self, attempt: int, key: str = "") -> float:
        base = min(self.base_delay_s * (2.0 ** max(0, attempt - 1)), self.max_delay_s)
        if self.jitter == 0.0:
            return base
        rng = random.Random(f"{key}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay_s": self.base_delay_s,
            "max_delay_s": self.max_delay_s,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "RetryPolicy":
        if not data:
            return DEFAULT_RETRY_POLICY
        return cls(**data)


#: The stack-wide default: three attempts, fast first retry, bounded tail.
DEFAULT_RETRY_POLICY = RetryPolicy()
