"""Persistent, resumable campaign results: a content-addressed JSONL store.

One line per completed scenario: ``{"scenario_id", "schema_version",
"config", "status", "summary", ...}``.  The scenario id is the content hash
of the config (:attr:`~repro.sweep.spec.ScenarioConfig.scenario_id`), so
lookups are purely structural — any campaign that regenerates the same config
gets a cache hit, whether it is a ``--resume`` after an interrupt or a
brand-new sweep sharing cells with an old one.

Records are appended and flushed one at a time, so a killed campaign loses at
most the scenario in flight; a trailing half-written line is detected and
ignored on load.  Only ``status == "ok"`` records count as cached — failures
and timeouts are kept for post-mortems but are retried on resume.

Every appended record is stamped with the current config
:data:`~repro.sweep.spec.SCHEMA_VERSION`.  Loading tolerates records written
by older versions (PR-1 records carry no stamp and count as v1): they are
kept, reported via :attr:`ResultStore.legacy_count` /
:meth:`ResultStore.version_counts`, and simply miss the cache for new-schema
configs instead of failing opaquely.

Large stores: :meth:`ResultStore.compact` rewrites the JSONL keeping only the
newest record per scenario id, then rebuilds the SQLite sidecar of
:mod:`repro.sweep.sqlindex` (``<store>.sqlite``) and stamps the compacted
size in it as the baseline :func:`store_stats` measures later growth against.

Sharded campaigns: :meth:`ResultStore.merge` / :func:`merge_stores` union the
shard stores a partitioned campaign produced (see :mod:`repro.sweep.dist`)
into one, with **last-complete-record-wins** semantics: a successful record
always supersedes a failure/timeout, and among equals the later source wins.
Legacy v1 records are upgraded (config re-composed, record re-keyed under the
current content hash) on the way through, and the merged store is compacted.

Reads: opening a store parses every line once and holds the latest record
per scenario id, in the order of each id's latest line — the store order.
:meth:`ResultStore.get`, :meth:`~ResultStore.records`,
:meth:`~ResultStore.query` and :meth:`~ResultStore.count` all answer from
those held records, so every read gives the same answer; a store has one
writer, and lines another process adds are seen on the next open.
:meth:`~ResultStore.query` answers "the ok records of these scenario ids",
"every timeout under the powersave governor" and similar questions by
filtering the held records on :data:`FILTER_COLUMNS`, whose values are
computed once per record as it is held.  :func:`store_stats` serves the
store-level inventory (counts by status and schema version, bytes and
records appended since the last compact) from the SQLite sidecar, without
opening the store.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from .. import faults
from ..obs.metrics import metrics_sidecar_path
from ..obs.telemetry import DISABLED, Telemetry
from ..sim.result import SimulationResult
from . import sqlindex
from .spec import SCHEMA_VERSION, ScenarioConfig

__all__ = [
    "ResultStore",
    "merge_stores",
    "store_stats",
    "FILTER_COLUMNS",
    "VOLATILE_RECORD_FIELDS",
    "strip_volatile",
]

#: Record fields that legitimately differ between two executions of the same
#: scenario (timing, worker identity, retry/chaos accounting): strip them
#: before comparing stores record-for-record (tests, the dist bench, CI's
#: shard-merge and chaos identity gates).
VOLATILE_RECORD_FIELDS = frozenset(
    {"elapsed_s", "wall_time_s", "worker", "timings", "attempts", "faults_injected"}
)

#: The columns a store query may filter on (record identity + axis columns).
FILTER_COLUMNS: tuple[str, ...] = (
    "status",
    "schema_version",
    "governor",
    "supply",
    "weather",
    "seed",
    "capacitance_f",
    "duration_s",
    "workload",
    "survived",
)

_COLUMN_INDEX = {column: i for i, column in enumerate(FILTER_COLUMNS)}
_SCHEMA_VERSION = _COLUMN_INDEX["schema_version"]


def strip_volatile(record: Mapping) -> dict:
    """A record without its run-specific fields, for cross-run comparison."""
    return {k: v for k, v in record.items() if k not in VOLATILE_RECORD_FIELDS}


def _component_kind(value) -> Optional[str]:
    """The ``kind`` of a component field — composed dict or v1 flat string."""
    if isinstance(value, dict):
        kind = value.get("kind")
        return None if kind is None else str(kind)
    return value if isinstance(value, str) else None


def _number(cast, value):
    try:
        return None if value is None else cast(value)
    except (TypeError, ValueError):
        return None


_NO_FIELDS: dict = {}


def _filter_values(record: dict) -> tuple:
    """A record's :data:`FILTER_COLUMNS` values, in that order.

    Tolerant of both schema v2 (composed components) and v1 (flat keys);
    anything unreadable is None rather than rejected, so every record the
    store holds, however old, can be filtered.  Records and their configs
    are parsed JSON, so plain ``dict`` checks suffice.
    """
    config = record.get("config")
    if not isinstance(config, dict):
        config = _NO_FIELDS
    supply = config.get("supply")
    supply_fields = supply if isinstance(supply, dict) else _NO_FIELDS
    capacitor = config.get("capacitor")
    if not isinstance(capacitor, dict):
        capacitor = _NO_FIELDS
    summary = record.get("summary")
    survived = summary.get("survived") if isinstance(summary, dict) else None
    return (
        record.get("status"),
        int(record.get("schema_version", 1)),
        _component_kind(config.get("governor")),
        _component_kind(supply) or ("pv-array" if config else None),
        supply_fields.get("weather", config.get("weather")),
        _number(int, supply_fields.get("seed", config.get("seed"))),
        _number(float, capacitor.get("capacitance_f", config.get("capacitance_f"))),
        _number(float, config.get("duration_s")),
        _component_kind(config.get("workload")),
        None if survived is None else int(bool(survived)),
    )


def _predicate(filters: Mapping):
    """A test over :func:`_filter_values` tuples; None matches everything.

    A sequence or set value is a membership test, anything else equality.
    """
    checks = []
    for column, value in filters.items():
        index = _COLUMN_INDEX.get(column)
        if index is None:
            raise ValueError(
                f"unknown store filter {column!r}; known: {', '.join(FILTER_COLUMNS)}"
            )
        if isinstance(value, (list, tuple, set, frozenset)):
            checks.append((index, tuple(value), True))
        else:
            checks.append((index, value, False))
    if not checks:
        return None

    def match(values: tuple) -> bool:
        for index, wanted, member in checks:
            have = values[index]
            if (have not in wanted) if member else (have != wanted):
                return False
        return True

    return match


def _upgrade_record(record: dict) -> tuple[str, dict, bool]:
    """Upgrade a legacy record to the current config schema, re-keying it.

    A v1 record's scenario id was computed under the flat PR-1 hashing
    scheme, so as stored it can never cache-hit a composed config.  Upgrading
    re-parses the config (which folds it into the composed schema), rewrites
    the record under the current :data:`~repro.sweep.spec.SCHEMA_VERSION` and
    re-keys it by the current content hash — after which the old result *is*
    a cache hit for the equivalent new-schema scenario.  Records that cannot
    be upgraded (no config payload, unparseable config) pass through
    unchanged.  Returns ``(key, record, upgraded)``.
    """
    version = int(record.get("schema_version", 1))
    if version >= SCHEMA_VERSION:
        return record["scenario_id"], record, False
    config_data = record.get("config")
    if not isinstance(config_data, Mapping):
        return record["scenario_id"], record, False
    try:
        config = ScenarioConfig.from_dict(config_data)
    except (ValueError, TypeError, KeyError):
        return record["scenario_id"], record, False
    upgraded = dict(record)
    upgraded["config"] = config.to_dict()
    upgraded["schema_version"] = SCHEMA_VERSION
    upgraded["scenario_id"] = config.scenario_id
    return config.scenario_id, upgraded, True


class ResultStore:
    """Append-only JSONL store of sweep records, indexed by scenario id.

    Later records for the same scenario id supersede earlier ones (so a
    retried failure overwrites the failure on load) and move to the end of
    the store order.
    """

    def __init__(self, path: str | os.PathLike, telemetry: Optional[Telemetry] = None):
        self.path = Path(path)
        self.telemetry = telemetry if telemetry is not None else DISABLED
        #: scenario_id -> ``(position, filter values, record)`` of the latest
        #: record, in store order; positions grow in that order.
        self._entries: dict[str, tuple[int, tuple, dict]] = {}
        self._positions = itertools.count()
        #: Held over every change to ``_entries`` and every query's pass over
        #: it: the service queries from worker threads while one thread appends.
        self._lock = threading.Lock()
        self._skipped_lines = 0
        self._version_counts: Counter = Counter()
        self._sqlite: "Optional[sqlindex.SqliteIndex]" = None
        self._quarantined_bytes = 0
        if self.path.exists():
            self._repair_torn_tail()
            load_t0 = time.perf_counter()
            self._scan_lines()
            load_s = time.perf_counter() - load_t0
            self.telemetry.metrics.observe("store.load_s", load_s)
            self.telemetry.tracer.span_event(
                "store.load", load_s, store=str(self.path), records=len(self._entries)
            )

    @property
    def quarantine_path(self) -> Path:
        """Where torn final lines are salvaged to (``<store>.quarantine``)."""
        return Path(str(self.path) + ".quarantine")

    @property
    def quarantined_bytes(self) -> int:
        """Bytes moved to the quarantine file by this open (0 for a clean store)."""
        return self._quarantined_bytes

    def _repair_torn_tail(self) -> int:
        """Write-side repair of a torn final line (the read side only tolerates it).

        A writer killed mid-append — the process-level analogue of the power
        loss the paper studies — can leave the file ending in a partial line.
        If that tail is a *complete* record that merely lost its newline, the
        newline is restored in place.  Otherwise the torn bytes are salvaged
        into ``<store>.quarantine`` (appended, newline-terminated, for
        post-mortems) and the data file is truncated to the last clean line
        boundary, so the next :meth:`append` starts a fresh line and later
        readers never see the damage.  Returns the bytes quarantined.
        """
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0
        if size == 0:
            return 0
        with self.path.open("rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return 0
            # Walk back in chunks to the last newline (0 if there is none:
            # the whole file is one torn line).
            boundary, pos = 0, size
            while pos > 0:
                start = max(0, pos - 65536)
                fh.seek(start)
                chunk = fh.read(pos - start)
                newline = chunk.rfind(b"\n")
                if newline != -1:
                    boundary = start + newline + 1
                    break
                pos = start
            fh.seek(boundary)
            torn = fh.read(size - boundary)
            try:
                record = json.loads(torn.decode("utf-8"))
                intact = isinstance(record, dict) and record.get("scenario_id")
            except (UnicodeDecodeError, json.JSONDecodeError):
                intact = False
            if intact:
                # A complete record that merely lost its newline: finish it.
                fh.seek(0, os.SEEK_END)
                fh.write(b"\n")
                os.fsync(fh.fileno())
                self.telemetry.metrics.counter("store.tail_healed")
                return 0
            with self.quarantine_path.open("ab") as quarantine:
                quarantine.write(torn + b"\n")
                quarantine.flush()
                os.fsync(quarantine.fileno())
            fh.truncate(boundary)
            os.fsync(fh.fileno())
        self._quarantined_bytes += len(torn)
        self.telemetry.metrics.counter("store.torn_tail_quarantined")
        self.telemetry.tracer.event(
            "store.repair",
            store=str(self.path),
            quarantined_bytes=len(torn),
            quarantine=str(self.quarantine_path),
        )
        return len(torn)

    @property
    def sqlite_path(self) -> Path:
        """The read-optimised SQLite sidecar (``<store>.sqlite``)."""
        return sqlindex.sqlite_index_path(self.path)

    def sqlite_index(self) -> "sqlindex.SqliteIndex":
        """The lazily-created SQLite sidecar.

        Creating the object is cheap; the database itself is only built (or
        refreshed) when :meth:`stats` first touches it, or when
        :meth:`compact` rewrites the store.
        """
        if self._sqlite is None:
            self._sqlite = sqlindex.SqliteIndex(self.path, telemetry=self.telemetry)
        return self._sqlite

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _scan_lines(self) -> None:
        """Parse every line of the data file, tolerating a torn tail.

        Read in binary and decode per line: a writer interrupted (or still
        in flight — concurrent read-while-append) can leave a trailing line
        truncated mid-way through a multi-byte UTF-8 sequence, which
        text-mode iteration would turn into a ``UnicodeDecodeError`` for the
        whole open.  Decoding with replacement confines the damage to that
        line, which then fails JSON parsing and is counted in
        :attr:`skipped_lines` — the same torn-tail tolerance the trace
        reader has.
        """
        with self.path.open("rb") as fh:
            for raw in fh:
                self._ingest_line(raw.decode("utf-8", errors="replace"))

    def _ingest_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            # Interrupted mid-write: drop the partial line.
            self._skipped_lines += 1
            return
        scenario_id = record.get("scenario_id") if isinstance(record, dict) else None
        if not scenario_id:
            self._skipped_lines += 1
            return
        self._set_entry(scenario_id, record)

    def _set_entry(self, scenario_id: str, record: dict) -> None:
        """Hold ``record`` as the latest for its id, last in store order."""
        values = _filter_values(record)
        with self._lock:
            previous = self._entries.pop(scenario_id, None)
            if previous is not None:
                self._version_counts[previous[1][_SCHEMA_VERSION]] -= 1
            self._entries[scenario_id] = (next(self._positions), values, record)
            self._version_counts[values[_SCHEMA_VERSION]] += 1

    @property
    def skipped_lines(self) -> int:
        """Corrupt/partial lines ignored while loading (0 for a clean store)."""
        return self._skipped_lines

    @property
    def legacy_count(self) -> int:
        """Loaded records written under an older config schema version."""
        return sum(n for v, n in self._version_counts.items() if v < SCHEMA_VERSION and n > 0)

    def version_counts(self) -> dict[int, int]:
        """Record count per config schema version, for reporting."""
        return {v: n for v, n in sorted(self._version_counts.items()) if n > 0}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Mapping) -> None:
        """Append one record (stamped with the current schema version) and
        flush it to disk immediately."""
        append_t0 = time.perf_counter()
        record = dict(record)
        scenario_id = record.get("scenario_id")
        if not scenario_id:
            raise ValueError("record must carry a scenario_id")
        record.setdefault("schema_version", SCHEMA_VERSION)
        injector = faults.active()
        torn_rule = None
        if injector is not None:
            torn_rule = injector.fire(
                "store.append", telemetry=self.telemetry, scenario_id=scenario_id
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        payload = (line + "\n").encode("utf-8")
        # A previous torn write may have left the file without a trailing
        # newline; heal it so the new record starts on its own line.
        needs_newline = False
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("rb") as fh:
                fh.seek(-1, os.SEEK_END)
                needs_newline = fh.read(1) != b"\n"
        with self.path.open("ab") as fh:
            if needs_newline:
                fh.write(b"\n")
            if torn_rule is not None and torn_rule.kind == "torn-write":
                # Simulated power loss mid-append: flush half the line to
                # disk, then die without cleanup.  The next open quarantines
                # the tail; the scenario re-runs (its record never landed).
                fh.write(payload[: max(1, len(line) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
                os._exit(torn_rule.exit_code)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        # Hold the on-disk form (sorted keys, lists not tuples): what a
        # reopen would parse from this line.
        self._set_entry(scenario_id, json.loads(line))
        self.telemetry.metrics.observe("store.append_s", time.perf_counter() - append_t0)
        self.telemetry.metrics.counter("store.appends")

    def compact(self) -> dict:
        """Rewrite the store keeping only the newest record per scenario id,
        then rebuild the SQLite sidecar and stamp the compaction baseline.

        The rewrite is atomic (written beside the store, then renamed over
        it) and keeps the store order.  The sidecar is derived state: if its
        rebuild fails the store is still valid, and the next ``store stats``
        rebuilds it (without a baseline).  Returns a stats dict
        (``records``, ``dropped_lines``, ``bytes_before``, ``bytes_after``).
        """
        compact_t0 = time.perf_counter()
        lines_before = 0
        bytes_before = 0
        if self.path.exists():
            bytes_before = self.path.stat().st_size
            with self.path.open("rb") as fh:
                lines_before = sum(1 for _ in fh)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        offset = 0
        with tmp.open("wb") as fh:
            for record in self.records():
                payload = (
                    json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                ).encode("utf-8")
                fh.write(payload)
                offset += len(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        try:
            self.sqlite_index().mark_compacted()
        except sqlindex.SIDECAR_ERRORS:
            pass
        self._skipped_lines = 0
        stats = {
            "records": len(self._entries),
            "dropped_lines": max(0, lines_before - len(self._entries)),
            "bytes_before": bytes_before,
            "bytes_after": offset,
        }
        compact_s = time.perf_counter() - compact_t0
        self.telemetry.metrics.observe("store.compact_s", compact_s)
        self.telemetry.tracer.span_event(
            "store.compact",
            compact_s,
            records=stats["records"],
            bytes_before=bytes_before,
            bytes_after=offset,
        )
        return stats

    # ------------------------------------------------------------------
    # Merging (distributed campaigns: union shard stores into one)
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_wins(incoming_status: Optional[str], existing: Optional[Mapping]) -> bool:
        """Last-complete-record-wins: does an incoming record supersede?

        A complete (``status == "ok"``) incoming record always wins — later
        complete beats earlier complete, and complete beats any failure.  An
        incomplete incoming record only wins when the existing record is
        also incomplete (or absent): a shard's timeout must never clobber
        another shard's success.
        """
        if existing is None or incoming_status == "ok":
            return True
        return existing.get("status") != "ok"

    def merge(self, *sources, compact: bool = True) -> dict:
        """Union other stores' records into this one, newest-complete wins.

        ``sources`` are :class:`ResultStore` instances or paths, consumed in
        order (so on ties the *last* source wins).  Legacy (v1) source
        records are upgraded and re-keyed on the way through (see
        :func:`_upgrade_record`).  By default the merged store is compacted
        afterwards, rewriting the data file and its SQLite sidecar; pass
        ``compact=False`` to keep accumulating in memory across several
        merge calls (the caller must then compact explicitly to persist).

        Returns a stats dict (``sources``, ``scanned``, ``merged``,
        ``skipped``, ``upgraded``, plus ``records`` when compacting).
        """
        merge_t0 = time.perf_counter()
        stats = {"sources": 0, "scanned": 0, "merged": 0, "skipped": 0, "upgraded": 0}
        own = self.path.resolve()
        for source in sources:
            src = source if isinstance(source, ResultStore) else ResultStore(source)
            if src.path.resolve() == own:
                raise ValueError(f"cannot merge store {self.path} into itself")
            stats["sources"] += 1
            for record in src.records():
                stats["scanned"] += 1
                key, record, upgraded = _upgrade_record(record)
                if upgraded:
                    stats["upgraded"] += 1
                if not self._merge_wins(record.get("status"), self.get(key)):
                    stats["skipped"] += 1
                    continue
                self._set_entry(key, dict(record))
                stats["merged"] += 1
        if compact:
            stats["records"] = self.compact()["records"]
        merge_s = time.perf_counter() - merge_t0
        self.telemetry.metrics.observe("store.merge_s", merge_s)
        self.telemetry.tracer.span_event(
            "store.merge",
            merge_s,
            sources=stats["sources"],
            merged=stats["merged"],
            skipped=stats["skipped"],
            upgraded=stats["upgraded"],
        )
        return stats

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return self._key(key) in self._entries

    def get(self, key) -> Optional[dict]:
        """The latest record for a scenario id / config, or None."""
        entry = self._entries.get(self._key(key))
        return None if entry is None else entry[2]

    def is_complete(self, key) -> bool:
        """Whether the scenario already has a successful (cached) record."""
        entry = self._entries.get(self._key(key))
        return entry is not None and entry[2].get("status") == "ok"

    def records(self) -> Iterator[dict]:
        """All held records (latest per scenario id), in store order."""
        with self._lock:
            return iter([entry[2] for entry in self._entries.values()])

    def ok_records(self) -> list[dict]:
        """Only the successful records — what aggregation consumes."""
        return [r for r in self.records() if r.get("status") == "ok"]

    # ------------------------------------------------------------------
    # Filtered reads
    # ------------------------------------------------------------------
    def _select(self, filters: Mapping, scenario_ids: Optional[Sequence[str]]) -> list[dict]:
        """The held records matching ``filters`` and ``scenario_ids``, in store order."""
        match = _predicate(filters)
        with self._lock:
            entries = self._entries
            if scenario_ids is None:
                hits = entries.values()
            else:
                # Look the ids up instead of scanning every held record.
                found = entries.keys() & {str(s) for s in scenario_ids}
                hits = sorted(map(entries.__getitem__, found), key=itemgetter(0))
            if match is None:
                return [entry[2] for entry in hits]
            return [entry[2] for entry in hits if match(entry[1])]

    def query(
        self,
        *,
        status: Optional[str] = None,
        scenario_ids: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        **filters,
    ) -> list[dict]:
        """Matching records, in store order.

        ``filters`` are equality (or, for sequence values, membership)
        constraints over :data:`FILTER_COLUMNS` — the axis columns plus
        ``status``/``schema_version``.  ``scenario_ids`` restricts to an
        explicit id set; an *empty* sequence matches nothing while ``None``
        leaves the id unconstrained.  Records are the store's own objects,
        as :meth:`get` returns them: treat them as read-only.  A negative
        ``limit`` or ``offset`` raises ``ValueError``.
        """
        if (limit is not None and limit < 0) or offset < 0:
            raise ValueError(f"limit/offset must not be negative (got {limit}, {offset})")
        if status is not None:
            filters["status"] = status
        records = self._select(filters, scenario_ids)
        if offset:
            records = records[int(offset):]
        if limit is not None:
            records = records[: int(limit)]
        return records

    def count(
        self,
        *,
        status: Optional[str] = None,
        scenario_ids: Optional[Sequence[str]] = None,
        **filters,
    ) -> int:
        """Matching-record count (the length of the same :meth:`query`)."""
        if status is not None:
            filters["status"] = status
        return len(self._select(filters, scenario_ids))

    def stats(self) -> dict:
        """Store inventory (see :func:`store_stats`)."""
        return store_stats(self.path, index=self.sqlite_index(), telemetry=self.telemetry)

    def result_for(self, key) -> Optional[SimulationResult]:
        """Rebuild the stored (decimated) SimulationResult, if series were kept."""
        record = self.get(key)
        if record is None or "series" not in record:
            return None
        return SimulationResult.from_dict(record["series"])

    @staticmethod
    def _key(key) -> str:
        if isinstance(key, ScenarioConfig):
            return key.scenario_id
        return str(key)


def merge_stores(
    dest: "str | os.PathLike | ResultStore",
    sources: "Sequence[str | os.PathLike | ResultStore]",
) -> dict:
    """Assemble one store from shard stores: open ``dest``, stream ``sources``.

    The coordinator-side entry point behind ``python -m repro store merge``:
    sources are consumed one at a time (each is opened, unioned into ``dest``
    via :meth:`ResultStore.merge`, then released), so peak memory is the
    merged key inventory plus one source's, never the sum of all shards.
    Missing source paths are an error — a silently absent shard would
    produce a merged store that looks complete but is not.  Returns the
    merge stats with ``dest`` added.
    """
    store = dest if isinstance(dest, ResultStore) else ResultStore(dest)
    resolved: list[ResultStore] = []
    missing: list[str] = []
    for source in sources:
        if isinstance(source, ResultStore):
            resolved.append(source)
        elif Path(source).exists():
            resolved.append(source)
        else:
            missing.append(str(source))
    if missing:
        raise FileNotFoundError(f"missing source store(s): {', '.join(missing)}")
    stats: dict = {"sources": 0, "scanned": 0, "merged": 0, "skipped": 0, "upgraded": 0}
    for source in resolved:
        partial = store.merge(source, compact=False)
        for key in ("sources", "scanned", "merged", "skipped", "upgraded"):
            stats[key] += partial[key]
    stats["records"] = store.compact()["records"]
    stats["dest"] = str(store.path)
    return stats


def store_stats(
    store_path: "str | os.PathLike",
    index: "Optional[sqlindex.SqliteIndex]" = None,
    telemetry: Optional[Telemetry] = None,
) -> dict:
    """A store's inventory, served from its sidecars without record reads.

    Behind ``python -m repro store stats``: counts by status and schema
    version and the compaction baseline come from the SQLite sidecar
    (built/refreshed on demand), and the cache-hit ratio from the
    ``<store>.metrics.json`` sidecar the last campaign run wrote — no JSONL
    record is materialised on this path.  Only a broken SQLite sidecar
    makes it fall back to opening the store, and then no baseline is shown.
    """
    path = Path(store_path)
    telemetry = telemetry if telemetry is not None else DISABLED
    exists = path.exists()
    stats: dict = {
        "path": str(path),
        "exists": exists,
        "bytes": path.stat().st_size if exists else 0,
    }
    # Compaction baseline: the size compact() stamped, vs what grew since.
    baseline: dict = {}
    try:
        idx = index if index is not None else sqlindex.SqliteIndex(path, telemetry=telemetry)
        by_status = idx.status_counts()
        by_version = idx.version_counts()
        compacted_bytes = idx.compacted_bytes()
        if compacted_bytes is not None:
            baseline = {
                "compacted_bytes": compacted_bytes,
                "appended_bytes_since_compact": max(0, stats["bytes"] - compacted_bytes),
                "appended_records_since_compact": idx.records_beyond(compacted_bytes),
            }
    except sqlindex.SIDECAR_ERRORS:
        store = ResultStore(path, telemetry=telemetry)
        counts = Counter(record.get("status") for record in store.records())
        by_status = dict(sorted(counts.items(), key=lambda kv: str(kv[0])))
        by_version = store.version_counts()
    stats["records"] = sum(by_status.values())
    stats["by_status"] = by_status
    stats["by_schema_version"] = by_version
    stats.update(baseline)
    # Cache economics of the most recent campaign against this store, from
    # the metrics sidecar (cache_hits / executed counters).
    try:
        doc = json.loads(metrics_sidecar_path(path).read_text(encoding="utf-8"))
        counters = doc.get("counters", {}) if isinstance(doc, dict) else {}
        hits = int(counters.get("campaign.cache_hits", 0))
        executed = int(counters.get("campaign.executed", 0))
        if hits + executed > 0:
            stats["cache_hits"] = hits
            stats["executed"] = executed
            stats["cache_hit_ratio"] = round(hits / (hits + executed), 4)
    except (OSError, json.JSONDecodeError, ValueError, TypeError):
        pass
    return stats
