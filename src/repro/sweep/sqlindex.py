"""The SQLite index sidecar of :class:`~repro.sweep.store.ResultStore`.

The JSONL store is the source of truth — append-only, human-greppable,
mergeable — but answering *filtered* questions against it ("the ok records of
these 2 000 scenario ids", "how many timeouts per governor") means replaying
every line.  This module keeps a derived SQLite database next to the store
(``<store>.sqlite``) holding, per scenario id, the record's **byte offset and
length** in the JSONL plus its status, schema version and the searchable axis
columns (governor / supply / weather / seed / capacitance / duration /
workload / survived).  Queries run against the index and only the *matching*
lines are seek-loaded from the JSONL — a 100k-record store answers a
filtered query without parsing 100k lines.  It is the store's only index.

The sidecar is purely derived state and maintains itself lazily:

* :meth:`SqliteIndex.ensure` compares the indexed byte count and mtime
  against the live JSONL.  An untouched file is served as-is; a file that
  *grew* (appends) has just its tail scanned; a file that shrank or was
  rewritten in place (compact, merge, ``--fresh``) triggers a full rebuild.
  Before trusting a tail scan the last indexed line is re-read and verified,
  so a rewrite that happens to grow the file cannot smuggle stale offsets
  through.
* Callers that seek-load records through the index verify each line's
  scenario id and fall back to :meth:`rebuild` on any mismatch — the JSONL
  always wins.
* :meth:`SqliteIndex.mark_compacted` (called by ``ResultStore.compact``)
  rebuilds the sidecar and stamps the compacted size as ``compacted_bytes``
  in the ``meta`` table — the baseline ``store stats`` measures growth
  against.  Tail scans keep the baseline; any other rebuild drops it.

Deleting ``<store>.sqlite`` is always safe; the next query rebuilds it
(without a compaction baseline).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .. import faults
from ..obs.telemetry import DISABLED, Telemetry

__all__ = [
    "SIDECAR_ERRORS",
    "FILTER_COLUMNS",
    "SqliteIndex",
    "sqlite_index_path",
]

#: What a sidecar operation may raise; callers catch these and fall back to
#: a linear scan of the JSONL (the sidecar is an accelerator, never a gate).
SIDECAR_ERRORS: tuple = (sqlite3.Error, OSError)

#: Sidecar layout version (bumped on any schema change; mismatches rebuild).
_LAYOUT_VERSION = 1

#: The columns a store query may filter on (axis columns + record identity).
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

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS records (
        scenario_id    TEXT PRIMARY KEY,
        byte_offset    INTEGER NOT NULL,
        byte_length    INTEGER NOT NULL,
        status         TEXT,
        schema_version INTEGER,
        governor       TEXT,
        supply         TEXT,
        weather        TEXT,
        seed           INTEGER,
        capacitance_f  REAL,
        duration_s     REAL,
        workload       TEXT,
        survived       INTEGER
    )
    """,
    "CREATE INDEX IF NOT EXISTS records_status ON records(status)",
    "CREATE INDEX IF NOT EXISTS records_governor ON records(governor)",
)

#: Scenario-id lists longer than this are chunked into several IN queries
#: (SQLite's default host-parameter limit is 999).
_IN_CHUNK = 500


def sqlite_index_path(store_path: "str | os.PathLike") -> Path:
    """Where the SQLite sidecar lives, relative to a result store."""
    return Path(str(store_path) + ".sqlite")


def _component_kind(value) -> Optional[str]:
    """The ``kind`` of a component field — composed dict or v1 flat string."""
    if isinstance(value, Mapping):
        kind = value.get("kind")
        return str(kind) if kind is not None else None
    if isinstance(value, str):
        return value
    return None


def _axis_columns(record: Mapping) -> dict:
    """Best-effort extraction of the searchable axis columns from a record.

    Tolerant of both schema v2 (composed components) and v1 (flat keys);
    anything unreadable is stored as NULL rather than rejected — the sidecar
    must index *every* record the JSONL holds, however old.
    """
    config = record.get("config")
    if not isinstance(config, Mapping):
        config = {}
    supply = config.get("supply")
    supply = supply if isinstance(supply, Mapping) else {}
    capacitor = config.get("capacitor")
    capacitor = capacitor if isinstance(capacitor, Mapping) else {}
    workload = config.get("workload", config.get("workload"))
    summary = record.get("summary")
    summary = summary if isinstance(summary, Mapping) else {}

    def _float(value) -> Optional[float]:
        try:
            return None if value is None else float(value)
        except (TypeError, ValueError):
            return None

    def _int(value) -> Optional[int]:
        try:
            return None if value is None else int(value)
        except (TypeError, ValueError):
            return None

    survived = summary.get("survived")
    return {
        "governor": _component_kind(config.get("governor")),
        "supply": _component_kind(config.get("supply")) or ("pv-array" if config else None),
        "weather": supply.get("weather", config.get("weather")),
        "seed": _int(supply.get("seed", config.get("seed"))),
        "capacitance_f": _float(
            capacitor.get("capacitance_f", config.get("capacitance_f"))
        ),
        "duration_s": _float(config.get("duration_s")),
        "workload": _component_kind(workload),
        "survived": None if survived is None else int(bool(survived)),
    }


class SqliteIndex:
    """The derived SQLite sidecar of one JSONL result store.

    Thread-safe (one lock around every public method, one shared connection
    with ``check_same_thread=False``) because the campaign service queries it
    from executor threads while its worker thread appends to the store.
    """

    def __init__(
        self,
        store_path: "str | os.PathLike",
        db_path: "str | os.PathLike | None" = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.store_path = Path(store_path)
        self.db_path = Path(db_path) if db_path is not None else sqlite_index_path(store_path)
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._lock = threading.RLock()
        self._conn: Optional["sqlite3.Connection"] = None

    # ------------------------------------------------------------------
    # Connection / schema
    # ------------------------------------------------------------------
    def _connect(self) -> "sqlite3.Connection":
        if self._conn is None:
            self.db_path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.db_path, check_same_thread=False)
            try:
                for statement in _SCHEMA:
                    conn.execute(statement)
                conn.commit()
            except sqlite3.DatabaseError:
                # Corrupt/foreign file at the sidecar path: replace it.
                conn.close()
                self.db_path.unlink(missing_ok=True)
                conn = sqlite3.connect(self.db_path, check_same_thread=False)
                for statement in _SCHEMA:
                    conn.execute(statement)
                conn.commit()
            self._conn = conn
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _meta(self, conn) -> dict:
        return {key: value for key, value in conn.execute("SELECT key, value FROM meta")}

    def _write_meta(self, conn, data_bytes: int, mtime_ns: int) -> None:
        conn.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            [
                ("version", str(_LAYOUT_VERSION)),
                ("data_bytes", str(int(data_bytes))),
                ("mtime_ns", str(int(mtime_ns))),
            ],
        )

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    def ensure(self) -> str:
        """Bring the sidecar up to date with the JSONL; returns the action.

        One of ``"fresh"`` (already current), ``"tail"`` (appended records
        scanned incrementally), ``"rebuild"`` (file shrank / was rewritten /
        sidecar was missing or from another layout version) or ``"empty"``
        (no store file).
        """
        injector = faults.active()
        if injector is not None:
            # An "io"-typed rule here raises an OSError, which is in
            # SIDECAR_ERRORS: queries degrade to the linear scan fallback —
            # the self-healing path this site exists to exercise.
            injector.fire(
                "sqlindex.refresh", telemetry=self.telemetry, store=str(self.store_path)
            )
        with self._lock:
            conn = self._connect()
            if not self.store_path.exists():
                if conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]:
                    conn.execute("DELETE FROM records")
                conn.execute("DELETE FROM meta")
                self._write_meta(conn, 0, 0)
                conn.commit()
                return "empty"
            stat = self.store_path.stat()
            size, mtime_ns = stat.st_size, stat.st_mtime_ns
            meta = self._meta(conn)
            try:
                version = int(meta.get("version", -1))
                indexed = int(meta.get("data_bytes", -1))
                indexed_mtime = int(meta.get("mtime_ns", -1))
            except ValueError:
                version, indexed, indexed_mtime = -1, -1, -1
            if version != _LAYOUT_VERSION or indexed < 0 or indexed > size:
                return self._rebuild_locked(conn)
            if indexed == size:
                if indexed_mtime == mtime_ns:
                    return "fresh"
                # Same length, different mtime: rewritten in place.
                return self._rebuild_locked(conn)
            # The file grew.  Only an append-only history keeps the already-
            # indexed offsets valid; verify the last indexed line survived.
            if not self._tail_anchor_valid(conn, indexed):
                return self._rebuild_locked(conn)
            timer = self.telemetry.metrics.timer("store.sqlite_tail_s")
            with timer:
                self._scan(conn, start=indexed)
            self.telemetry.metrics.counter("store.sqlite_tail")
            return "tail"

    def _tail_anchor_valid(self, conn, indexed: int) -> bool:
        """Does the last indexed record still sit where the sidecar says?"""
        row = conn.execute(
            "SELECT scenario_id, byte_offset, byte_length FROM records "
            "ORDER BY byte_offset DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return indexed == 0
        scenario_id, offset, length = row
        if offset + length > indexed:
            return False
        try:
            with self.store_path.open("rb") as fh:
                fh.seek(offset)
                line = fh.read(length)
            record = json.loads(line.decode("utf-8", errors="replace"))
        except (OSError, json.JSONDecodeError, ValueError):
            return False
        return isinstance(record, dict) and record.get("scenario_id") == scenario_id

    def rebuild(self) -> str:
        """Discard every row and re-scan the whole JSONL."""
        with self._lock:
            return self._rebuild_locked(self._connect())

    def _rebuild_locked(self, conn) -> str:
        timer = self.telemetry.metrics.timer("store.sqlite_build_s")
        with timer:
            conn.execute("DELETE FROM records")
            conn.execute("DELETE FROM meta")  # drops the compaction baseline too
            self._scan(conn, start=0)
        self.telemetry.metrics.counter("store.sqlite_build")
        return "rebuild"

    def mark_compacted(self) -> None:
        """Rebuild from a just-compacted JSONL and stamp its size as the
        compaction baseline (``compacted_bytes``)."""
        with self._lock:
            conn = self._connect()
            self._rebuild_locked(conn)
            conn.execute(
                "INSERT INTO meta (key, value) "
                "SELECT 'compacted_bytes', value FROM meta WHERE key = 'data_bytes'"
            )
            conn.commit()

    def compacted_bytes(self) -> Optional[int]:
        """The store size at the last compaction, or None without a baseline."""
        with self._lock:
            self.ensure()
            value = self._meta(self._connect()).get("compacted_bytes")
            return None if value is None else int(value)

    def _scan(self, conn, start: int) -> None:
        """Index complete lines from byte ``start``; later lines supersede.

        Only newline-terminated lines are ingested — a torn trailing line
        (a writer mid-append) is left for the next scan, exactly like the
        trace reader's tail handling.  ``data_bytes`` records the end of the
        last *complete* line, so the torn tail is retried once it completes.
        """
        data_bytes = start
        rows: list[tuple] = []
        with self.store_path.open("rb") as fh:
            fh.seek(start)
            while True:
                line = fh.readline()
                if not line or not line.endswith(b"\n"):
                    break
                offset = data_bytes
                data_bytes += len(line)
                try:
                    record = json.loads(line.decode("utf-8", errors="replace"))
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                scenario_id = record.get("scenario_id")
                if not scenario_id:
                    continue
                axes = _axis_columns(record)
                rows.append(
                    (
                        str(scenario_id),
                        offset,
                        len(line),
                        record.get("status"),
                        int(record.get("schema_version", 1)),
                        axes["governor"],
                        axes["supply"],
                        axes["weather"],
                        axes["seed"],
                        axes["capacitance_f"],
                        axes["duration_s"],
                        axes["workload"],
                        axes["survived"],
                    )
                )
        if rows:
            conn.executemany(
                "INSERT OR REPLACE INTO records (scenario_id, byte_offset, byte_length, "
                "status, schema_version, governor, supply, weather, seed, capacitance_f, "
                "duration_s, workload, survived) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        mtime_ns = self.store_path.stat().st_mtime_ns if self.store_path.exists() else 0
        self._write_meta(conn, data_bytes, mtime_ns)
        conn.commit()

    # ------------------------------------------------------------------
    # Queries (index-only: callers seek-load matching lines themselves)
    # ------------------------------------------------------------------
    @staticmethod
    def _where(filters: Mapping, by_id: bool = False) -> tuple[str, list]:
        """The WHERE clause of ``filters``; ``by_id`` writes ``+column``.

        A unary ``+`` keeps SQLite from answering a filter from its column
        index, so an id-list query looks each id up by primary key instead
        of walking every row the column index matches.  It also drops the
        column's type affinity: a value must have the column's type to
        match, as in the store's linear-scan fallback.
        """
        clauses: list[str] = []
        params: list = []
        for column, value in filters.items():
            if column not in FILTER_COLUMNS:
                raise ValueError(
                    f"unknown store filter {column!r}; known: {', '.join(FILTER_COLUMNS)}"
                )
            if by_id:
                column = f"+{column}"
            if isinstance(value, (list, tuple, set, frozenset)):
                values = list(value)
                if not values:
                    clauses.append("0")
                    continue
                clauses.append(f"{column} IN ({', '.join('?' * len(values))})")
                params.extend(values)
            else:
                clauses.append(f"{column} = ?")
                params.append(value)
        return (" AND ".join(clauses) or "1"), params

    def query(
        self,
        filters: Optional[Mapping] = None,
        scenario_ids: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> list[tuple[str, int, int]]:
        """Matching ``(scenario_id, byte_offset, byte_length)`` rows.

        Rows come back in byte-offset order (sequential reads for the
        caller).  ``scenario_ids`` restricts to an explicit id set — an
        *empty* sequence matches nothing, ``None`` means unrestricted.  With
        an id set, each filter is written ``+column`` so the plan looks the
        ids up by primary key (``sqlite_autoindex_records_1``) rather than
        scanning ``records_status`` once per chunk of ids.
        """
        with self._lock:
            self.ensure()
            conn = self._connect()
            where, params = self._where(filters or {}, by_id=scenario_ids is not None)
            if scenario_ids is None:
                sql = (
                    "SELECT scenario_id, byte_offset, byte_length FROM records "
                    f"WHERE {where} ORDER BY byte_offset"
                )
                rows = [tuple(r) for r in conn.execute(sql, params)]
            else:
                ids = [str(s) for s in scenario_ids]
                rows = []
                for chunk_start in range(0, len(ids), _IN_CHUNK):
                    chunk = ids[chunk_start : chunk_start + _IN_CHUNK]
                    sql = (
                        "SELECT scenario_id, byte_offset, byte_length FROM records "
                        f"WHERE {where} AND scenario_id IN "
                        f"({', '.join('?' * len(chunk))})"
                    )
                    rows.extend(tuple(r) for r in conn.execute(sql, params + chunk))
                rows.sort(key=lambda r: r[1])
            if offset:
                rows = rows[int(offset) :]
            if limit is not None:
                rows = rows[: int(limit)]
            return rows

    def count(
        self, filters: Optional[Mapping] = None, scenario_ids: Optional[Sequence[str]] = None
    ) -> int:
        """Matching-record count, answered from the index alone."""
        with self._lock:
            self.ensure()
            conn = self._connect()
            where, params = self._where(filters or {}, by_id=scenario_ids is not None)
            if scenario_ids is None:
                sql = f"SELECT COUNT(*) FROM records WHERE {where}"
                return int(conn.execute(sql, params).fetchone()[0])
            total = 0
            ids = [str(s) for s in scenario_ids]
            for chunk_start in range(0, len(ids), _IN_CHUNK):
                chunk = ids[chunk_start : chunk_start + _IN_CHUNK]
                sql = (
                    f"SELECT COUNT(*) FROM records WHERE {where} AND scenario_id IN "
                    f"({', '.join('?' * len(chunk))})"
                )
                total += int(conn.execute(sql, params + chunk).fetchone()[0])
            return total

    def _grouped_counts(self, column: str) -> dict:
        with self._lock:
            self.ensure()
            conn = self._connect()
            return {
                key: int(n)
                for key, n in conn.execute(
                    f"SELECT {column}, COUNT(*) FROM records GROUP BY {column} ORDER BY {column}"
                )
            }

    def status_counts(self) -> dict:
        """Record count per status (``ok`` / ``error`` / ``timeout`` / ...)."""
        return self._grouped_counts("status")

    def version_counts(self) -> dict:
        """Record count per config schema version."""
        return self._grouped_counts("schema_version")

    def records_beyond(self, data_bytes: int) -> int:
        """How many indexed records start at/after a byte offset (tail size)."""
        with self._lock:
            self.ensure()
            return int(
                self._connect()
                .execute(
                    "SELECT COUNT(*) FROM records WHERE byte_offset >= ?", (int(data_bytes),)
                )
                .fetchone()[0]
            )
