"""The SQLite inventory sidecar of :class:`~repro.sweep.store.ResultStore`.

The JSONL store is the source of truth — append-only, human-greppable,
mergeable — and every record read is answered from the records an open
store holds.  What an open store cannot give cheaply is the inventory of a
store nobody has opened: ``python -m repro store stats`` reports counts by
status and schema version, and the bytes and records appended since the last
compaction.  This module keeps that inventory in a derived SQLite database
next to the store (``<store>.sqlite``): per scenario id, the byte offset and
length of its latest line plus its status and schema version.

The sidecar is purely derived state and maintains itself lazily:

* :meth:`SqliteIndex.ensure` compares the indexed byte count and mtime
  against the live JSONL.  An untouched file is served as-is; a file that
  *grew* (appends) has just its tail scanned; a file that shrank or was
  rewritten in place (compact, merge, ``--fresh``) triggers a full rebuild,
  and so does a sidecar of another layout version.  Before trusting a tail
  scan the last indexed line is re-read and verified, so a rewrite that
  happens to grow the file cannot smuggle stale offsets through.
* :meth:`SqliteIndex.mark_compacted` (called by ``ResultStore.compact``)
  rebuilds the sidecar and stamps the compacted size as ``compacted_bytes``
  in the ``meta`` table — the baseline ``store stats`` measures growth
  against.  Tail scans keep the baseline; any other rebuild drops it.

Deleting ``<store>.sqlite`` is always safe; the next ``store stats``
rebuilds it (without a compaction baseline).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Optional

from .. import faults
from ..obs.telemetry import DISABLED, Telemetry

__all__ = [
    "SIDECAR_ERRORS",
    "SqliteIndex",
    "sqlite_index_path",
]

#: What a sidecar operation may raise; callers catch these and fall back to
#: opening the store (the sidecar is a shortcut, never a gate).
SIDECAR_ERRORS: tuple = (sqlite3.Error, OSError)

#: Sidecar layout version (bumped on any schema change; mismatches rebuild).
_LAYOUT_VERSION = 2

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
        schema_version INTEGER
    )
    """,
    "CREATE INDEX IF NOT EXISTS records_status ON records(status)",
)


def sqlite_index_path(store_path: "str | os.PathLike") -> Path:
    """Where the SQLite sidecar lives, relative to a result store."""
    return Path(str(store_path) + ".sqlite")


class SqliteIndex:
    """The derived SQLite sidecar of one JSONL result store.

    Thread-safe (one lock around every public method, one shared connection
    with ``check_same_thread=False``), so one store object can be shared
    across threads.
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
            # SIDECAR_ERRORS: store_stats falls back to opening the store —
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
            self._scan(conn, start=indexed)
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
        # Dropped, not emptied: a sidecar of another layout has other columns.
        conn.execute("DROP TABLE records")
        conn.execute("DELETE FROM meta")  # drops the compaction baseline too
        for statement in _SCHEMA:
            conn.execute(statement)
        self._scan(conn, start=0)
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
                rows.append(
                    (
                        str(scenario_id),
                        offset,
                        len(line),
                        record.get("status"),
                        int(record.get("schema_version", 1)),
                    )
                )
        if rows:
            conn.executemany(
                "INSERT OR REPLACE INTO records (scenario_id, byte_offset, byte_length, "
                "status, schema_version) VALUES (?, ?, ?, ?, ?)",
                rows,
            )
        mtime_ns = self.store_path.stat().st_mtime_ns if self.store_path.exists() else 0
        self._write_meta(conn, data_bytes, mtime_ns)
        conn.commit()

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
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
