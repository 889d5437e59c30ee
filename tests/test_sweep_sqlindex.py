"""Tests for the SQLite inventory sidecar (repro.sweep.sqlindex), the
inventory it serves (store_stats) and the store's filtered reads
(ResultStore.query/count)."""

import json
import os
import sqlite3

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.sweep.spec import SCHEMA_VERSION, ScenarioConfig
from repro.sweep.sqlindex import SqliteIndex, sqlite_index_path
from repro.sweep.store import ResultStore, store_stats


def make_record(config: ScenarioConfig, status: str = "ok", survived=True, **extra) -> dict:
    return {
        "scenario_id": config.scenario_id,
        "config": config.to_dict(),
        "status": status,
        "summary": {"instructions": 1e9, "survived": survived},
        **extra,
    }


def fill(store: ResultStore, n: int = 6) -> list[ScenarioConfig]:
    configs = []
    for i in range(n):
        governor = "power-neutral" if i % 2 == 0 else "powersave"
        config = ScenarioConfig(governor=governor, seed=i)
        store.append(make_record(config, status="ok" if i != 0 else "error",
                                 survived=i % 3 != 0))
        configs.append(config)
    return configs


def record_ensures(monkeypatch) -> list:
    """The actions of every ``SqliteIndex.ensure`` call from now on."""
    actions: list = []
    real_ensure = SqliteIndex.ensure

    def ensure(self):
        action = real_ensure(self)
        actions.append(action)
        return action

    monkeypatch.setattr(SqliteIndex, "ensure", ensure)
    return actions


class TestLifecycle:
    def test_lazy_build_on_first_query(self, tmp_path, monkeypatch):
        """No sidecar exists until an inventory read queries it: record
        queries and counts answer from the held records and never open it."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        ensures = record_ensures(monkeypatch)
        fill(store)
        db = sqlite_index_path(path)
        assert len(store.query(status="ok")) == 5
        assert store.count(status="error") == 1
        assert not db.exists()
        stats = store.stats()
        assert db.exists()
        assert stats["records"] == 6
        assert stats["by_status"] == {"error": 1, "ok": 5}
        assert ensures[0] == "rebuild"
        assert ensures.count("rebuild") == 1

    def test_appends_refresh_as_tail_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        ensures = record_ensures(monkeypatch)
        fill(store)
        assert store.stats()["by_status"] == {"error": 1, "ok": 5}
        late = ScenarioConfig(governor="ondemand", seed=99)
        store.append(make_record(late))
        assert store.stats()["by_status"] == {"error": 1, "ok": 6}
        assert ensures.count("rebuild") == 1  # built once, then tailed
        assert "tail" in ensures[ensures.index("rebuild") + 1:]
        index = SqliteIndex(path)
        assert index.ensure() == "fresh"
        store.append(make_record(ScenarioConfig(governor="ondemand", seed=100)))
        assert index.ensure() == "tail"
        assert index.status_counts() == {"error": 1, "ok": 7}

    def test_rebuild_when_file_rewritten_same_length(self, tmp_path):
        """Same byte length + different mtime must not be trusted."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=2)
        index = SqliteIndex(path)
        assert index.ensure() == "rebuild"
        assert index.ensure() == "fresh"
        text = path.read_text(encoding="utf-8")
        mutated = text.replace('"status":"ok"', '"status":"xx"')
        assert len(mutated) == len(text) and mutated != text
        path.write_text(mutated, encoding="utf-8")
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert index.ensure() == "rebuild"
        assert index.status_counts() == {"error": 1, "xx": 1}
        assert store_stats(path)["by_status"] == {"error": 1, "xx": 1}

    def test_rebuild_when_file_shrinks(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=4)
        index = SqliteIndex(path)
        index.ensure()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:2]), encoding="utf-8")
        assert index.ensure() == "rebuild"
        assert index.status_counts() == {"error": 1, "ok": 1}
        assert store_stats(path)["records"] == 2

    def test_growth_that_is_not_append_only_rebuilds(self, tmp_path):
        """A compact that *grew* the file must not be tail-scanned."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=3)
        index = SqliteIndex(path)
        index.ensure()
        # Rewrite the whole file, longer, with different line boundaries.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            record["padding"] = "x" * 64
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert index.ensure() == "rebuild"
        assert index.status_counts() == {"error": 1, "ok": 2}
        assert store_stats(path)["records"] == 3

    def test_byte_consistency_across_compact(self, tmp_path):
        """After compact + append, the sidecar counts the compacted records
        and the appended tail."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        configs = fill(store)
        store.append(make_record(configs[0], status="ok"))  # supersede the error
        assert len(store.query(status="ok")) == 6
        store.compact()
        reopened = ResultStore(path)
        records = reopened.query(status="ok")
        assert len(records) == 6
        assert {r["scenario_id"] for r in records} == {c.scenario_id for c in configs}
        extra = ScenarioConfig(governor="conservative", seed=7)
        reopened.append(make_record(extra))
        assert reopened.count(status="ok") == 7
        stats = reopened.stats()
        assert stats["by_status"] == {"ok": 7}
        assert stats["appended_records_since_compact"] == 1

    def test_byte_consistency_across_merge(self, tmp_path):
        a, b = ResultStore(tmp_path / "a.jsonl"), ResultStore(tmp_path / "b.jsonl")
        ca, cb = fill(a, n=3), fill(b, n=3)
        b_only = ScenarioConfig(governor="interactive", seed=42)
        b.append(make_record(b_only))
        stale = SqliteIndex(a.path)
        stale.ensure()  # build *before* the merge mutates the file
        a.merge(b)
        store = ResultStore(a.path)
        ids = {r["scenario_id"] for r in store.query(status="ok")}
        assert b_only.scenario_id in ids
        assert stale.ensure() == "fresh"  # the merge's compaction rebuilt it
        assert stale.status_counts() == {"error": 1, "ok": 3}
        assert ca and cb

    def test_deleted_sidecar_is_rebuilt_transparently(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store)
        assert store.stats()["records"] == 6
        sqlite_index_path(path).unlink()
        index = SqliteIndex(path)
        assert index.ensure() == "rebuild"
        assert index.status_counts() == {"error": 1, "ok": 5}
        assert store_stats(path)["records"] == 6

    def test_corrupt_sidecar_file_is_replaced(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=2)
        sqlite_index_path(path).write_bytes(b"this is not a database")
        assert store_stats(path)["by_status"] == {"error": 1, "ok": 1}


class TestQueries:
    def test_axis_filters(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store)
        pn = store.query(governor="power-neutral")
        assert len(pn) == 3
        assert all(r["config"]["governor"]["kind"] == "power-neutral" for r in pn)
        assert store.count(governor=["power-neutral", "powersave"], status="ok") == 5
        assert store.count(survived=1) == 4
        assert store.count(seed=3) == 1

    def test_unknown_filter_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(ValueError, match="unknown store filter"):
            store.query(nonsense="x")

    def test_scenario_id_subset_and_empty_subset(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        configs = fill(store)
        subset = store.query(scenario_ids=[configs[1].scenario_id, configs[2].scenario_id])
        assert {r["scenario_id"] for r in subset} == {
            configs[1].scenario_id,
            configs[2].scenario_id,
        }
        assert store.query(scenario_ids=[]) == []
        assert store.count(scenario_ids=[]) == 0

    def test_limit_offset_in_store_order(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        configs = fill(store)
        page = store.query(limit=2, offset=1)
        assert [r["scenario_id"] for r in page] == [
            configs[1].scenario_id,
            configs[2].scenario_id,
        ]

    def test_stale_sidecar_never_serves_wrong_records(self, tmp_path):
        """A sidecar pointing at rewritten bytes rebuilds and still answers."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=4)
        index = SqliteIndex(path)
        index.ensure()
        index.close()
        # Rewrite with shuffled record order (same records, new offsets) and
        # force the tail-anchor to look plausible by keeping mtime/meta stale.
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(reversed(lines)), encoding="utf-8")
        store2 = ResultStore(path)
        records = store2.query(status="ok")
        assert {r["scenario_id"] for r in records} == {
            json.loads(line)["scenario_id"] for line in lines if '"ok"' in line
        }

    def test_thousand_record_store_serves_without_replay(self, tmp_path):
        """Acceptance: >=1k records filtered from the held records."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        for i in range(1000):
            config = ScenarioConfig(governor="power-neutral", seed=i)
            store.append(
                make_record(config, status="ok" if i % 10 else "error", survived=i % 2)
            )
        reopened = ResultStore(path)
        ok = reopened.query(status="ok")
        assert len(ok) == 900
        assert reopened.count(status="error") == 100


class TestStats:
    def test_store_stats_shape(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store)
        stats = store_stats(path)
        assert stats["records"] == 6
        assert stats["by_status"] == {"error": 1, "ok": 5}
        assert stats["by_schema_version"] == {SCHEMA_VERSION: 6}
        assert "compacted_bytes" not in stats  # never compacted: no baseline

    def test_store_stats_tracks_compaction_baseline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=4)
        compacted = store.compact()["bytes_after"]
        store.append(make_record(ScenarioConfig(governor="ondemand", seed=50)))
        stats = store_stats(path)
        assert stats["compacted_bytes"] == compacted
        assert stats["appended_records_since_compact"] == 1
        assert stats["appended_bytes_since_compact"] == path.stat().st_size - compacted
        # Tail scans keep the baseline across further appends and reads.
        store.append(make_record(ScenarioConfig(governor="ondemand", seed=51)))
        assert store.count() == 6
        assert store_stats(path)["appended_records_since_compact"] == 2

    def test_rewrite_in_place_drops_the_baseline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=4)
        store.compact()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:2]), encoding="utf-8")
        stats = store_stats(path)
        assert stats["records"] == 2
        assert "compacted_bytes" not in stats
        assert "appended_records_since_compact" not in stats

    def test_deleted_store_drops_the_baseline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=2)
        store.compact()
        path.unlink()
        assert SqliteIndex(path).compacted_bytes() is None
        ResultStore(path).append(make_record(ScenarioConfig(governor="ondemand")))
        assert "compacted_bytes" not in store_stats(path)

    def test_deleted_sidecar_drops_the_baseline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=3)
        store.compact()
        sqlite_index_path(path).unlink()
        stats = store_stats(path)
        assert stats["records"] == 3
        assert "compacted_bytes" not in stats


class TestBrokenSidecar:
    @pytest.fixture
    def broken_refresh(self):
        """Every sidecar refresh raises an injected OSError."""
        faults.install(
            FaultPlan(rules=(FaultRule(site="sqlindex.refresh", error_type="io", times=0),))
        )
        yield
        faults.reset()

    def test_store_stats_opens_the_store_and_shows_no_baseline(self, tmp_path, request):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store, n=4)
        store.compact()  # a baseline the broken sidecar cannot serve
        store.append(make_record(ScenarioConfig(governor="ondemand", seed=50)))
        request.getfixturevalue("broken_refresh")
        stats = store_stats(path)
        assert stats["records"] == 5
        assert stats["by_status"] == {"error": 1, "ok": 4}
        assert stats["by_schema_version"] == {SCHEMA_VERSION: 5}
        assert "compacted_bytes" not in stats
        assert "appended_records_since_compact" not in stats

    def test_queries_never_touch_the_sidecar(self, tmp_path, broken_refresh):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store)
        assert len(store.query(status="ok")) == 5
        assert store.count(governor="powersave") == 3
        assert not sqlite_index_path(path).exists()

    def test_v1_layout_sidecar_is_rebuilt(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        fill(store)
        conn = sqlite3.connect(sqlite_index_path(path))
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute(
            "CREATE TABLE records (scenario_id TEXT PRIMARY KEY, "
            "byte_offset INTEGER NOT NULL, byte_length INTEGER NOT NULL, status TEXT, "
            "schema_version INTEGER, governor TEXT, supply TEXT, weather TEXT, "
            "seed INTEGER, capacitance_f REAL, duration_s REAL, workload TEXT, "
            "survived INTEGER)"
        )
        conn.execute("CREATE INDEX records_governor ON records(governor)")
        conn.execute(
            "INSERT INTO records VALUES ('stale', 0, 1, 'ok', 1, 'g', 's', 'w', 0, 0.1, "
            "60.0, 'x', 1)"
        )
        size = path.stat().st_size
        mtime_ns = path.stat().st_mtime_ns
        conn.executemany(
            "INSERT INTO meta VALUES (?, ?)",
            [("version", "1"), ("data_bytes", str(size)), ("mtime_ns", str(mtime_ns))],
        )
        conn.commit()
        conn.close()

        stats = store_stats(path)
        assert stats["records"] == 6
        assert stats["by_status"] == {"error": 1, "ok": 5}
        conn = sqlite3.connect(sqlite_index_path(path))
        columns = [row[1] for row in conn.execute("PRAGMA table_info(records)")]
        conn.close()
        assert columns == [
            "scenario_id", "byte_offset", "byte_length", "status", "schema_version"
        ]
