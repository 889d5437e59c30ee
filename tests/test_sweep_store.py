"""Tests for the JSONL result store (repro.sweep.store)."""

import json

import numpy as np
import pytest

from repro.sim.result import SimulationResult
from repro.sweep.spec import SCHEMA_VERSION, ScenarioConfig
from repro.sweep.store import ResultStore, merge_stores, store_stats


def make_record(config: ScenarioConfig, status: str = "ok", **extra) -> dict:
    return {
        "scenario_id": config.scenario_id,
        "config": config.to_dict(),
        "status": status,
        "summary": {"instructions": 1e9, "survived": True},
        **extra,
    }


def make_result(n=16) -> SimulationResult:
    times = np.linspace(0.0, 10.0, n)
    return SimulationResult(
        times=times,
        supply_voltage=np.full(n, 5.3),
        harvested_power=np.full(n, 3.0),
        available_power=np.full(n, 4.0),
        consumed_power=np.full(n, 3.0),
        frequency_hz=np.full(n, 0.9e9),
        n_little=np.full(n, 4.0),
        n_big=np.zeros(n),
        running=np.ones(n),
        instructions=np.linspace(0, 1e10, n),
        v_low=np.full(n, 5.2),
        v_high=np.full(n, 5.4),
        duration_s=10.0,
        total_instructions=1e10,
        governor_name="g",
    )


class TestPersistence:
    def test_append_then_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = ScenarioConfig(governor="power-neutral")
        store = ResultStore(path)
        assert len(store) == 0 and not store.is_complete(config)
        store.append(make_record(config))

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert config in reloaded
        assert config.scenario_id in reloaded
        assert reloaded.is_complete(config)
        assert reloaded.get(config)["summary"]["instructions"] == 1e9

    def test_later_record_supersedes_earlier(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = ScenarioConfig(governor="power-neutral")
        store = ResultStore(path)
        store.append(make_record(config, status="error", error="boom"))
        assert not store.is_complete(config)
        store.append(make_record(config, status="ok"))
        assert store.is_complete(config)

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.is_complete(config)
        assert len(reloaded.ok_records()) == 1

    def test_corrupt_trailing_line_is_skipped(self, tmp_path):
        """A store killed mid-write must still load its complete records."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        a = ScenarioConfig(governor="power-neutral", seed=1)
        b = ScenarioConfig(governor="power-neutral", seed=2)
        store.append(make_record(a))
        store.append(make_record(b))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"scenario_id": "deadbeef", "status": "o')  # torn write

        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        # The torn tail is repaired on open: salvaged to the quarantine
        # sidecar and truncated away, so nothing is left to skip.
        assert reloaded.skipped_lines == 0
        assert reloaded.quarantined_bytes > 0
        assert reloaded.is_complete(a) and reloaded.is_complete(b)
        # Appending after a torn line must still yield parseable lines.
        c = ScenarioConfig(governor="power-neutral", seed=3)
        reloaded.append(make_record(c))
        again = ResultStore(path)
        assert again.is_complete(c)

    def test_torn_multibyte_utf8_tail_is_tolerated(self, tmp_path):
        """A reader racing an in-flight append can see a line cut mid-way
        through a multi-byte UTF-8 sequence; the store must open (skipping
        the torn line), not die in the decoder."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        a = ScenarioConfig(governor="power-neutral", seed=1)
        store.append(make_record(a))
        torn = '{"scenario_id": "deadbeef", "error": "café'.encode("utf-8")
        with path.open("ab") as fh:
            fh.write(torn[:-1])  # cut inside the 2-byte é sequence

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        # Repaired on open: the undecodable tail is quarantined, not parsed.
        assert reloaded.skipped_lines == 0
        assert reloaded.quarantined_bytes > 0
        assert reloaded.is_complete(a)
        # The writer finishing its line later must not corrupt the file for
        # subsequent appends/readers.
        b = ScenarioConfig(governor="power-neutral", seed=2)
        reloaded.append(make_record(b))
        assert ResultStore(path).is_complete(b)

    def test_record_without_id_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        try:
            store.append({"status": "ok"})
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for record without scenario_id")


class TestTornTailRepair:
    def test_torn_tail_is_quarantined_and_truncated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        a = ScenarioConfig(governor="power-neutral", seed=1)
        store.append(make_record(a))
        clean_size = path.stat().st_size
        torn = '{"scenario_id": "deadbeef", "status": "o'
        with path.open("a", encoding="utf-8") as fh:
            fh.write(torn)

        reloaded = ResultStore(path)
        assert reloaded.quarantined_bytes == len(torn)
        # The data file is back at the last clean line boundary, and the torn
        # bytes are preserved for post-mortems in the quarantine sidecar.
        assert path.stat().st_size == clean_size
        assert reloaded.quarantine_path.read_text(encoding="utf-8") == torn + "\n"
        assert len(reloaded) == 1 and reloaded.is_complete(a)

    def test_repair_is_idempotent(self, tmp_path):
        path = tmp_path / "store.jsonl"
        a = ScenarioConfig(governor="power-neutral", seed=1)
        ResultStore(path).append(make_record(a))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"torn')
        ResultStore(path)
        # A second open finds a clean file: nothing further is quarantined.
        again = ResultStore(path)
        assert again.quarantined_bytes == 0
        assert again.quarantine_path.read_text(encoding="utf-8").count("\n") == 1

    def test_complete_unterminated_record_is_healed_in_place(self, tmp_path):
        path = tmp_path / "store.jsonl"
        a = ScenarioConfig(governor="power-neutral", seed=1)
        b = ScenarioConfig(governor="power-neutral", seed=2)
        ResultStore(path).append(make_record(a))
        # A full record that lost only its trailing newline (killed between
        # write and the newline hitting disk) is finished, not quarantined.
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(make_record(b)))

        reloaded = ResultStore(path)
        assert reloaded.quarantined_bytes == 0
        assert not reloaded.quarantine_path.exists()
        assert len(reloaded) == 2 and reloaded.is_complete(b)
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_quarantine_accumulates_across_crashes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        a = ScenarioConfig(governor="power-neutral", seed=1)
        store = ResultStore(path)
        store.append(make_record(a))
        for fragment in ('{"first', '{"second'):
            with path.open("a", encoding="utf-8") as fh:
                fh.write(fragment)
            ResultStore(path)
        salvaged = (tmp_path / "store.jsonl.quarantine").read_text(encoding="utf-8")
        assert salvaged == '{"first\n{"second\n'

    def test_whole_file_torn_truncates_to_empty(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"no newline and no closing brace', encoding="utf-8")
        store = ResultStore(path)
        assert len(store) == 0
        assert store.quarantined_bytes > 0
        assert path.stat().st_size == 0
        # The store is fully usable after the repair.
        a = ScenarioConfig(governor="power-neutral", seed=1)
        store.append(make_record(a))
        assert ResultStore(path).is_complete(a)


class TestSchemaVersions:
    def test_appended_records_are_stamped_with_current_version(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = ScenarioConfig(governor="power-neutral")
        store = ResultStore(path)
        store.append(make_record(config))
        assert store.get(config)["schema_version"] == SCHEMA_VERSION
        assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION
        assert store.legacy_count == 0
        assert store.version_counts() == {SCHEMA_VERSION: 1}

    def test_legacy_records_are_tolerated_and_reported(self, tmp_path):
        """A PR-1 store (flat configs, no schema_version) must load, count as
        legacy, and simply miss the cache for new-schema configs."""
        path = tmp_path / "store.jsonl"
        v1_record = {
            "scenario_id": "0123456789abcdef",
            "config": {"governor": "powersave", "weather": "cloud", "duration_s": 5.0},
            "status": "ok",
            "summary": {"instructions": 1e9, "survived": True},
        }
        path.write_text(json.dumps(v1_record) + "\n")

        store = ResultStore(path)
        assert len(store) == 1
        assert store.legacy_count == 1
        assert store.version_counts() == {1: 1}
        # The legacy record is readable but does not satisfy a new config.
        new_config = ScenarioConfig.from_dict(v1_record["config"])
        assert not store.is_complete(new_config)
        # Appending the recomputed cell upgrades the version accounting.
        store.append(make_record(new_config))
        assert store.is_complete(new_config)
        assert store.version_counts() == {1: 1, SCHEMA_VERSION: 1}

    def test_retry_of_legacy_id_clears_legacy_count(self, tmp_path):
        path = tmp_path / "store.jsonl"
        legacy = {"scenario_id": "feedc0de", "status": "error", "error": "boom"}
        path.write_text(json.dumps(legacy) + "\n")
        store = ResultStore(path)
        assert store.legacy_count == 1
        store.append({"scenario_id": "feedc0de", "status": "ok", "summary": {}})
        assert store.legacy_count == 0
        assert ResultStore(path).legacy_count == 0


class TestCompaction:
    def _filled_store(self, path, n=4) -> tuple[ResultStore, list[ScenarioConfig]]:
        store = ResultStore(path)
        configs = [ScenarioConfig(governor="power-neutral", seed=i) for i in range(n)]
        for config in configs:  # first pass: failures, later superseded
            store.append(make_record(config, status="error", error="boom"))
        for config in configs:
            store.append(make_record(config, status="ok"))
        return store, configs

    def test_compact_drops_superseded_lines_and_writes_index(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store, configs = self._filled_store(path)
        stats = store.compact()
        assert stats["records"] == 4
        assert stats["dropped_lines"] == 4
        assert stats["bytes_after"] < stats["bytes_before"]
        assert len(path.read_text().splitlines()) == 4
        assert store.sqlite_path.exists()
        assert "index_path" not in stats
        # The compacted store is still fully queryable in-process.
        assert all(store.is_complete(c) for c in configs)

    def test_appends_after_compaction_replay_as_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store, configs = self._filled_store(path)
        store.compact()
        extra = ScenarioConfig(governor="powersave")
        ResultStore(path).append(make_record(extra))

        reloaded = ResultStore(path)
        assert len(reloaded) == 5
        assert reloaded.is_complete(extra)
        assert all(reloaded.is_complete(c) for c in configs)

    def test_stale_index_is_ignored(self, tmp_path):
        """A store rewritten to be shorter than its sidecar claims must be
        read for what it holds instead of seeking at dead offsets."""
        path = tmp_path / "store.jsonl"
        store, _ = self._filled_store(path)
        store.compact()
        first_line = path.read_text().splitlines(keepends=True)[0]
        path.write_text(first_line)

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert len(reloaded.ok_records()) == 1
        assert len(reloaded.query(status="ok")) == 1

    def test_compact_preserves_schema_version_accounting(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            json.dumps({"scenario_id": "feedc0de", "status": "ok", "summary": {}}) + "\n"
        )
        store = ResultStore(path)
        store.append(make_record(ScenarioConfig(governor="power-neutral")))
        store.compact()

        reloaded = ResultStore(path)
        assert reloaded.legacy_count == 1
        assert reloaded.version_counts() == {1: 1, SCHEMA_VERSION: 1}


class TestMerge:
    def _store_with(self, path, records) -> ResultStore:
        store = ResultStore(path)
        for record in records:
            store.append(record)
        return store

    def test_disjoint_union(self, tmp_path):
        a = ScenarioConfig(governor="power-neutral", seed=1)
        b = ScenarioConfig(governor="power-neutral", seed=2)
        self._store_with(tmp_path / "a.jsonl", [make_record(a)])
        self._store_with(tmp_path / "b.jsonl", [make_record(b)])

        dest = ResultStore(tmp_path / "merged.jsonl")
        stats = dest.merge(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert stats["merged"] == 2 and stats["records"] == 2
        assert dest.sqlite_path.exists()  # merged index rebuilt
        reloaded = ResultStore(tmp_path / "merged.jsonl")
        assert reloaded.is_complete(a) and reloaded.is_complete(b)

    def test_complete_record_beats_failure_in_either_direction(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral")
        # Failure in dest, success in source: the success wins.
        dest = self._store_with(
            tmp_path / "d.jsonl", [make_record(config, status="error", error="boom")]
        )
        self._store_with(tmp_path / "ok.jsonl", [make_record(config, status="ok")])
        dest.merge(tmp_path / "ok.jsonl")
        assert dest.is_complete(config)
        # Success in dest, failure in source: the failure is skipped.
        stats = self._store_with(
            tmp_path / "d2.jsonl", [make_record(config, status="ok")]
        ).merge(
            self._store_with(
                tmp_path / "err.jsonl", [make_record(config, status="timeout")]
            )
        )
        assert stats["skipped"] == 1 and stats["merged"] == 0
        assert ResultStore(tmp_path / "d2.jsonl").is_complete(config)

    def test_later_source_wins_among_complete_records(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral")
        self._store_with(tmp_path / "a.jsonl", [make_record(config, marker="first")])
        self._store_with(tmp_path / "b.jsonl", [make_record(config, marker="second")])
        dest = ResultStore(tmp_path / "merged.jsonl")
        merge_stores(dest, [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
        assert dest.get(config)["marker"] == "second"

    def test_v1_records_are_upgraded_and_rekeyed(self, tmp_path):
        """Merging a v1+v2 mix re-keys upgradeable legacy records under the
        current content hash, so old results cache-hit new-schema configs."""
        v1_config = {"governor": "powersave", "weather": "cloud", "duration_s": 5.0}
        v1_record = {
            "scenario_id": "0123456789abcdef",  # the PR-1-era hash
            "config": v1_config,
            "status": "ok",
            "summary": {"survived": True},
        }
        (tmp_path / "legacy.jsonl").write_text(json.dumps(v1_record) + "\n")
        v2 = ScenarioConfig(governor="power-neutral")
        self._store_with(tmp_path / "modern.jsonl", [make_record(v2)])

        dest = ResultStore(tmp_path / "merged.jsonl")
        stats = dest.merge(tmp_path / "legacy.jsonl", tmp_path / "modern.jsonl")
        assert stats["upgraded"] == 1
        upgraded_config = ScenarioConfig.from_dict(v1_config)
        assert dest.is_complete(upgraded_config)
        assert dest.is_complete(v2)
        assert "0123456789abcdef" not in dest
        reloaded = ResultStore(tmp_path / "merged.jsonl")
        assert reloaded.legacy_count == 0
        assert reloaded.get(upgraded_config)["schema_version"] == SCHEMA_VERSION

    def test_unupgradeable_legacy_record_passes_through(self, tmp_path):
        broken = {"scenario_id": "feedc0de", "status": "ok", "summary": {}}
        (tmp_path / "legacy.jsonl").write_text(json.dumps(broken) + "\n")
        dest = ResultStore(tmp_path / "merged.jsonl")
        stats = dest.merge(tmp_path / "legacy.jsonl")
        assert stats["upgraded"] == 0 and stats["merged"] == 1
        assert "feedc0de" in dest

    def test_source_without_idx_sidecar_merges(self, tmp_path):
        """A never-queried source (no sidecar) is fully parsed and merged."""
        config = ScenarioConfig(governor="power-neutral")
        src = self._store_with(tmp_path / "plain.jsonl", [make_record(config)])
        assert not src.sqlite_path.exists()
        dest = ResultStore(tmp_path / "merged.jsonl")
        assert dest.merge(tmp_path / "plain.jsonl")["merged"] == 1
        assert dest.is_complete(config)

    def test_stale_source_idx_falls_back_to_full_reload(self, tmp_path):
        """A source whose sidecar lies about its contents (store rewritten
        shorter) must merge what the file really holds."""
        configs = [ScenarioConfig(governor="power-neutral", seed=i) for i in range(3)]
        src = self._store_with(tmp_path / "src.jsonl", [make_record(c) for c in configs])
        src.compact()
        lines = (tmp_path / "src.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "src.jsonl").write_text(lines[0])  # sidecar is now stale

        dest = ResultStore(tmp_path / "merged.jsonl")
        stats = dest.merge(tmp_path / "src.jsonl")
        assert stats["merged"] == 1
        assert len(ResultStore(tmp_path / "merged.jsonl")) == 1

    def test_merge_then_compact_is_idempotent(self, tmp_path):
        a = ScenarioConfig(governor="power-neutral", seed=1)
        b = ScenarioConfig(governor="power-neutral", seed=2)
        self._store_with(
            tmp_path / "a.jsonl", [make_record(a, status="error", error="x"), make_record(a)]
        )
        self._store_with(tmp_path / "b.jsonl", [make_record(b)])
        dest = ResultStore(tmp_path / "merged.jsonl")
        dest.merge(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        after_merge = (tmp_path / "merged.jsonl").read_bytes()
        assert store_stats(dest.path)["compacted_bytes"] == len(after_merge)

        stats = ResultStore(tmp_path / "merged.jsonl").compact()
        assert stats["records"] == 2 and stats["dropped_lines"] == 0
        assert (tmp_path / "merged.jsonl").read_bytes() == after_merge
        assert store_stats(dest.path)["compacted_bytes"] == len(after_merge)

    def test_merge_into_itself_is_rejected(self, tmp_path):
        store = self._store_with(
            tmp_path / "s.jsonl", [make_record(ScenarioConfig(governor="power-neutral"))]
        )
        with pytest.raises(ValueError, match="itself"):
            store.merge(tmp_path / "s.jsonl")

    def test_merge_stores_requires_sources_to_exist(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="ghost.jsonl"):
            merge_stores(tmp_path / "merged.jsonl", [tmp_path / "ghost.jsonl"])


class TestSeriesRoundTrip:
    def test_result_for_rebuilds_simulation_result(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = ScenarioConfig(governor="power-neutral")
        result = make_result()
        record = make_record(config, series=result.to_dict(max_samples=8))
        store = ResultStore(path)
        store.append(record)

        rebuilt = ResultStore(path).result_for(config)
        assert rebuilt is not None
        assert len(rebuilt.times) == 8
        assert rebuilt.total_instructions == result.total_instructions
        assert rebuilt.governor_name == "g"
        assert float(rebuilt.supply_voltage[0]) == 5.3

    def test_result_for_without_series_is_none(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral")
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(config))
        assert store.result_for(config) is None

    def test_store_line_is_valid_json(self, tmp_path):
        path = tmp_path / "store.jsonl"
        config = ScenarioConfig(governor="power-neutral")
        ResultStore(path).append(make_record(config, series=make_result().to_dict()))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["scenario_id"] == config.scenario_id


def _disk_records(path) -> list:
    """The latest record per id, parsed from the data file, in byte order of
    each id's latest line."""
    latest: dict = {}
    for line in path.read_bytes().splitlines():
        record = json.loads(line)
        latest.pop(record["scenario_id"], None)
        latest[record["scenario_id"]] = record
    return list(latest.values())


class TestQueryFromMemory:
    """A query answers from the records the store holds, in store order."""

    def _configs(self, n=4):
        return [ScenarioConfig(governor="power-neutral", seed=i) for i in range(n)]

    def test_opened_appended_and_compacted_records_need_no_seek_loads(self, tmp_path):
        path = tmp_path / "store.jsonl"
        configs = self._configs()
        writer = ResultStore(path)
        for config in configs[:2]:
            writer.append(make_record(config))
        store = ResultStore(path)  # opened: two records parsed at open
        for config in configs[2:]:
            store.append(make_record(config))  # appended by this store

        assert store.query(status="ok") == _disk_records(path)
        ids = [c.scenario_id for c in configs]
        assert store.query(scenario_ids=ids[::-1]) == _disk_records(path)

        store.append(make_record(configs[0], status="error", error="boom"))
        store.compact()
        assert store.query() == _disk_records(path)
        ok = [r for r in _disk_records(path) if r["status"] == "ok"]
        assert len(ok) == 3
        assert store.query(status="ok", governor="power-neutral") == ok

    def test_merged_only_record_is_never_served_as_on_disk(self, tmp_path):
        """A record merged but not yet compacted is served as ``get`` returns
        it, not as the superseded line still on disk."""
        path = tmp_path / "store.jsonl"
        config = ScenarioConfig(governor="power-neutral")
        store = ResultStore(path)
        store.append(make_record(config, status="error", error="boom"))
        source = ResultStore(tmp_path / "source.jsonl")
        source.append(make_record(config))
        store.merge(source, compact=False)
        assert store.get(config)["status"] == "ok"  # held in memory only
        assert _disk_records(path)[0]["status"] == "error"

        (record,) = store.query(scenario_ids=[config.scenario_id])
        assert record == store.get(config)
        assert store.query(status="ok") == [record]
        assert store.count(status="error") == 0
        store.compact()
        (record,) = store.query(scenario_ids=[config.scenario_id])
        assert record["status"] == "ok"
        assert store.get(config) == _disk_records(path)[0]

    def test_negative_paging_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(ScenarioConfig(governor="power-neutral")))
        for paging in ({"limit": -1}, {"offset": -5}):
            with pytest.raises(ValueError, match="negative"):
                store.query(**paging)
        assert len(store.query(limit=0)) == 0 and len(store.query(offset=0)) == 1

    def test_get_after_append_equals_a_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = {"zeta": 1, "scenario_id": "c0ffee", "status": "ok", "pair": (1, 2)}
        store = ResultStore(path)
        store.append(record)

        reopened = ResultStore(path).get("c0ffee")
        assert store.get("c0ffee") == reopened
        assert json.dumps(store.get("c0ffee")) == json.dumps(reopened)


class TestStoreOrder:
    """Every read lists records in the order of each id's latest line."""

    def test_superseded_id_moves_to_the_end_everywhere(self, tmp_path):
        path = tmp_path / "store.jsonl"
        a, b, c = (ScenarioConfig(governor="power-neutral", seed=i) for i in range(3))
        store = ResultStore(path)
        for config in (a, b, c):
            store.append(make_record(config, status="error", error="boom"))
        store.append(make_record(a))
        expected = [b.scenario_id, c.scenario_id, a.scenario_id]

        def ids(records):
            return [r["scenario_id"] for r in records]

        assert ids(store.query()) == expected
        assert ids(store.query(scenario_ids=[c.scenario_id, a.scenario_id, b.scenario_id])) == (
            expected
        )
        assert ids(store.records()) == expected
        assert store.query() == _disk_records(path)
        store.compact()
        assert ids(json.loads(line) for line in path.read_text().splitlines()) == expected
        assert ids(store.query()) == expected
        assert store.query() == _disk_records(path)
        assert ids(ResultStore(path).query()) == expected

    def test_queries_see_each_id_once_while_another_thread_supersedes(self, tmp_path):
        import sys
        import threading
        import time

        configs = [ScenarioConfig(governor="power-neutral", seed=i) for i in range(50)]
        ids = [c.scenario_id for c in configs]
        source = ResultStore(tmp_path / "source.jsonl")
        for config in configs:
            source.append(make_record(config))
        store = ResultStore(tmp_path / "store.jsonl")
        store.merge(source, compact=False)

        def supersede():
            for _ in range(2000):
                store.merge(source, compact=False)

        writer = threading.Thread(target=supersede)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        answers = 0
        try:
            writer.start()
            while writer.is_alive() or answers == 0:
                for records in (store.query(scenario_ids=ids), store.query(status="ok")):
                    assert sorted(r["scenario_id"] for r in records) == sorted(ids)
                assert store.count(scenario_ids=ids) == len(ids)
                answers += 1
                time.sleep(0)  # let the writer in between answers
        finally:
            writer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert answers > 1
