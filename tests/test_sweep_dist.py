"""Tests for sharded campaign execution (repro.sweep.dist).

The acceptance contract: for any SweepSpec, the union of N shard stores
merged via the store layer is key-identical and record-equal (timing aside)
to the store a single SweepRunner.run() produces, and re-running any shard
against the merged store executes zero new simulations.
"""

import json

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.obs import Telemetry
from repro.sweep import (
    Axis,
    BoundaryQuery,
    BoundarySearch,
    DistRunner,
    ResultStore,
    ScenarioConfig,
    ShardPlan,
    SweepRunner,
    SweepSpec,
    merge_stores,
    partition_scenarios,
    shard_index_of,
    strip_volatile,
)

#: Short simulated duration keeping each scenario ~tens of milliseconds.
DURATION_S = 4.0


def small_spec(seeds=(1,)) -> SweepSpec:
    return SweepSpec.grid(
        governors=["power-neutral", "powersave"],
        weather=["full_sun", "cloud"],
        seeds=list(seeds),
        duration_s=DURATION_S,
    )


def records_without_timing(store: ResultStore) -> dict:
    return {r["scenario_id"]: strip_volatile(r) for r in store.records()}


class TestPartition:
    def test_shards_are_disjoint_and_cover_the_campaign(self):
        spec = small_spec(seeds=(1, 2, 3))
        all_ids = set(spec.scenario_ids())
        subsets = [set() for _ in range(3)]
        for i in range(3):
            for config in ShardPlan.partition(spec, 3, i).configs():
                subsets[i].add(config.scenario_id)
        assert subsets[0] | subsets[1] | subsets[2] == all_ids
        assert not (subsets[0] & subsets[1] or subsets[0] & subsets[2] or subsets[1] & subsets[2])

    def test_membership_is_content_addressed(self):
        """A scenario's shard depends only on its hash — the same cell lands
        on the same shard no matter how the campaign that contains it is
        spelled or ordered."""
        spec = small_spec()
        reordered = SweepSpec(base=spec.base, axes=tuple(reversed(spec.axes)))
        assert spec.campaign_hash() == reordered.campaign_hash()
        for i in range(2):
            a = {c.scenario_id for c in ShardPlan.partition(spec, 2, i).configs()}
            b = {c.scenario_id for c in ShardPlan.partition(reordered, 2, i).configs()}
            assert a == b
        for config in spec.scenarios():
            assert 0 <= shard_index_of(config.scenario_id, 2) < 2

    def test_single_shard_is_the_whole_campaign(self):
        spec = small_spec()
        plan = ShardPlan.partition(spec, 1, 0)
        assert [c.scenario_id for c in plan.configs()] == spec.scenario_ids()

    def test_partition_of_config_list(self):
        configs = small_spec(seeds=(1, 2)).scenarios()
        parts = [partition_scenarios(configs, 2, i) for i in range(2)]
        assert sorted(c.scenario_id for part in parts for c in part) == sorted(
            c.scenario_id for c in configs
        )

    def test_invalid_geometry_rejected(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            ShardPlan.partition(spec, 0, 0)
        with pytest.raises(ValueError):
            ShardPlan.partition(spec, 2, 2)
        with pytest.raises(ValueError):
            ShardPlan.partition(spec, 2, -1)
        with pytest.raises(ValueError):
            ShardPlan.partition(spec, 2, 0, engine="warp")


class TestSpecSerialisation:
    def test_round_trip_preserves_campaign_identity(self):
        spec = small_spec(seeds=(1, 2))
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.scenario_ids() == spec.scenario_ids()
        assert rebuilt.campaign_hash() == spec.campaign_hash()

    def test_round_trip_with_component_and_shadow_axes(self):
        from repro.sweep import ShadowSpec

        base = ScenarioConfig(
            governor="power-neutral",
            duration_s=DURATION_S,
            shadowing=(ShadowSpec(start_s=1.0, duration_s=0.5),),
        )
        spec = SweepSpec(
            base=base,
            axes=(
                Axis("governor", ["power-neutral", "ondemand"]),
                Axis("capacitor.capacitance_f", [15.4e-3, 47e-3]),
            ),
        )
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.campaign_hash() == spec.campaign_hash()

    def test_campaign_hash_changes_with_physics(self):
        assert small_spec().campaign_hash() != small_spec(seeds=(2,)).campaign_hash()


class TestManifest:
    def test_write_verify_round_trip(self, tmp_path):
        plan = ShardPlan.partition(small_spec(), 2, 1, engine="exact")
        path = plan.write_manifest(tmp_path / "shard-1.manifest.json")
        loaded = ShardPlan.from_manifest(path)
        assert loaded.campaign_hash == plan.campaign_hash
        assert (loaded.n_shards, loaded.shard_index, loaded.engine) == (2, 1, "exact")
        assert loaded.describes_same_campaign(plan)
        assert [c.scenario_id for c in loaded.configs()] == [
            c.scenario_id for c in plan.configs()
        ]

    def test_manifest_counts(self):
        plan = ShardPlan.partition(small_spec(), 2, 0)
        manifest = plan.manifest()
        assert manifest["total_scenarios"] == 4
        assert manifest["shard_scenarios"] == len(plan.configs())

    def test_tampered_spec_snapshot_is_rejected(self, tmp_path):
        plan = ShardPlan.partition(small_spec(), 2, 0)
        path = plan.write_manifest(tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["spec"]["base"]["duration_s"] = 999.0  # silently different physics
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="different campaign"):
            ShardPlan.from_manifest(path)

    def test_unknown_manifest_version_is_rejected(self, tmp_path):
        plan = ShardPlan.partition(small_spec(), 2, 0)
        data = plan.manifest()
        data["manifest_version"] = 99
        with pytest.raises(ValueError, match="version"):
            ShardPlan.from_manifest(data)

    def test_different_campaigns_do_not_match(self):
        a = ShardPlan.partition(small_spec(), 2, 0)
        b = ShardPlan.partition(small_spec(seeds=(2,)), 2, 0)
        assert not a.describes_same_campaign(b)
        assert not a.describes_same_campaign(
            ShardPlan.partition(small_spec(), 3, 0)
        )


class TestShardMergeEquivalence:
    """The subsystem's acceptance criterion, via SweepRunner per shard."""

    def test_merged_shard_stores_equal_single_run(self, tmp_path):
        spec = small_spec()
        single = ResultStore(tmp_path / "single.jsonl")
        SweepRunner(single, workers=1).run(spec)

        shard_paths = []
        for i in range(2):
            plan = ShardPlan.partition(spec, 2, i)
            path = tmp_path / f"shard-{i}.jsonl"
            report = SweepRunner(ResultStore(path), workers=1).run(plan.configs())
            assert report.succeeded
            shard_paths.append(path)

        merged = ResultStore(tmp_path / "merged.jsonl")
        stats = merge_stores(merged, shard_paths)
        assert stats["records"] == len(spec)
        assert records_without_timing(merged) == records_without_timing(single)

        # Re-running any shard against the merged store is pure cache hits.
        for i in range(2):
            plan = ShardPlan.partition(spec, 2, i)
            rerun = SweepRunner(ResultStore(tmp_path / "merged.jsonl"), workers=1).run(
                plan.configs()
            )
            assert rerun.executed == 0
            assert rerun.cached == len(plan.configs())


class TestDistRunner:
    def test_matches_single_run_and_caches_warm(self, tmp_path):
        spec = small_spec()
        single = ResultStore(tmp_path / "single.jsonl")
        SweepRunner(single, workers=1).run(spec)

        store = ResultStore(tmp_path / "dist.jsonl")
        report = DistRunner(store, n_shards=2).run(spec)
        assert report.succeeded
        assert report.executed == len(spec)
        assert records_without_timing(ResultStore(tmp_path / "dist.jsonl")) == (
            records_without_timing(single)
        )

        warm = DistRunner(ResultStore(tmp_path / "dist.jsonl"), n_shards=2).run(spec)
        assert warm.executed == 0
        assert warm.cached == len(spec)

    def test_progress_is_relayed_with_global_counts(self, tmp_path):
        seen = []
        store = ResultStore(tmp_path / "dist.jsonl")
        runner = DistRunner(
            store,
            n_shards=2,
            progress=lambda done, total, record, cached: seen.append((done, total, cached)),
        )
        runner.run(small_spec())
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(total == 4 and not cached for _, total, cached in seen)

    def test_shard_stores_give_cache_hits_after_coordinator_loss(self, tmp_path):
        """Losing the merged store is cheap: shard stores persist and the
        next distributed run re-merges without re-simulating."""
        spec = small_spec()
        store_path = tmp_path / "dist.jsonl"
        DistRunner(ResultStore(store_path), n_shards=2).run(spec)
        store_path.unlink()

        report = DistRunner(ResultStore(store_path), n_shards=2).run(spec)
        assert report.executed == 0
        assert report.cached == len(spec)
        assert len(ResultStore(store_path).ok_records()) == len(spec)

    def test_worker_failures_are_recorded_and_retryable(self, tmp_path):
        # powersave is not tunable, so overrides fail cleanly inside a shard.
        bad = ScenarioConfig(
            governor="powersave", duration_s=DURATION_S, governor_overrides={"v_q": 0.1}
        )
        good = ScenarioConfig(governor="powersave", duration_s=DURATION_S)
        store = ResultStore(tmp_path / "dist.jsonl")
        report = DistRunner(store, n_shards=2).run([bad, good])
        assert report.failed == 1
        assert not report.succeeded
        reopened = ResultStore(tmp_path / "dist.jsonl")
        assert reopened.get(bad)["status"] == "error"
        assert not reopened.is_complete(bad)
        assert reopened.is_complete(good)

    def test_boundary_search_through_dist_runner(self, tmp_path):
        """A BoundarySearch fed a DistRunner shards every round's probe batch
        and converges to the same cell results as the serial runner."""
        query = BoundaryQuery(
            base=ScenarioConfig(
                governor="power-neutral",
                supply={"kind": "constant-power"},
                duration_s=3.0,
            ),
            path="supply.power_w",
            lo=0.8,
            hi=8.0,
            rel_tol=0.3,
        )
        serial = BoundarySearch(
            query, SweepRunner(ResultStore(tmp_path / "serial.jsonl"), workers=1)
        ).run()
        dist = BoundarySearch(
            query, DistRunner(ResultStore(tmp_path / "dist.jsonl"), n_shards=2)
        ).run()
        assert dist.converged and serial.converged
        assert [c.to_dict() for c in dist.cells] == [
            {**c.to_dict(), "cached": dist.cells[i].cached}
            for i, c in enumerate(serial.cells)
        ]


class TestChaosRecovery:
    """Injected process loss: the coordinator must finish the campaign on its
    own — no manual resume — and produce a store record-identical (modulo
    volatile fields) to a fault-free run."""

    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        faults.reset()
        yield
        faults.reset()

    @staticmethod
    def _busiest_shard(spec, n_shards: int) -> int:
        sizes = [0] * n_shards
        for scenario_id in spec.scenario_ids():
            sizes[shard_index_of(scenario_id, n_shards)] += 1
        return max(range(n_shards), key=sizes.__getitem__)

    def test_killed_worker_is_respawned_and_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(seeds=(1, 2, 3))  # 12 cells across 2 shards
        clean = ResultStore(tmp_path / "clean.jsonl")
        SweepRunner(clean, workers=1).run(spec)

        # Hard-kill the busiest shard's worker after it has reported two
        # scenarios; `once` + state_dir keeps the respawn from re-crashing.
        target = self._busiest_shard(spec, 2)
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="dist.worker_loop",
                    kind="crash",
                    after=2,
                    once=True,
                    match={"shard": target},
                ),
            ),
            state_dir=str(tmp_path / "fault-state"),
        )
        plan_path = tmp_path / "faults.json"
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(faults.FAULTS_ENV, str(plan_path))
        faults.reset()

        telemetry = Telemetry.create(tmp_path / "obs")
        store_path = tmp_path / "chaos.jsonl"
        runner = DistRunner(
            ResultStore(store_path),
            n_shards=2,
            shard_dir=tmp_path / "shards",
            respawn_budget=2,
            telemetry=telemetry,
        )
        report = runner.run(spec)
        telemetry.close()

        assert report.succeeded
        assert report.failed == 0
        assert records_without_timing(ResultStore(store_path)) == (
            records_without_timing(clean)
        )
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["dist.worker_deaths"] >= 1
        assert counters["dist.respawn"] >= 1
        # The recovery unit ran against its own private store file.
        recovery_stores = list((tmp_path / "shards").glob(f"shard-{target}-r*.jsonl"))
        assert recovery_stores
        assert (tmp_path / "fault-state" / "fault-rule-0.fired").exists()

    def test_transient_simulate_faults_heal_inside_workers(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec()
        clean = ResultStore(tmp_path / "clean.jsonl")
        SweepRunner(clean, workers=1).run(spec)

        plan = FaultPlan(
            rules=(FaultRule(site="worker.simulate", times=1, message="injected chaos"),)
        )
        monkeypatch.setenv(faults.FAULTS_ENV, plan.to_json())
        faults.reset()

        telemetry = Telemetry.create(tmp_path / "obs")
        store_path = tmp_path / "chaos.jsonl"
        report = DistRunner(
            ResultStore(store_path),
            n_shards=2,
            shard_dir=tmp_path / "shards",
            telemetry=telemetry,
        ).run(spec)
        telemetry.close()

        assert report.succeeded
        assert report.retried >= 1
        assert records_without_timing(ResultStore(store_path)) == (
            records_without_timing(clean)
        )
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["retry.attempt"] >= 1
        assert counters.get("retry.exhausted", 0) == 0

    def test_respawn_budget_exhaustion_fails_honestly(self, tmp_path, monkeypatch):
        spec = small_spec(seeds=(1, 2))
        target = self._busiest_shard(spec, 2)
        # No `once`, no state_dir: every (re)spawned worker on the target
        # shard crashes on its first report, forever.
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="dist.worker_loop",
                    kind="crash",
                    times=0,
                    match={"shard": target},
                ),
            )
        )
        monkeypatch.setenv(faults.FAULTS_ENV, plan.to_json())
        faults.reset()

        report = DistRunner(
            ResultStore(tmp_path / "chaos.jsonl"),
            n_shards=2,
            shard_dir=tmp_path / "shards",
            respawn_budget=1,
        ).run(spec)
        assert not report.succeeded
        assert report.failed >= 1
        # The other shard's cells still completed.
        assert report.executed + report.cached + report.failed == len(spec)


class TestEngineThreading:
    def test_exact_engine_records_are_stamped_and_comparable(self, tmp_path):
        config = ScenarioConfig(governor="power-neutral", duration_s=DURATION_S)
        fast_store = ResultStore(tmp_path / "fast.jsonl")
        SweepRunner(fast_store, workers=1).run([config])
        exact_store = ResultStore(tmp_path / "exact.jsonl")
        SweepRunner(exact_store, workers=1, fast=False).run([config])

        fast_record = fast_store.get(config)
        exact_record = exact_store.get(config)
        assert fast_record["engine"] == "fast"
        assert exact_record["engine"] == "exact"
        # Same scenario identity: an exact store cache-hits a fast rerun.
        assert fast_record["scenario_id"] == exact_record["scenario_id"]
        rerun = SweepRunner(exact_store, workers=1).run([config])
        assert rerun.executed == 0
        # And the engines agree on the paper's metrics to within parity.
        assert fast_record["summary"]["survived"] == exact_record["summary"]["survived"]
        assert fast_record["summary"]["instructions"] == pytest.approx(
            exact_record["summary"]["instructions"], rel=0.01
        )
