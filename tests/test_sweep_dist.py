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
from repro.obs import Telemetry, build_report, load_events
from repro.sweep import (
    Axis,
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


class TestChaosRecovery:
    """Injected transient faults heal inside the worker slots: the campaign
    finishes on its own, with a store record-identical (modulo volatile
    fields) to a fault-free run."""

    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        faults.reset()
        yield
        faults.reset()

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
        report = SweepRunner(
            ResultStore(store_path), workers=2, telemetry=telemetry
        ).run(spec)
        telemetry.close()

        assert report.succeeded
        # `times` counts per process, so each of the two slots injects once
        # and heals it with one in-slot retry.
        assert report.retried == 2
        assert records_without_timing(ResultStore(store_path)) == (
            records_without_timing(clean)
        )
        counters = build_report(load_events(tmp_path / "obs"))["counters"]
        assert counters["faults.injected"] == 2
        assert counters["retry.attempt"] == 2
        assert counters.get("retry.exhausted", 0) == 0


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
