"""Tests for the ``sweep`` CLI subcommand and ``python -m repro``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.sweep.store import store_stats


class TestParser:
    def test_sweep_defaults_make_a_24_cell_grid(self):
        args = build_parser().parse_args(["sweep"])
        governors = args.governors.split(",")
        weather = args.weather.split(",")
        capacitances = args.capacitance_mf.split(",")
        assert len(governors) * len(weather) * len(capacitances) >= 24
        assert args.workers >= 2
        assert args.store == "sweep_results.jsonl"

    def test_sweep_options_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--governors",
                "power-neutral,powersave",
                "--seeds",
                "1,2,3",
                "--workers",
                "4",
                "--resume",
                "--shadow",
                "20:10:0.2",
            ]
        )
        assert args.resume
        assert args.shadow == ["20:10:0.2"]

    def test_figure_seed_flag(self):
        args = build_parser().parse_args(["figure", "fig12", "--seed", "3", "--duration", "30"])
        assert args.seed == 3
        assert args.duration == 30.0

    def test_sweep_supply_options_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--supply",
                "constant-power",
                "--supply-param",
                "power_w=2.5",
                "--supply-param",
                "voltage_limit=6.0",
            ]
        )
        assert args.supply == "constant-power"
        assert args.supply_param == ["power_w=2.5", "voltage_limit=6.0"]

    def test_sweep_preset_choices(self):
        args = build_parser().parse_args(["sweep", "--preset", "fig11-governors"])
        assert args.preset == "fig11-governors"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--preset", "does-not-exist"])

    def test_boundary_options_parse(self):
        args = build_parser().parse_args(
            [
                "boundary",
                "--path",
                "supply.power_w",
                "--lo",
                "0.8",
                "--hi",
                "8",
                "--supply",
                "constant-power",
                "--predicate",
                "survived",
                "--scale",
                "log",
                "--decreasing",
            ]
        )
        assert args.path == "supply.power_w"
        assert args.lo == 0.8 and args.hi == 8.0
        assert args.scale == "log" and args.decreasing

    def test_boundary_preset_choices(self):
        args = build_parser().parse_args(["boundary", "--preset", "min-capacitance"])
        assert args.preset == "min-capacitance"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["boundary", "--preset", "does-not-exist"])

    def test_store_compact_parses(self):
        args = build_parser().parse_args(["store", "compact", "--store", "x.jsonl"])
        assert args.action == "compact" and args.store == "x.jsonl"


class TestRunFlagValidation:
    """Bad run flags stop at the parser: exit 2 and one error line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--timeout", "0"], "argument --timeout: must be > 0 (got 0)"),
            (["sweep", "--timeout", "-5"], "argument --timeout: must be > 0 (got -5)"),
            (["sweep", "--timeout", "soon"], "argument --timeout: invalid float value: 'soon'"),
            (["sweep", "--workers", "0"], "argument --workers: must be >= 1 (got 0)"),
            (["sweep", "--series", "-3"], "argument --series: must be >= 0 (got -3)"),
            (["boundary", "--timeout", "0"], "argument --timeout: must be > 0"),
            (
                ["shard", "--num-shards", "1", "--shard-index", "0", "--workers", "0"],
                "argument --workers: must be >= 1",
            ),
            (["serve", "--timeout", "-1"], "argument --timeout: must be > 0"),
            (["serve", "--watchdog", "0"], "argument --watchdog: must be > 0"),
            (["serve", "--workers", "0"], "argument --workers: must be >= 1"),
            (["serve", "--series", "-1"], "argument --series: must be >= 0"),
        ],
    )
    def test_bad_value_exits_2_with_one_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert message in errors[0]

    def test_commands_keep_their_own_defaults(self):
        parser = build_parser()
        sweep = parser.parse_args(["sweep"])
        shard = parser.parse_args(["shard", "--num-shards", "2", "--shard-index", "0"])
        boundary = parser.parse_args(["boundary"])
        serve = parser.parse_args(["serve"])
        assert (sweep.workers, shard.workers, boundary.workers, serve.workers) == (2, 1, 2, 2)
        assert (sweep.store, shard.store, boundary.store, serve.store) == (
            "sweep_results.jsonl",
            None,
            "boundary_results.jsonl",
            "serve_results.jsonl",
        )
        assert parser.parse_args(["store", "compact"]).store == "sweep_results.jsonl"
        for args in (sweep, shard, boundary, serve):
            assert args.timeout == 600.0

    def test_serve_passes_the_default_budget_to_the_service(self, monkeypatch):
        import repro.serve

        received = {}
        monkeypatch.setattr(repro.serve, "run_service", lambda **kwargs: received.update(kwargs) or 0)
        assert main(["serve", "--port", "0"]) == 0
        assert received["timeout_s"] == 600.0
        assert received["workers"] == 2


class TestExecution:
    def test_sweep_runs_writes_store_and_caches(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        argv = [
            "sweep",
            "--governors",
            "power-neutral,powersave",
            "--weather",
            "full_sun",
            "--capacitance-mf",
            "47",
            "--duration",
            "5",
            "--workers",
            "1",
            "--store",
            str(store),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed  : 2" in out
        assert store.exists()
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)

        # Second invocation with --resume: zero recomputed scenarios.
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "executed  : 0" in out
        assert "cached    : 2" in out

    def test_sweep_reuses_store_by_default_and_fresh_recomputes(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        argv = [
            "sweep",
            "--governors",
            "power-neutral",
            "--weather",
            "full_sun",
            "--capacitance-mf",
            "47",
            "--duration",
            "5",
            "--workers",
            "1",
            "--quiet",
            "--store",
            str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # Default behaviour: existing store is a cache, nothing recomputed.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resuming: 1 record(s)" in out
        assert "cached    : 1" in out
        # --fresh wipes the store and recomputes.
        assert main(argv + ["--fresh"]) == 0
        out = capsys.readouterr().out
        assert "starting fresh campaign" in out
        assert "executed  : 1" in out

    def test_fresh_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--fresh", "--resume", "--store", str(tmp_path / "s.jsonl")])

    def test_sweep_rejects_malformed_numeric_lists(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--capacitance-mf", "15.4,abc", "--store", str(tmp_path / "s.jsonl")])
        with pytest.raises(SystemExit):
            main(["sweep", "--seeds", "1,x", "--store", str(tmp_path / "s.jsonl")])

    def test_sweep_rejects_unknown_governor(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--governors", "warpdrive", "--store", "ignored.jsonl"])

    def test_figure_seed_threads_into_supported_figures(self, capsys):
        code = main(["figure", "fig1", "--seed", "5"])
        assert code == 0
        assert capsys.readouterr().out  # produced a report

    def test_sweep_constant_power_supply_end_to_end(self, tmp_path, capsys):
        """Acceptance: a constant-power campaign builds, runs, stores, aggregates."""
        store = tmp_path / "cp.jsonl"
        code = main(
            [
                "sweep",
                "--supply",
                "constant-power",
                "--supply-param",
                "power_w=4.0",
                "--governors",
                "power-neutral,powersave",
                "--capacitance-mf",
                "47",
                "--duration",
                "4",
                "--workers",
                "1",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executed  : 2" in out
        assert "Table II view" in out
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert all(r["config"]["supply"]["kind"] == "constant-power" for r in records)
        assert all(r["config"]["supply"]["power_w"] == 4.0 for r in records)

    def test_sweep_fig11_preset_end_to_end(self, tmp_path, capsys):
        """Acceptance: the controlled-supply preset runs end-to-end."""
        store = tmp_path / "fig11.jsonl"
        code = main(
            [
                "sweep",
                "--preset",
                "fig11-governors",
                "--duration",
                "3",
                "--workers",
                "1",
                "--quiet",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "preset 'fig11-governors'" in out
        assert "executed  : 5" in out
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert all(r["config"]["supply"]["kind"] == "controlled-voltage" for r in records)
        assert all(r["status"] == "ok" for r in records)

    def test_sweep_shadow_rejected_for_non_pv_supply(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--supply",
                    "constant-power",
                    "--shadow",
                    "1:1:0.2",
                    "--store",
                    str(tmp_path / "s.jsonl"),
                ]
            )

    def test_preset_rejects_conflicting_grid_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicting"):
            main(
                [
                    "sweep",
                    "--preset",
                    "fig11-governors",
                    "--governors",
                    "powersave",
                    "--store",
                    str(tmp_path / "s.jsonl"),
                ]
            )

    def test_non_pv_supply_rejects_explicit_seeds_and_weather(self, tmp_path):
        for extra in (["--seeds", "1,2,3"], ["--weather", "cloud"]):
            with pytest.raises(SystemExit, match="pv-array"):
                main(
                    [
                        "sweep",
                        "--supply",
                        "constant-power",
                        *extra,
                        "--store",
                        str(tmp_path / "s.jsonl"),
                    ]
                )

    def test_supply_param_weather_is_not_clobbered_by_default_grid(self, tmp_path, capsys):
        store = tmp_path / "pinned.jsonl"
        code = main(
            [
                "sweep",
                "--supply-param",
                "weather=hail",
                "--governors",
                "powersave",
                "--capacitance-mf",
                "47",
                "--duration",
                "3",
                "--workers",
                "1",
                "--quiet",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["config"]["supply"]["weather"] == "hail"

    def test_sweep_rejects_bad_supply_param(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--supply",
                    "constant-power",
                    "--supply-param",
                    "power_w",  # missing =VALUE
                    "--store",
                    str(tmp_path / "s.jsonl"),
                ]
            )


class TestBoundaryExecution:
    def test_min_capacitance_round_trip_and_warm_rerun(self, tmp_path, capsys):
        """Acceptance: the preset converges, and a re-run against the same
        store performs zero new simulations."""
        store = tmp_path / "boundary.jsonl"
        argv = [
            "boundary",
            "--preset",
            "min-capacitance",
            "--weather",
            "full_sun",
            "--duration",
            "8",
            "--rel-tol",
            "0.4",
            "--workers",
            "1",
            "--store",
            str(store),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "converged : 1" in out
        assert "critical_capacitance_f" in out
        assert store.exists()
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert all(r["status"] == "ok" for r in records)

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed  : 0" in out
        assert "converged : 1" in out
        # Still the same number of stored probes: nothing was recomputed.
        assert len(store.read_text().splitlines()) == len(records)

    def test_min_power_round_trip(self, tmp_path, capsys):
        store = tmp_path / "power.jsonl"
        code = main(
            [
                "boundary",
                "--preset",
                "min-power",
                "--governors",
                "power-neutral",
                "--duration",
                "6",
                "--rel-tol",
                "0.5",
                "--workers",
                "1",
                "--quiet",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "critical_power_w" in out
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert all(r["config"]["supply"]["kind"] == "constant-power" for r in records)

    def test_custom_query_requires_path_lo_hi(self, tmp_path):
        with pytest.raises(SystemExit, match="--path"):
            main(["boundary", "--store", str(tmp_path / "b.jsonl")])

    def test_preset_rejects_conflicting_search_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="drop --path"):
            main(
                [
                    "boundary",
                    "--preset",
                    "min-power",
                    "--path",
                    "supply.power_w",
                    "--store",
                    str(tmp_path / "b.jsonl"),
                ]
            )

    def test_preset_rejects_unknown_governor_before_running(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown governor"):
            main(
                [
                    "boundary",
                    "--preset",
                    "min-power",
                    "--governors",
                    "power-neutral,ondemnd",
                    "--store",
                    str(tmp_path / "b.jsonl"),
                ]
            )

    def test_preset_honours_predicate_override(self):
        from repro.cli import _build_boundary_query

        args = build_parser().parse_args(
            ["boundary", "--preset", "min-power", "--predicate", "uptime-95"]
        )
        assert _build_boundary_query(args).predicate == "uptime-95"

    def test_fresh_removes_index_sidecar(self, tmp_path, capsys):
        store = tmp_path / "boundary.jsonl"
        argv = [
            "boundary",
            "--preset",
            "min-capacitance",
            "--weather",
            "full_sun",
            "--duration",
            "8",
            "--rel-tol",
            "0.4",
            "--workers",
            "1",
            "--quiet",
            "--store",
            str(store),
        ]
        assert main(argv) == 0
        assert main(["store", "compact", "--store", str(store)]) == 0
        assert "compacted_bytes" in store_stats(store)
        # --fresh must drop the sidecar with the store, or the recomputed
        # store would report growth against the deleted store's baseline.
        assert main(argv + ["--fresh"]) == 0
        capsys.readouterr()
        assert "compacted_bytes" not in store_stats(store)

    def test_preset_rejects_inapplicable_axis_override(self, tmp_path):
        with pytest.raises(SystemExit, match="does not take"):
            main(
                [
                    "boundary",
                    "--preset",
                    "min-power",
                    "--weather",
                    "cloud",
                    "--store",
                    str(tmp_path / "b.jsonl"),
                ]
            )

    def test_boundary_export_csv(self, tmp_path, capsys):
        store = tmp_path / "boundary.jsonl"
        export = tmp_path / "boundary.csv"
        code = main(
            [
                "boundary",
                "--preset",
                "min-capacitance",
                "--weather",
                "full_sun",
                "--duration",
                "8",
                "--rel-tol",
                "0.4",
                "--workers",
                "1",
                "--quiet",
                "--store",
                str(store),
                "--export",
                "csv",
                "--export-path",
                str(export),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = export.read_text().strip().splitlines()
        # A single weather folds into the base config, so the only columns
        # are the search outcome itself.
        assert lines[0].startswith("status,critical_capacitance_f,bracket_lo")
        assert len(lines) == 2 and "converged" in lines[1]


class TestExportAndStoreMaintenance:
    def _tiny_sweep_argv(self, store) -> list:
        return [
            "sweep",
            "--governors",
            "power-neutral",
            "--weather",
            "full_sun",
            "--capacitance-mf",
            "47",
            "--duration",
            "4",
            "--workers",
            "1",
            "--quiet",
            "--store",
            str(store),
        ]

    def test_sweep_export_csv(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        export = tmp_path / "campaign.csv"
        argv = self._tiny_sweep_argv(store) + ["--export", "csv", "--export-path", str(export)]
        assert main(argv) == 0
        assert "exported 1 row(s)" in capsys.readouterr().out
        lines = export.read_text().strip().splitlines()
        assert lines[0].startswith("scenario_id,governor,supply,weather")
        assert len(lines) == 2
        assert "power-neutral" in lines[1]

    def test_sweep_export_default_path_json(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        assert main(self._tiny_sweep_argv(store) + ["--export", "json"]) == 0
        capsys.readouterr()
        exported = json.loads((tmp_path / "campaign.jsonl.summary.json").read_text())
        assert len(exported) == 1 and exported[0]["survived"] is True

    def test_store_compact_round_trip(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        assert main(self._tiny_sweep_argv(store)) == 0
        assert main(["store", "compact", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Compacted" in out and "index_path" not in out
        assert (tmp_path / "campaign.jsonl.sqlite").exists()
        # The compacted store still serves the campaign entirely from cache.
        assert main(self._tiny_sweep_argv(store)) == 0
        out = capsys.readouterr().out
        assert "cached    : 1" in out and "executed  : 0" in out

    def test_store_compact_missing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no store"):
            main(["store", "compact", "--store", str(tmp_path / "absent.jsonl")])


class TestShardAndMerge:
    PRESET_ARGS = ["--preset", "dist-smoke", "--duration", "4", "--quiet"]

    def _run_shard(self, tmp_path, index, n=2, extra=()) -> Path:
        store = tmp_path / f"shard-{index}.jsonl"
        argv = [
            "shard",
            *self.PRESET_ARGS,
            "--num-shards",
            str(n),
            "--shard-index",
            str(index),
            "--store",
            str(store),
            *extra,
        ]
        assert main(argv) == 0
        return store

    def test_shard_merge_equals_single_run(self, tmp_path, capsys):
        """The CLI walkthrough: two shards, merged, equals one sweep — and a
        sweep against the merged store recomputes nothing."""
        single = tmp_path / "single.jsonl"
        assert main(["sweep", *self.PRESET_ARGS, "--workers", "1", "--store", str(single)]) == 0
        shard_stores = [self._run_shard(tmp_path, i) for i in range(2)]
        for store in shard_stores:
            assert Path(str(store) + ".manifest.json").exists()

        merged = tmp_path / "merged.jsonl"
        assert main(["store", "merge", str(merged), *map(str, shard_stores)]) == 0
        assert "Merged 2 store(s)" in capsys.readouterr().out

        from repro.sweep import ResultStore, strip_volatile

        single_records = {
            r["scenario_id"]: strip_volatile(r) for r in ResultStore(single).records()
        }
        merged_records = {
            r["scenario_id"]: strip_volatile(r) for r in ResultStore(merged).records()
        }
        assert merged_records == single_records

        assert main(["sweep", *self.PRESET_ARGS, "--workers", "1", "--store", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "executed  : 0" in out and "cached    : 4" in out

    def test_shard_resume_is_cached_and_other_campaign_rejected(self, tmp_path, capsys):
        store = self._run_shard(tmp_path, 0)
        capsys.readouterr()
        # Re-running the same shard against its store is pure cache hits.
        self._run_shard(tmp_path, 0)
        assert "executed  : 0" in capsys.readouterr().out
        # A different campaign (or geometry) must be refused, not mixed in.
        with pytest.raises(SystemExit, match="use a different --store or --fresh"):
            main(
                [
                    "shard",
                    *self.PRESET_ARGS,
                    "--num-shards",
                    "3",
                    "--shard-index",
                    "0",
                    "--store",
                    str(store),
                ]
            )

    def test_shard_runs_from_spec_file_and_manifest(self, tmp_path, capsys):
        from repro.sweep import CAMPAIGN_PRESETS, ShardPlan

        spec = CAMPAIGN_PRESETS["dist-smoke"](duration_s=4.0)
        spec_file = tmp_path / "campaign.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        store = tmp_path / "s0.jsonl"
        argv = [
            "shard",
            "--spec",
            str(spec_file),
            "--num-shards",
            "2",
            "--shard-index",
            "0",
            "--store",
            str(store),
            "--quiet",
        ]
        assert main(argv) == 0
        manifest = ShardPlan.from_manifest(str(store) + ".manifest.json")
        assert manifest.campaign_hash == spec.campaign_hash()
        capsys.readouterr()
        # A manifest is itself a valid --spec (the verified snapshot wins).
        argv[2] = str(store) + ".manifest.json"
        assert main(argv) == 0
        assert "executed  : 0" in capsys.readouterr().out

    def test_shard_spec_manifest_engine_is_honoured(self, tmp_path, capsys):
        """A worker pointed at an exact-engine manifest must not quietly
        contribute fast-engine records: the stamped engine is adopted, and
        an explicitly conflicting flag is refused."""
        store = self._run_shard(tmp_path, 0, extra=["--exact"])
        manifest = str(store) + ".manifest.json"
        capsys.readouterr()
        argv = [
            "shard",
            "--spec",
            manifest,
            "--num-shards",
            "2",
            "--shard-index",
            "1",
            "--store",
            str(tmp_path / "s1.jsonl"),
            "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "adopting the 'exact' engine" in out
        records = [
            json.loads(line)
            for line in (tmp_path / "s1.jsonl").read_text().splitlines()
        ]
        assert all(r["engine"] == "exact" for r in records)
        # Asking for the engine the manifest does not stamp is an error.
        fast_manifest_store = self._run_shard(tmp_path, 1)
        with pytest.raises(SystemExit, match="must agree on the engine"):
            main(
                [
                    "shard",
                    "--spec",
                    str(fast_manifest_store) + ".manifest.json",
                    "--exact",
                    "--num-shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--store",
                    str(tmp_path / "conflict.jsonl"),
                ]
            )

    def test_shard_rejects_spec_with_grid_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="drop the conflicting"):
            main(
                [
                    "shard",
                    "--spec",
                    "whatever.json",
                    "--governors",
                    "powersave",
                    "--num-shards",
                    "2",
                    "--shard-index",
                    "0",
                ]
            )

    def test_shard_validates_geometry(self, tmp_path):
        with pytest.raises(SystemExit, match="shard-index"):
            main(
                [
                    "shard",
                    *self.PRESET_ARGS,
                    "--num-shards",
                    "2",
                    "--shard-index",
                    "2",
                    "--store",
                    str(tmp_path / "s.jsonl"),
                ]
            )

    def test_store_merge_argument_validation(self, tmp_path):
        with pytest.raises(SystemExit, match="DEST SRC"):
            main(["store", "merge", str(tmp_path / "only-dest.jsonl")])
        with pytest.raises(SystemExit, match="missing source"):
            main(
                [
                    "store",
                    "merge",
                    str(tmp_path / "dest.jsonl"),
                    str(tmp_path / "ghost.jsonl"),
                ]
            )


class TestExactEngine:
    def test_exact_flag_parses_everywhere(self):
        for argv in (
            ["sweep", "--exact"],
            ["boundary", "--exact"],
            ["shard", "--exact", "--num-shards", "2", "--shard-index", "0"],
        ):
            assert build_parser().parse_args(argv).exact is True

    def test_sweep_exact_records_share_the_store_with_fast(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        argv = [
            "sweep",
            "--governors",
            "power-neutral",
            "--weather",
            "full_sun",
            "--capacitance-mf",
            "47",
            "--duration",
            "4",
            "--workers",
            "1",
            "--quiet",
            "--store",
            str(store),
        ]
        assert main(argv + ["--exact"]) == 0
        assert "exact engine" in capsys.readouterr().out
        record = json.loads(store.read_text().splitlines()[0])
        assert record["engine"] == "exact"
        # The engine is not part of the scenario hash: a fast re-run caches.
        assert main(argv) == 0
        assert "executed  : 0" in capsys.readouterr().out


class TestStoreStats:
    def _tiny_sweep_argv(self, store) -> list:
        return [
            "sweep",
            "--governors",
            "power-neutral",
            "--weather",
            "full_sun",
            "--capacitance-mf",
            "47",
            "--duration",
            "4",
            "--workers",
            "1",
            "--quiet",
            "--store",
            str(store),
        ]

    def test_store_stats_parses(self):
        args = build_parser().parse_args(["store", "stats", str(Path("x.jsonl"))])
        assert args.action == "stats" and args.paths == ["x.jsonl"]

    def test_store_stats_round_trip(self, tmp_path, capsys):
        store = tmp_path / "campaign.jsonl"
        assert main(self._tiny_sweep_argv(store)) == 0
        capsys.readouterr()
        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "status_ok : 1" in out
        # After a compact + append, the stats expose the compaction baseline.
        assert main(["store", "compact", "--store", str(store)]) == 0
        argv = self._tiny_sweep_argv(store)
        argv[argv.index("--duration") + 1] = "5"  # a new cell
        assert main(argv + ["--trace", str(tmp_path / "trace")]) == 0
        capsys.readouterr()
        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "appended_records_since_compact : 1" in out

    def test_store_stats_show_only_what_the_store_holds(self, tmp_path, capsys):
        """A run's cache economics live in its trace, not in the store's
        inventory: after a traced run and an untraced --fresh one, the stats
        print no cache line that could belong to either run."""
        store = tmp_path / "campaign.jsonl"
        argv = self._tiny_sweep_argv(store)
        assert main(argv + ["--trace", str(tmp_path / "cold")]) == 0
        assert main(argv + ["--trace", str(tmp_path / "warm")]) == 0
        assert main(argv + ["--fresh"]) == 0
        capsys.readouterr()
        assert main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "status_ok : 1" in out
        for line in ("cache_hits", "executed", "cache_hit_ratio"):
            assert line not in out, line
        assert not list(tmp_path.glob("*.metrics.json"))

    def test_store_stats_missing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no store"):
            main(["store", "stats", str(tmp_path / "absent.jsonl")])

    def test_store_stats_rejects_multiple_paths(self, tmp_path):
        with pytest.raises(SystemExit, match="at most one"):
            main(["store", "stats", "a.jsonl", "b.jsonl"])


class TestServeSubmitCli:
    def test_serve_options_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--store", "x.jsonl", "--workers", "3", "--token", "t"]
        )
        assert args.port == 0
        assert args.store == "x.jsonl"
        assert args.workers == 3
        assert args.token == "t"

    def test_submit_options_parse(self):
        args = build_parser().parse_args(
            ["submit", "--preset", "dist-smoke", "--url", "http://h:1", "--watch"]
        )
        assert args.preset == "dist-smoke"
        assert args.url == "http://h:1"
        assert args.watch

    def test_submit_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["submit", "--url", "http://127.0.0.1:1"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(
                [
                    "submit",
                    "--preset",
                    "dist-smoke",
                    "--spec",
                    str(tmp_path / "x.json"),
                    "--url",
                    "http://127.0.0.1:1",
                ]
            )

    def test_submit_against_live_service_caches_on_resubmit(self, tmp_path, capsys):
        from repro.serve import ServiceThread

        store = tmp_path / "serve.jsonl"
        with ServiceThread(store_path=store, port=0, workers=1) as service:
            argv = [
                "submit",
                "--url",
                service.base_url,
                "--preset",
                "dist-smoke",
                "--duration",
                "2",
                "--timeout",
                "180",
            ]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "accepted" in out
            assert "executed  : 4" in out
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "cache hit" in out and "0 new simulations" in out

    def test_submit_unreachable_service_fails_cleanly(self):
        with pytest.raises(SystemExit, match="cannot reach campaign service"):
            main(
                [
                    "submit",
                    "--url",
                    "http://127.0.0.1:9",  # discard port: nothing listens
                    "--preset",
                    "dist-smoke",
                ]
            )


class TestModuleEntryPoint:
    def test_python_dash_m_repro_shows_usage(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
