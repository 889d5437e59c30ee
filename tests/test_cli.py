"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURE_FUNCTIONS, build_parser, main
from repro.governors.base import Governor
from repro.sweep import GOVERNORS, TABLE2_GOVERNOR_AXIS, build_governor, governor_label


class TestParser:
    def test_all_governors_selectable(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--governor", "powersave", "--duration", "30"])
        assert args.governor == "powersave"
        assert args.duration == 30.0

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.duration == 900.0

    def test_figure_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFactories:
    def test_every_factory_builds_a_governor(self):
        for name in GOVERNORS:
            assert isinstance(build_governor(name), Governor), name

    def test_figure_registry_covers_paper_artifacts(self):
        for key in ("fig1", "fig4", "fig7", "fig10", "table1", "fig12", "fig14"):
            assert key in FIGURE_FUNCTIONS


class TestExecution:
    def test_run_command_prints_summary(self, capsys):
        code = main(["run", "--governor", "power-neutral", "--duration", "20", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Run summary" in out
        assert "V_C" in out

    def test_figure_command_prints_rows(self, capsys):
        code = main(["figure", "fig4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "board_power_w" in out

    def test_figure_table1(self, capsys):
        code = main(["figure", "table1"])
        assert code == 0
        assert "required_capacitance_mf" in capsys.readouterr().out

    def test_table2_runs_the_campaign_inline_and_leaves_no_file(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["table2", "--duration", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Table II (20 s test)"
        schemes = [line.split("|")[0].strip() for line in lines[3:11]]
        assert schemes == [governor_label(name) for name in TABLE2_GOVERNOR_AXIS]
        assert any(
            line.startswith("Instructions vs Linux Powersave:") and "(paper: +69.0%)" in line
            for line in lines
        )
        assert list(tmp_path.iterdir()) == []
