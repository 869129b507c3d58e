"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_flags(self):
        args = build_parser().parse_args(
            ["fig4", "--runs", "10", "--jobs", "2", "--oracle"])
        assert args.runs == 10 and args.jobs == 2 and args.oracle

    @pytest.mark.parametrize("flag", [["--shards", "3"],
                                      ["--shard-mem-mb", "64"]])
    def test_fig_online_rejects_shard_flags(self, flag):
        # streams never fuse, so a shard request would be ignored
        with pytest.raises(SystemExit):
            main(["fig_online", "--runs", "20", "--no-cache"] + flag)

    def test_report_has_no_jobs_flag(self, tmp_path):
        # the report's figures all fuse, so a pool would sit idle
        with pytest.raises(SystemExit):
            main(["report", "--runs", "4", "--jobs", "2",
                  "-o", str(tmp_path / "r.md")])


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Transmeta" in out and "XScale" in out

    def test_run(self, capsys):
        assert main(["run", "--app", "fig3", "--runs", "5",
                     "--model", "xscale"]) == 0
        out = capsys.readouterr().out
        assert "E/E_NPM" in out and "GSS" in out

    def test_run_with_scheme_subset(self, capsys):
        assert main(["run", "--runs", "3", "--schemes", "GSS",
                     "SPM"]) == 0
        out = capsys.readouterr().out
        assert "GSS" in out and "SS1" not in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "figure6-transmeta" in out
        assert "figure6-xscale" in out
        assert "speed changes" in out

    def test_fig4_csv(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["fig4", "--runs", "5", "--csv", str(csv)]) == 0
        text = csv.read_text()
        assert text.startswith("x,scheme,mean")
        assert "GSS" in text

    def test_gantt(self, capsys):
        assert main(["gantt", "--app", "fig3", "--scheme", "GSS",
                     "--load", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "P0 |" in out and "scheme=GSS" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "doom"])


class TestAnalysisCommands:
    def test_analyze(self, capsys):
        from repro.cli import main
        assert main(["analyze", "--app", "fig3", "--load", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "T_worst" in out and "parallelism" in out
        assert "slack" in out

    def test_stream(self, capsys):
        from repro.cli import main
        assert main(["stream", "--app", "fig3", "--frames", "5",
                     "--schemes", "GSS"]) == 0
        out = capsys.readouterr().out
        assert "mission: 5 frames" in out
        assert "GSS" in out and "NPM" in out  # NPM always added

    def test_fig_chart_flag(self, capsys):
        from repro.cli import main
        assert main(["fig6", "--runs", "4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "y: normalized energy" in out


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "r.md"
        assert main(["report", "--runs", "4", "--figures", "fig6",
                     "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "# Measured results" in text
        assert "Figure 6" in text
        assert "| alpha |" in text
        assert "Table 1" in text

    def test_report_figures_subset(self, tmp_path):
        from repro.cli import main
        out_path = tmp_path / "r.md"
        assert main(["report", "--runs", "4", "--figures", "fig4",
                     "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "Figure 4" in text and "Figure 5" not in text


class TestStatisticsCommands:
    def test_exact(self, capsys):
        from repro.cli import main
        assert main(["exact", "--app", "fig3", "--load", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "E[E/E_NPM]" in out and "expected" in out

    def test_misprofile(self, capsys):
        from repro.cli import main
        assert main(["misprofile", "--app", "fig3", "--runs", "20",
                     "--gammas", "0.5", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "regret" in out and "0.50" in out
