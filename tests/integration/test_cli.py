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

    def test_fig5_rejects_the_removed_shards_flag(self):
        # a fused sweep always runs in the command's own process: there
        # is no run-axis sharding to request
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--runs", "10", "--no-cache", "--shards", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--shards", "3"],
                                      ["--shards", "0"]])
    def test_fig_online_rejects_shard_flags(self, flag):
        # no figure command takes a shard request, the stream one included
        with pytest.raises(SystemExit) as exc:
            main(["fig_online", "--runs", "20", "--no-cache"] + flag)
        assert exc.value.code == 2

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

    def test_fig6_small(self, tmp_path, capsys):
        assert main(["fig6", "--runs", "5",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "figure6-transmeta" in out
        assert "figure6-xscale" in out
        assert "speed changes" in out

    def test_fig4_csv(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["fig4", "--runs", "5", "--csv", str(csv),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
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

    def test_fig_chart_flag(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["fig6", "--runs", "4", "--chart",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
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


class TestRunSummary:
    def test_figure_prints_one_summary_line(self, tmp_path, capsys):
        argv = ["fig5", "--runs", "5", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        # stdout carries the results only, identical cold and warm
        assert cold.out == warm.out
        lines = warm.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro fig5: ")
        assert "experiments.evalcache.hits=20" in lines[0]
        assert "experiments.evalcache.misses" not in lines[0]
        assert "experiments.fused.draws=2" in cold.err

    def test_every_command_prints_one(self, capsys):
        assert main(["tables"]) == 0
        assert capsys.readouterr().err.startswith("repro tables: ")

    @pytest.mark.parametrize("flag", ["--cache-stats", "--profile"])
    def test_removed_statistics_flags(self, flag):
        # python -m cProfile -m repro ... profiles any command
        for argv in (["fig5", "--runs", "5", "--no-cache", flag],
                     ["run", "--runs", "5", flag]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestInputErrors:
    @pytest.mark.parametrize("argv,message", [
        (["fig5", "--runs", "0", "--no-cache"], "n_runs must be >= 1"),
        (["fig5", "--jobs", "-1", "--no-cache"], "n_jobs must be >= 0"),
        (["run", "--load", "0"], "load must be in (0, 1]"),
        (["run", "--procs", "0"], "at least one processor"),
    ])
    def test_bad_input_is_one_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
