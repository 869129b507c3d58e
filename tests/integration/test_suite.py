"""Integration tests for the comprehensive evaluation suite."""

import pytest

from repro.errors import ConfigError
from repro.experiments import SuiteConfig, render_suite, run_suite
from repro.workloads import figure3_graph


@pytest.fixture(scope="module")
def small_suite():
    cfg = SuiteConfig(n_runs=40, loads=(0.5,), models=("xscale",),
                      seed=1)
    return run_suite(cfg, workloads={"fig3": figure3_graph})


class TestSuite:
    def test_cells_cover_grid(self, small_suite):
        assert set(small_suite.cells) == {("fig3", "xscale", 0.5)}

    def test_mean_accessor(self, small_suite):
        m = small_suite.mean("fig3", "xscale", 0.5, "GSS")
        assert 0 < m < 1

    def test_overall_wins_nonempty(self, small_suite):
        wins = small_suite.overall_wins()
        assert set(wins) == set(small_suite.config.schemes)

    def test_render(self, small_suite):
        text = render_suite(small_suite)
        assert "fig3" in text and "xscale" in text
        assert "significant pairwise wins" in text

    def test_default_workload_zoo(self):
        from repro.experiments import default_workloads
        zoo = default_workloads()
        assert {"atr", "fig3", "mpeg", "radar", "fusion",
                "packets"} <= set(zoo)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SuiteConfig(loads=())
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(n_runs=5), workloads={})

    def test_cli_suite(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["suite", "--runs", "10", "--loads", "0.5",
                     "--models", "xscale",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "pairwise wins" in out
        assert "atr" in out and "radar" in out
