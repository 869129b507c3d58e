"""Unit tests for paired statistical comparison."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (
    RunConfig,
    compare_all,
    evaluate_application,
    paired_comparison,
    render_comparison,
    win_matrix,
)
from repro.experiments.compare import t_two_sided_p
from repro.workloads import application_with_load, figure3_graph

#: degrees of freedom and t statistics the p-value is pinned over
DFS = (1, 2, 3, 5, 10, 30, 100, 1000, 10 ** 4, 10 ** 5)
TS = (0.01, 0.5, 1.0, 1.7, 2.0, 3.0, 6.0, 12.0, 25.0, 40.0)


class TestPairedComparison:
    def test_clear_difference_detected(self, rng):
        base = rng.normal(0.5, 0.05, 200)
        c = paired_comparison("A", base - 0.02, "B", base)
        assert c.significant
        assert c.winner == "A"
        assert c.mean_diff == pytest.approx(-0.02)

    def test_identical_samples_tie(self):
        x = np.linspace(0.4, 0.6, 50)
        c = paired_comparison("A", x, "B", x.copy())
        assert not c.significant
        assert c.winner is None
        assert c.p_value == 1.0

    def test_noise_is_a_tie(self, rng):
        a = rng.normal(0.5, 0.05, 100)
        b = a + rng.normal(0.0, 0.0005, 100)  # tiny symmetric jitter
        c = paired_comparison("A", a, "B", b)
        # difference is orders of magnitude below the jitter CI
        assert abs(c.mean_diff) < 0.001

    def test_pairing_beats_unpaired_intuition(self, rng):
        # large shared variance, small consistent difference: paired
        # test detects it even though the two marginal distributions
        # overlap almost entirely
        shared = rng.normal(0.5, 0.2, 300)
        c = paired_comparison("A", shared - 0.01, "B", shared)
        assert c.significant and c.winner == "A"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            paired_comparison("A", np.ones(3), "B", np.ones(4))

    def test_too_few_runs_rejected(self):
        with pytest.raises(ConfigError):
            paired_comparison("A", np.ones(1), "B", np.ones(1))


class TestCompareAll:
    @pytest.fixture(scope="class")
    def result(self):
        app = application_with_load(figure3_graph(), 0.6, 2)
        return evaluate_application(
            app, RunConfig(n_runs=200, power_model="xscale", seed=3))

    def test_pair_count(self, result):
        comps = compare_all(result, schemes=["GSS", "SS1", "AS"])
        assert len(comps) == 3

    def test_unknown_scheme_rejected(self, result):
        with pytest.raises(ConfigError, match="not in result"):
            compare_all(result, schemes=["GSS", "EDF"])

    def test_render(self, result):
        text = render_comparison(compare_all(result))
        assert "Δ mean" in text and "verdict" in text

    def test_win_matrix_counts(self, result):
        comps = compare_all(result, schemes=["GSS", "SS1", "AS"])
        wins = win_matrix(comps)
        assert set(wins) == {"GSS", "SS1", "AS"}
        assert sum(wins.values()) <= len(comps)

    def test_paper_claim_gss_beats_ss1_on_xscale(self, result):
        """The headline, now with a p-value."""
        comps = compare_all(result, schemes=["GSS", "SS1"])
        assert comps[0].winner == "GSS"


class TestPValue:
    """The paired t-test p-value needs numpy and ``math`` only."""

    def test_experiments_import_without_scipy(self):
        # a None entry in sys.modules makes any ``import scipy`` fail
        script = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            import repro.experiments
            from repro.experiments import figure5
            out = figure5(n_runs=10)
            print("points:", sum(len(s.points) for s in out.values()))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "points: " in proc.stdout, proc.stdout

    def test_zero_t_is_certain(self):
        assert t_two_sided_p(0.0, 7) == 1.0

    def test_symmetric_in_t(self):
        for df in DFS:
            for t in TS:
                assert t_two_sided_p(-t, df) == t_two_sided_p(t, df)

    def test_cauchy_closed_form(self):
        # df = 1 is the Cauchy distribution: p = 1 - (2/pi) atan|t|
        for t in TS:
            want = 1.0 - 2.0 / np.pi * np.arctan(t)
            assert t_two_sided_p(t, 1) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("df", DFS)
    def test_matches_scipy_ttest_rel(self, df):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(df)
        n = df + 1
        z = rng.normal(size=n)
        z -= z.mean()
        z /= z.std(ddof=1)
        base = rng.normal(0.5, 0.1, n)
        for t in TS:
            for sign in (1.0, -1.0):
                # differences with unit sample std and mean t/sqrt(n):
                # the paired statistic is t
                a = base + z + sign * t / np.sqrt(n)
                want = float(stats.ttest_rel(a, base).pvalue)
                got = paired_comparison("A", a, "B", base).p_value
                assert got == pytest.approx(want, rel=1e-10, abs=1e-300), \
                    (df, sign * t)
