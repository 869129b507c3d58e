"""Integration tests for the Monte-Carlo runner and sweeps."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (
    EvaluationResult,
    RunConfig,
    build_plans,
    evaluate_application,
    sweep_alpha,
    sweep_load,
    sweep_overhead,
    sweep_processors,
)
from repro.experiments.runner import index_paths
from repro.power import OverheadModel
from repro.workloads import application_with_load, atr_graph, figure3_graph


@pytest.fixture(scope="module")
def small_config():
    return RunConfig(n_runs=40, seed=7)


class TestEvaluateApplication:
    def test_normalized_includes_every_scheme(self, small_config):
        app = application_with_load(atr_graph(), 0.5, 2)
        res = evaluate_application(app, small_config)
        assert set(res.normalized) == set(small_config.schemes)
        for arr in res.normalized.values():
            assert arr.shape == (40,)
            assert np.all(arr > 0) and np.all(arr <= 1 + 1e-9)

    def test_deterministic_for_seed(self, small_config):
        app = application_with_load(atr_graph(), 0.5, 2)
        a = evaluate_application(app, small_config)
        b = evaluate_application(app, small_config)
        for scheme in a.normalized:
            assert np.array_equal(a.normalized[scheme],
                                  b.normalized[scheme])

    def test_different_seed_differs(self, small_config):
        app = application_with_load(atr_graph(), 0.5, 2)
        a = evaluate_application(app, small_config)
        b = evaluate_application(app, small_config.with_(seed=8))
        assert not np.array_equal(a.normalized["GSS"],
                                  b.normalized["GSS"])

    def test_npm_in_schemes_is_all_ones(self):
        app = application_with_load(atr_graph(), 0.5, 2)
        cfg = RunConfig(schemes=("NPM", "GSS"), n_runs=10)
        res = evaluate_application(app, cfg)
        assert np.allclose(res.normalized["NPM"], 1.0)

    def test_load_one_disables_dvs(self):
        app = application_with_load(atr_graph(), 1.0, 2)
        cfg = RunConfig(n_runs=10)
        res = evaluate_application(app, cfg)
        # dynamic schemes degrade to NPM; SPM also has no slack
        for scheme in ("GSS", "SS1", "SS2", "AS"):
            assert np.allclose(res.normalized[scheme], 1.0)
            assert np.allclose(res.speed_changes[scheme], 0.0)

    def test_build_plans_reserve(self, small_config):
        app = application_with_load(atr_graph(), 0.5, 2)
        dyn, static = build_plans(app, small_config)
        assert static.reserve == 0.0
        assert dyn is not None and dyn.reserve > 0
        assert dyn.t_worst > static.t_worst

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(n_runs=0)
        with pytest.raises(ConfigError):
            RunConfig(n_processors=0)
        with pytest.raises(ConfigError):
            RunConfig(schemes=())

    def test_continuous_model_rejects_speed_computation_overhead(self):
        # the continuous model's s_min is 0: the offline reserve would
        # compute a speed at speed 0, which used to surface only later,
        # as a PowerModelError from inside a sweep
        with pytest.raises(ConfigError, match="power_model.*overhead"):
            RunConfig(power_model="continuous")
        with pytest.raises(ConfigError, match="power_model.*overhead"):
            RunConfig(n_runs=5).with_(power_model="Continuous")
        cfg = RunConfig(power_model="continuous", n_runs=5,
                        overhead=OverheadModel(comp_cycles=0.0))
        series = sweep_load(figure3_graph(), cfg, loads=(0.5,))
        assert all(0 < p.mean <= 1 for p in series.points)

    def test_power_model_name_is_normalized(self):
        assert RunConfig(power_model="Transmeta").power_model == "transmeta"
        assert RunConfig().with_(power_model="XScale").power_model == \
            "xscale"

    def test_unknown_power_model_rejected_by_name(self):
        # used to construct, then fail inside a sweep as a
        # PowerModelError from make_power_model
        with pytest.raises(ConfigError, match="power_model.*bogus"):
            RunConfig(power_model="bogus", n_runs=5)
        with pytest.raises(ConfigError, match="power_model"):
            RunConfig().with_(power_model="pentium")

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig().with_(seed=3, bogus=1)


class TestSweeps:
    def test_sweep_load_series(self, small_config):
        series = sweep_load(atr_graph(), small_config, loads=(0.3, 0.6),
                            name="t")
        assert series.xs() == [0.3, 0.6]
        assert set(series.schemes()) == set(small_config.schemes)
        for p in series.points:
            assert 0 < p.mean <= 1 + 1e-9
        assert [x for x, _ in series.meta["speed_changes"]] == [0.3, 0.6]

    def test_sweep_alpha_series(self, small_config):
        series = sweep_alpha(figure3_graph, small_config, load=0.7,
                             alphas=(0.3, 0.9))
        assert series.xs() == [0.3, 0.9]
        # more run-time slack (lower alpha) -> dynamic schemes save more
        gss_lo = series.get(0.3, "GSS").mean
        gss_hi = series.get(0.9, "GSS").mean
        assert gss_lo < gss_hi

    def test_sweep_processors(self, small_config):
        series = sweep_processors(atr_graph, small_config, load=0.5,
                                  processor_counts=(2, 4))
        assert series.xs() == [2.0, 4.0]

    def test_sweep_overhead(self, small_config):
        series = sweep_overhead(figure3_graph(), small_config, load=0.6,
                                adjust_times=(0.0, 0.05))
        assert series.xs() == [0.0, 0.05]
        # heavier switching cost cannot make GSS cheaper
        free = series.get(0.0, "GSS").mean
        costly = series.get(0.05, "GSS").mean
        assert costly >= free - 1e-6


class TestOverheadSensitivity:
    def test_enormous_overhead_hurts_dynamic_schemes(self):
        app = application_with_load(figure3_graph(), 0.6, 2)
        cheap = RunConfig(n_runs=30, overhead=OverheadModel(
            comp_cycles=0, adjust_time=0.0))
        costly = RunConfig(n_runs=30, overhead=OverheadModel(
            comp_cycles=0, adjust_time=1.0))  # 1 ms per switch!
        res_cheap = evaluate_application(app, cheap)
        res_costly = evaluate_application(app, costly)
        assert res_costly.normalized["GSS"].mean() > \
            res_cheap.normalized["GSS"].mean()


class TestPathConditional:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.workloads import figure3_graph
        app = application_with_load(figure3_graph(), 0.6, 2)
        return evaluate_application(app, RunConfig(n_runs=400, seed=6))

    def test_path_keys_recorded(self, result):
        assert len(result.path_keys) == 400
        assert all(">" in k for k in result.path_keys)

    def test_frequencies_sum_to_one(self, result):
        freq = result.path_frequencies()
        assert sum(freq.values()) == pytest.approx(1.0)

    def test_frequencies_match_exact_probabilities(self, result):
        from repro.experiments import exact_evaluation
        from repro.workloads import figure3_graph
        app = application_with_load(figure3_graph(), 0.6, 2)
        exact = exact_evaluation(app, result.config)
        freq = result.path_frequencies()
        for key, prob in exact.path_probability.items():
            assert freq.get(key, 0.0) == pytest.approx(prob, abs=0.08), key

    def test_conditional_groups_partition_runs(self, result):
        cond = result.conditional_normalized("GSS")
        assert sum(len(v) for v in cond.values()) == 400

    def test_conditional_means_match_exact(self, result):
        """MC per-path means approximate the exact per-path values."""
        from repro.experiments import exact_evaluation
        from repro.workloads import figure3_graph
        app = application_with_load(figure3_graph(), 0.6, 2)
        cfg = result.config.with_(
            schemes=tuple(result.config.schemes) + ("NPM",))
        exact = exact_evaluation(app, cfg)
        cond = result.conditional_normalized("GSS")
        for key, arr in cond.items():
            if len(arr) < 30:
                continue  # too noisy to compare
            expected = (exact.per_path["GSS"][key]
                        / exact.per_path["NPM"][key])
            assert arr.mean() == pytest.approx(expected, abs=0.05), key

    def test_unknown_scheme_rejected(self, result):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="not in result"):
            result.conditional_normalized("NOPE")


def _with_paths(n_runs, keys):
    ids, table = index_paths(keys)
    return EvaluationResult(app_name="x", config=RunConfig(n_runs=n_runs),
                            path_ids=ids, path_table=table)


class TestPathFrequencies:
    def test_exact_fractions(self):
        res = _with_paths(7, ["a", "b", "a", "c", "a", "b", "a"])
        freq = res.path_frequencies()
        assert freq == {"a": 4 / 7, "b": 2 / 7, "c": 1 / 7}

    def test_sum_is_exact_for_large_n(self):
        # the old 1/n accumulation drifted; counting must not
        keys = (["p"] * 333) + (["q"] * 334) + (["r"] * 333)
        res = _with_paths(1000, keys)
        freq = res.path_frequencies()
        assert freq["p"] == 333 / 1000
        assert freq["q"] == 334 / 1000
        assert sum(freq.values()) == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        res = EvaluationResult(app_name="x", config=RunConfig(n_runs=1))
        with pytest.raises(ConfigError):
            res.path_frequencies()
