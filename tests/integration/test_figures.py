"""Integration tests for the figure/table regeneration harness.

Small run counts keep these fast; the assertions target the *shapes* the
paper reports, not absolute values (see EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import (
    DEFAULT_ALPHAS,
    EvaluationCache,
    ExecutionContext,
    RunConfig,
    evaluate_application,
    fig_online,
    figure4,
    figure5,
    figure6,
    render_series,
    table1,
    table2,
)


@pytest.fixture(scope="module")
def fig4():
    return figure4(n_runs=60, seed=11)


@pytest.fixture(scope="module")
def fig6():
    return figure6(n_runs=60, seed=11)


class TestFigure4:
    def test_both_power_models_present(self, fig4):
        assert set(fig4) == {"transmeta", "xscale"}

    def test_five_schemes_per_point(self, fig4):
        for series in fig4.values():
            assert set(series.schemes()) == {"SPM", "GSS", "SS1", "SS2",
                                             "AS"}

    def test_energy_normalized_below_one(self, fig4):
        for series in fig4.values():
            for p in series.points:
                assert 0 < p.mean <= 1.0 + 1e-9

    def test_dynamic_beats_spm_at_high_load(self, fig4):
        # at load 0.8 the dynamic schemes exploit run-time slack SPM
        # cannot see
        for series in fig4.values():
            assert series.get(0.8, "GSS").mean < \
                series.get(0.8, "SPM").mean

    def test_render(self, fig4):
        text = render_series(fig4["transmeta"])
        assert "figure4-transmeta" in text


class TestFigure5:
    def test_six_processors(self):
        out = figure5(n_runs=30, seed=3)
        for series in out.values():
            assert series.meta["n_processors"] == 6
            for p in series.points:
                assert 0 < p.mean <= 1.0 + 1e-9


class TestFigure6:
    def test_alpha_axis(self, fig6):
        for series in fig6.values():
            assert series.x_label == "alpha"
            assert series.xs() == list(DEFAULT_ALPHAS)

    def test_spm_insensitive_to_alpha(self, fig6):
        # SPM ignores run-time behaviour: its *absolute* energy is fixed
        # by the load, so across alpha it moves far less than GSS (the
        # small residual drift is the NPM denominator changing)
        for series in fig6.values():
            spm = [series.get(a, "SPM").mean for a in (0.2, 0.5, 0.9)]
            gss = [series.get(a, "GSS").mean for a in (0.2, 0.5, 0.9)]
            spm_range = max(spm) - min(spm)
            gss_range = max(gss) - min(gss)
            assert spm_range < 0.05
            assert spm_range < gss_range

    def test_xscale_spm_equals_npm_at_load_09(self, fig6):
        # the paper: "with load = 0.9, SPM runs at S_max ... and consumes
        # the same energy as NPM" on the Intel XScale model
        series = fig6["xscale"]
        for a in (0.2, 0.5, 0.9):
            assert series.get(a, "SPM").mean == pytest.approx(1.0)

    def test_dynamic_schemes_rise_with_alpha(self, fig6):
        # less run-time slack (higher alpha) -> less dynamic saving
        for series in fig6.values():
            assert series.get(0.2, "GSS").mean < \
                series.get(0.9, "GSS").mean


class TestOverrides:
    """Figures take RunConfig fields as overrides, and reject the rest."""

    def test_override_reaches_every_sub_figure(self):
        out = figure5(n_runs=10, seed=3, schemes=("GSS",))
        for series in out.values():
            assert series.schemes() == ["GSS"]

    @pytest.mark.parametrize("figure", [figure4, figure5, figure6,
                                        fig_online])
    @pytest.mark.parametrize("override", [{"bogus": 1},
                                          {"power_model": "xscale"},
                                          {"n_processors": 4}])
    def test_bad_override_fails_before_any_work(self, figure, override):
        with pytest.raises(ConfigError, match=next(iter(override))):
            figure(n_runs=10, **override)

    def test_shards_is_not_a_run_config_field(self):
        # RunConfig.with_ names the unknown field before any sweep runs
        with pytest.raises(ConfigError, match="shards"):
            figure5(n_runs=10, shards=2)

    @pytest.mark.parametrize("override", [{"shards": 3}, {"shards": 0}])
    def test_online_rejects_shard_fields(self, override):
        # the stream figure rejects the field like every other figure
        with pytest.raises(ConfigError, match=next(iter(override))):
            fig_online(n_runs=10, **override)


class TestTables:
    def test_table1_contents(self):
        text = table1()
        assert "Transmeta" in text
        assert "700" in text and "200" in text
        assert "1.65" in text and "1.10" in text

    def test_table2_contents(self):
        text = table2()
        assert "XScale" in text
        assert "1000" in text and "150" in text
        assert "1.80" in text and "0.75" in text


def _figure_fingerprint(out):
    return [(m, [(p.x, p.scheme, p.n_runs, p.mean.hex(), p.std.hex(),
                  p.ci95.hex()) for p in out[m].points],
             repr(out[m].meta["speed_changes"])) for m in sorted(out)]


class TestRepeatedCachedFigure:
    """A second cached figure costs only its record reads: the figure's
    graph (and with it the section decomposition) is built once per
    process, and every point is a hit."""

    def test_second_call_builds_no_graph(self, tmp_path, monkeypatch):
        import repro.experiments.figures as figures
        from repro.graph.sections import SectionStructure
        first_cache = EvaluationCache(tmp_path)
        with ExecutionContext(cache=first_cache) as ctx:
            first = figure5(n_runs=40, context=ctx)
        built, decomposed = [], []
        real_atr, real_decompose = figures.atr_graph, \
            SectionStructure._decompose
        monkeypatch.setattr(figures, "atr_graph",
                            lambda *a: built.append(a) or real_atr(*a))
        monkeypatch.setattr(
            SectionStructure, "_decompose",
            lambda self: decomposed.append(self) or real_decompose(self))
        cache = EvaluationCache(tmp_path)
        with ExecutionContext(cache=cache) as ctx:
            second = figure5(n_runs=40, context=ctx)
        assert built == [] and decomposed == []
        assert cache.stats() == {"hits": 20, "misses": 0, "errors": 0,
                                 "quarantined": 0}
        assert _figure_fingerprint(second) == _figure_fingerprint(first)


class TestPathIds:
    """Per-run paths are int32 ids into a first-seen table; the keys,
    frequencies and per-path energies read the same on a cache miss, a
    cache hit, a fused sweep point and the dict engine."""

    def test_every_route_reads_the_same_paths(self, tmp_path):
        from repro.experiments.fused import evaluate_points_fused
        from repro.workloads import application_with_load, atr_graph
        cfg = RunConfig(n_processors=6, n_runs=40, seed=5)
        graph = atr_graph()
        apps = [application_with_load(graph, ld, 6) for ld in (0.4, 0.7)]
        with ExecutionContext(cache=EvaluationCache(tmp_path)) as ctx:
            miss = evaluate_application(apps[1], cfg, context=ctx)
            hit = evaluate_application(apps[1], cfg, context=ctx)
            assert ctx.cache.stats()["hits"] == 1
        routes = {"miss": miss, "hit": hit,
                  "fused": evaluate_points_fused(apps, [cfg] * 2)[1],
                  "dict": evaluate_application(
                      apps[1], cfg.with_(engine="dict"))}
        want = routes.pop("dict")
        assert want.path_ids.dtype == np.int32
        assert len(want.path_table) > 1  # several paths are exercised
        for name, res in routes.items():
            assert res.path_ids.dtype == np.int32, name
            assert res.path_keys == want.path_keys, name
            freq = res.path_frequencies()
            assert list(freq.items()) == \
                list(want.path_frequencies().items()), name
            for scheme in cfg.schemes:
                got = res.conditional_normalized(scheme)
                ref = want.conditional_normalized(scheme)
                assert list(got) == list(ref), name
                assert all(got[k].tobytes() == ref[k].tobytes()
                           for k in ref), (name, scheme)
