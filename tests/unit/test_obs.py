"""The run-statistics recorder (:mod:`repro.obs`) and what sweeps record.

The recorder's own contract: spans keep self time, recordings nest (an
inner recording's spans and counts reach the outer ones, each watched
cache delta is taken once per recording), a detached recording hides
the open ones, and merged worker totals reach every open recording.
The sweep tests pin that a series' ``meta["obs"]`` describes that sweep
and nothing else that ran in the process.
"""

import time

import pytest

from repro import obs
from repro.experiments import RunConfig, figure5
from repro.experiments.fused import evaluate_points_fused
from repro.experiments.sweeps import sweep_load
from repro.workloads import application_with_load, atr_graph

LOADS = (0.3, 0.5)


class _Stats:
    """A watched cache whose counters the test moves by hand."""

    def __init__(self):
        self.hits = 0

    def __call__(self):
        return {"hits": self.hits, "size": 99}


class TestSpans:
    def test_self_time_excludes_inner_spans(self):
        with obs.recording() as rec:
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.02)
        (outer_calls, outer_s), (inner_calls, inner_s) = \
            rec.spans["outer"], rec.spans["inner"]
        assert (outer_calls, inner_calls) == (1, 1)
        assert inner_s >= 0.02
        assert outer_s < 0.02
        assert rec.wall_s >= outer_s + inner_s

    def test_decorator_keeps_the_function(self):
        @obs.span("layer")
        def layer(x, y=2):
            """Doc."""
            return x * y

        assert layer.__name__ == "layer" and layer.__doc__ == "Doc."
        with obs.recording() as rec:
            assert layer(3) == 6
            assert layer(3, y=3) == 9
        assert rec.spans["layer"][0] == 2

    def test_span_records_through_an_exception(self):
        with obs.recording() as rec:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("boom")
        assert rec.spans["failing"][0] == 1
        assert obs._frames == []

    def test_nothing_is_kept_without_a_recording(self):
        with obs.span("orphan"):
            obs.count("orphan")
        with obs.recording() as rec:
            pass
        assert "orphan" not in rec.spans
        assert "orphan" not in rec.counters


class TestNesting:
    def test_inner_counts_and_spans_reach_the_outer(self):
        with obs.recording() as outer:
            obs.count("a")
            with obs.recording() as inner:
                obs.count("a", 2)
                with obs.span("s"):
                    pass
        assert inner.counters["a"] == 2
        assert outer.counters["a"] == 3
        assert inner.spans["s"][0] == outer.spans["s"][0] == 1

    def test_watched_deltas_are_taken_once_per_recording(self):
        stats = _Stats()
        obs.watch("test.cache", stats)
        try:
            with obs.recording() as outer:
                stats.hits += 1
                with obs.recording() as inner:
                    stats.hits += 2
        finally:
            del obs._WATCHED["test.cache"]
        assert inner.counters["test.cache.hits"] == 2
        assert outer.counters["test.cache.hits"] == 3
        # a gauge is not an event
        assert "test.cache.size" not in outer.counters

    def test_probes_are_the_recordings_own(self):
        stats = _Stats()
        with obs.recording() as outer:
            with obs.recording({"test.own": stats}) as inner:
                stats.hits += 4
        assert inner.counters["test.own.hits"] == 4
        assert "test.own.hits" not in outer.counters

    def test_detached_recording_hides_the_open_ones(self):
        with obs.recording() as outer:
            with obs.span("around"):
                with obs.recording(detached=True) as task:
                    obs.count("worker")
                    with obs.span("work"):
                        pass
                obs.merge(task.totals())
        assert task.counters["worker"] == 1
        # the merge, not the detached recording, reached the outer one
        assert outer.counters["worker"] == 1
        assert outer.spans["work"][0] == 1
        assert outer.spans["around"][0] == 1

    def test_merge_adds_to_every_open_recording(self):
        totals = {"wall_s": 5.0, "counters": {"c": 2},
                  "spans": {"s": {"calls": 3, "s": 0.5}}}
        with obs.recording() as outer:
            with obs.recording() as inner:
                obs.merge(totals)
                obs.merge(totals)
        for rec in (outer, inner):
            assert rec.counters["c"] == 4
            assert rec.spans["s"] == [6, 1.0]
        assert outer.wall_s < 5.0  # a worker's wall time is its own


class TestTotalsAndSummary:
    def test_totals_are_json_ready(self):
        import json
        with obs.recording() as rec:
            obs.count("b.n", 2)
            obs.count("a.n")
            with obs.span("x"):
                pass
        block = rec.totals()
        assert list(block["counters"]) == sorted(block["counters"])
        assert (block["counters"]["a.n"], block["counters"]["b.n"]) == (1, 2)
        assert block["spans"]["x"]["calls"] == 1
        assert json.loads(json.dumps(block)) == block

    def test_summary_line(self):
        block = {"wall_s": 2.0,
                 "counters": {"a.hits": 3, "a.misses": 0},
                 "spans": {"slow": {"calls": 1, "s": 1.0},
                           "fast": {"calls": 4, "s": 0.5},
                           "tiny": {"calls": 1, "s": 0.1},
                           "tinier": {"calls": 9, "s": 0.05}}}
        line = obs.summary(block)
        assert line == ("2.000 s, 82% in spans: slow 1.000 s, "
                        "fast 0.500 s, tiny 0.100 s; a.hits=3")
        assert "\n" not in line

    def test_summary_of_an_empty_recording(self):
        assert obs.summary({"wall_s": 0.0, "counters": {},
                            "spans": {}}) == "0.000 s"


class TestSweepRecordsItself:
    @pytest.fixture()
    def cfg(self):
        return RunConfig(schemes=("SPM", "GSS"), n_runs=50, seed=3)

    def test_repeated_sweep_records_no_compile_misses(self, cfg):
        # the process-wide counters made the second sweep report the
        # first one's misses
        sweep_load(atr_graph(), cfg, LOADS)
        second = sweep_load(atr_graph(), cfg, LOADS)
        counters = second.meta["obs"]["counters"]
        assert counters["sim.compiled.program_cache.misses"] == 0
        assert counters["sim.compiled.program_cache.hits"] > 0

    def test_cached_sweep_reports_no_fused_pass(self, cfg, tmp_path):
        from repro.experiments import EvaluationCache, ExecutionContext
        cache = EvaluationCache(tmp_path)
        with ExecutionContext(cache=cache) as ctx:
            sweep_load(atr_graph(), cfg, LOADS, context=ctx)
            # an unrelated fused pass between the two sweeps
            apps = [application_with_load(atr_graph(), ld, 2)
                    for ld in (0.4, 0.6)]
            assert evaluate_points_fused(apps, [cfg] * 2) is not None
            hit = sweep_load(atr_graph(), cfg, LOADS, context=ctx)
        counters = hit.meta["obs"]["counters"]
        assert counters["experiments.evalcache.hits"] == len(LOADS)
        assert not [k for k in counters if k.startswith("experiments.fused")]
        assert "experiments.fused" not in hit.meta["obs"]["spans"]

    def test_meta_has_one_observability_block(self, cfg):
        series = sweep_load(atr_graph(), cfg, LOADS)
        assert not {"cache", "kernel", "resilience", "fused"} & \
            set(series.meta)
        counters = series.meta["obs"]["counters"]
        assert counters["experiments.fused.points"] == len(LOADS)
        assert counters["experiments.fused.draws"] == 1

    def test_figure_spans_cover_the_sweep(self):
        figure5(n_runs=20)  # warm the caches
        for series in figure5(n_runs=200).values():
            block = series.meta["obs"]
            covered = sum(sp["s"] for sp in block["spans"].values())
            assert covered <= block["wall_s"]
            # the layers account for nearly all of a fused sweep
            assert covered >= 0.5 * block["wall_s"]
            assert block["spans"]["sim.kernels.dynamic"]["calls"] == 1

    def test_summaries_take_one_span_per_sweep(self, cfg):
        series = sweep_load(atr_graph(), cfg, LOADS)
        assert series.meta["obs"]["spans"]["experiments.summaries"][
            "calls"] == 1
        for series in figure5(n_runs=20).values():
            assert series.meta["obs"]["spans"]["experiments.summaries"][
                "calls"] == 1

    def test_cached_figure_spans_cover_the_sweep(self, tmp_path):
        # cache reads, keys and summaries account for most of a fully
        # cached sweep; only the glue between them is outside a span
        from repro.experiments import EvaluationCache, ExecutionContext
        for _ in range(2):
            cache = EvaluationCache(tmp_path)
            with ExecutionContext(cache=cache) as ctx:
                out = figure5(n_runs=200, context=ctx)
        assert cache.stats()["misses"] == 0
        for series in out.values():
            block = series.meta["obs"]
            covered = sum(sp["s"] for sp in block["spans"].values())
            assert block["spans"]["experiments.evalcache.get"]["calls"] \
                == 10
            assert 0.5 * block["wall_s"] <= covered <= block["wall_s"]
