"""Sweep-compiler internals: constant stacking, compatibility gates,
single-point sweeps and the stacked-program cache.

The golden suite (``tests/property/test_fused_equivalence``) pins the
*results* of fused sweeps; these tests pin the mechanisms — when a
per-point constant column collapses to a scalar, when two programs
refuse to stack, and when a re-swept point set reuses the cached
stacked program instead of re-stacking.
"""

import numpy as np

from repro.experiments import RunConfig, evaluate_application
from repro.experiments.fused import evaluate_points_fused
from repro.offline import build_plan
from repro.sim.compiled import CompiledPlan, compile_plan
from repro.sim.sweepc import (
    StackedProgram,
    _stack_values,
    clear_stacked_cache,
    programs_compatible,
    stack_programs,
    stacked_cache_stats,
)
from repro.workloads import application_with_load, atr_graph, figure3_graph
from tests.conftest import build_fork_graph, build_nested_or_graph


def _prog(graph, load, m=2):
    app = application_with_load(graph, load, m)
    return compile_plan(build_plan(app, m))


class TestStackValues:
    def test_all_equal_collapses_to_scalar(self):
        out = _stack_values([3.5, 3.5, 3.5])
        assert isinstance(out, float) and out == 3.5

    def test_single_value_collapses_to_scalar(self):
        out = _stack_values([2.25])
        assert isinstance(out, float) and out == 2.25

    def test_mixed_values_stay_a_vector(self):
        out = _stack_values([1.0, 2.0, 1.0])
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [1.0, 2.0, 1.0]  # point order preserved

    def test_nan_never_collapses(self):
        # NaN != NaN, so NaN columns conservatively stay vectors —
        # gathering identical NaNs per point is still bit-identical
        out = _stack_values([np.nan, np.nan])
        assert isinstance(out, np.ndarray)
        assert np.isnan(out).all()

    def test_mixed_nan_and_finite_stays_a_vector(self):
        out = _stack_values([np.nan, 4.0])
        assert isinstance(out, np.ndarray)
        assert np.isnan(out[0]) and out[1] == 4.0


class TestCompatibilityGates:
    def test_same_graph_different_loads_compatible(self):
        a = _prog(atr_graph(), 0.4)
        b = _prog(atr_graph(), 0.8)
        assert programs_compatible(a, b)
        assert programs_compatible(a, a)

    def test_different_graphs_incompatible(self):
        assert not programs_compatible(_prog(atr_graph(), 0.5),
                                       _prog(figure3_graph(), 0.5))
        assert stack_programs([_prog(atr_graph(), 0.5),
                               _prog(figure3_graph(), 0.5)]) is None

    def test_different_processor_counts_incompatible(self):
        assert not programs_compatible(_prog(build_fork_graph(), 0.5, m=2),
                                       _prog(build_fork_graph(), 0.5, m=4))

    def test_empty_point_set_stacks_to_none(self):
        assert stack_programs([]) is None


class TestSinglePointSweeps:
    def test_single_program_stacks(self):
        prog = _prog(build_nested_or_graph(), 0.6)
        stacked = stack_programs([prog])
        assert isinstance(stacked, StackedProgram)
        assert stacked.n_points == 1
        # one point: every column agrees with itself, so everything
        # collapses to scalars — including the deadline
        assert stacked.deadline == prog.deadline

    def test_single_point_fused_equals_per_point(self):
        cfg = RunConfig(schemes=("SPM", "GSS"), n_runs=12, seed=3)
        app = application_with_load(atr_graph(), 0.6, cfg.n_processors)
        fused = evaluate_points_fused([app], [cfg])
        assert fused is not None and len(fused) == 1
        ref = evaluate_application(app, cfg)
        for scheme in cfg.schemes:
            assert np.array_equal(fused[0].absolute[scheme],
                                  ref.absolute[scheme]), scheme
            assert np.array_equal(fused[0].normalized[scheme],
                                  ref.normalized[scheme]), scheme


class TestDecodeOnce:
    """A sweep with a point that has no dynamic plan evaluates the
    dynamic schemes on a sub-view; its path grouping is derived from
    the static one instead of decoding the OR choices a second time."""

    LOADS = (0.5, 1.0, 0.7)  # load 1.0 leaves no room for the reserve

    def _sweep(self):
        import dataclasses
        cfg = RunConfig(schemes=("NPM", "SPM", "GSS"), n_runs=40, seed=5)
        apps = [application_with_load(atr_graph(), ld, cfg.n_processors)
                for ld in self.LOADS]
        cfgs = [dataclasses.replace(cfg, seed=cfg.seed + i)
                for i in range(len(apps))]
        return apps, cfgs

    def test_derived_grouping_equals_a_fresh_decode(self):
        from repro.experiments.fused import _build_fused, _sub_grouping
        from repro.sim import sample_realization_batch
        apps, cfgs = self._sweep()
        build = _build_fused(apps, cfgs)
        assert build.dyn_points == [0, 2]
        batches = [sample_realization_batch(
            ps.structure, np.random.default_rng(cfg.seed), cfg.n_runs)
            for (_pd, ps), cfg in zip(build.plans, cfgs)]
        offsets = np.concatenate(([0], np.cumsum([len(b)
                                                  for b in batches])))
        total = int(offsets[-1])
        choices = {name: np.concatenate([b.choices[name] for b in batches])
                   for name in batches[0].choices}
        groups, keys = build.stacked_static.executed_paths(choices, total)
        sel, sub_groups = _sub_grouping(
            groups, [(offsets[i], offsets[i + 1])
                     for i in build.dyn_points], total)
        sub_keys = [keys[i] for i in sel]
        assert sel.tolist() == (list(range(offsets[0], offsets[1]))
                                + list(range(offsets[2], offsets[3])))
        ref_groups, ref_keys = build.stacked_dyn.executed_paths(
            {name: v[sel] for name, v in choices.items()}, sel.size)
        assert sub_keys == ref_keys
        assert [p for p, _ in sub_groups] == [p for p, _ in ref_groups]
        for (_p, got), (_q, want) in zip(sub_groups, ref_groups):
            assert got.tolist() == want.tolist()

    def test_sweep_decodes_its_paths_once(self, monkeypatch):
        calls = []
        real = StackedProgram.executed_paths

        def counting(self, choices, n):
            calls.append(n)
            return real(self, choices, n)

        monkeypatch.setattr(StackedProgram, "executed_paths", counting)
        apps, cfgs = self._sweep()
        fused = evaluate_points_fused(apps, cfgs)
        assert fused is not None
        assert calls == [sum(c.n_runs for c in cfgs)]
        for app, cfg, res in zip(apps, cfgs, fused):
            ref = evaluate_application(app, cfg)
            for scheme in cfg.schemes:
                assert np.array_equal(res.absolute[scheme],
                                      ref.absolute[scheme]), scheme


class TestStackedProgramCache:
    def test_identical_point_sets_reuse_the_stacked_program(self):
        clear_stacked_cache()
        progs = [_prog(atr_graph(), ld) for ld in (0.3, 0.6, 0.9)]
        first = stack_programs(progs)
        second = stack_programs(progs)
        assert second is first
        stats = stacked_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_unfingerprinted_programs_are_not_cached(self):
        # programs built outside compile_plan carry no fingerprint, so
        # there is no safe cache key — each stack builds fresh
        clear_stacked_cache()
        app = application_with_load(build_nested_or_graph(), 0.5, 2)
        plan = build_plan(app, 2)
        progs = [CompiledPlan(plan), CompiledPlan(plan)]
        assert all(p.fingerprint is None for p in progs)
        first = stack_programs(progs)
        second = stack_programs(progs)
        assert first is not None and second is not None
        assert second is not first
        stats = stacked_cache_stats()
        assert stats["misses"] == 2 and stats["size"] == 0

    def test_clear_resets_counters(self):
        progs = [_prog(atr_graph(), ld) for ld in (0.2, 0.8)]
        stack_programs(progs)
        clear_stacked_cache()
        assert stacked_cache_stats() == {"hits": 0, "misses": 0, "size": 0}
