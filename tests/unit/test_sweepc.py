"""Sweep-compiler internals: constant stacking, compatibility gates,
single-point sweeps, shared draws and decodes, and the stacked-program
cache.

The golden suite (``tests/property/test_fused_equivalence``) pins the
*results* of fused sweeps; these tests pin the mechanisms — when a
per-point constant column collapses to a scalar, when two programs
refuse to stack, and when a re-swept point set reuses the cached
stacked program instead of re-stacking.
"""

import dataclasses

import numpy as np

import repro.experiments.fused as fused_mod
from repro.core import ALL_SCHEMES
from repro.experiments import RunConfig, evaluate_application
from repro import obs
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


def _draws_decodes(rec):
    return (rec.counters["experiments.fused.draws"],
            rec.counters["experiments.fused.decodes"])


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


def _assert_matches_per_point(apps, cfgs, fused):
    assert fused is not None
    for app, cfg, res in zip(apps, cfgs, fused):
        ref = evaluate_application(app, cfg)
        assert np.array_equal(res.npm_energy, ref.npm_energy)
        assert res.path_keys == ref.path_keys
        for scheme in cfg.schemes:
            assert np.array_equal(res.absolute[scheme],
                                  ref.absolute[scheme]), scheme
            assert np.array_equal(res.speed_changes[scheme],
                                  ref.speed_changes[scheme]), scheme


class _CountingSampler:
    """Counts the fused module's realization draws (batch sizes)."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = fused_mod.sample_realization_batch

        def counting(structure, rng, n, sigma_fraction=1.0 / 3.0):
            self.calls.append(n)
            return real(structure, rng, n, sigma_fraction=sigma_fraction)

        monkeypatch.setattr(fused_mod, "sample_realization_batch", counting)


class TestDecodeOnce:
    """A fused pass samples each distinct draw once and decodes each
    distinct choice set once.  A sweep with a point that has no dynamic
    plan evaluates the dynamic schemes on a sub-view; its path grouping
    is derived from the static one instead of decoding the OR choices a
    second time, and its runs read the shared matrix through a
    composed row map."""

    LOADS = (0.5, 1.0, 0.7)  # load 1.0 leaves no room for the reserve

    def _sweep(self, seed_step=0, schemes=("NPM", "SPM", "GSS")):
        """A three-point load sweep; like a real sweep its points share
        the config seed, unless ``seed_step`` gives each its own."""
        cfg = RunConfig(schemes=schemes, n_runs=40, seed=5)
        apps = [application_with_load(atr_graph(), ld, cfg.n_processors)
                for ld in self.LOADS]
        cfgs = [dataclasses.replace(cfg, seed=cfg.seed + i * seed_step)
                for i in range(len(apps))]
        return apps, cfgs

    def test_derived_grouping_equals_a_fresh_decode(self):
        from repro.experiments.fused import _build_fused, _sub_grouping
        from repro.sim import sample_realization_batch
        apps, cfgs = self._sweep(seed_step=1)
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

        def counting(self, choices, n, **kwargs):
            calls.append(n)
            return real(self, choices, n, **kwargs)

        monkeypatch.setattr(StackedProgram, "executed_paths", counting)
        apps, cfgs = self._sweep()
        fused = evaluate_points_fused(apps, cfgs)
        assert calls == [cfgs[0].n_runs]
        _assert_matches_per_point(apps, cfgs, fused)
        # a seed per point: one decode per distinct choice set
        calls.clear()
        apps, cfgs = self._sweep(seed_step=1)
        fused = evaluate_points_fused(apps, cfgs)
        assert calls == [c.n_runs for c in cfgs]
        _assert_matches_per_point(apps, cfgs, fused)

    def test_sweep_samples_once(self, monkeypatch):
        sampler = _CountingSampler(monkeypatch)
        apps, cfgs = self._sweep()
        with obs.recording() as rec:
            _assert_matches_per_point(apps, cfgs,
                                      evaluate_points_fused(apps, cfgs))
        assert sampler.calls == [cfgs[0].n_runs]
        assert _draws_decodes(rec) == (1, 1)
        # an alpha sweep changes the ACETs, hence the draw, per point;
        # the OR choices come after the normals in the stream, so they
        # stay shared
        sampler.calls.clear()
        cfg = RunConfig(schemes=("SPM", "GSS"), n_runs=25, seed=5)
        alphas = (0.3, 0.6, 0.9)
        apps = [application_with_load(figure3_graph(a), 0.5,
                                      cfg.n_processors) for a in alphas]
        cfgs = [cfg] * len(apps)
        with obs.recording() as rec:
            _assert_matches_per_point(apps, cfgs,
                                      evaluate_points_fused(apps, cfgs))
        assert sampler.calls == [cfg.n_runs] * len(alphas)
        assert _draws_decodes(rec) == (len(alphas), 1)

    def test_partial_dynamic_sweep_matches_per_point(self):
        # only points 0 and 2 have a dynamic plan: the dynamic schemes
        # run on a sub-view whose row map picks their runs out of the
        # one shared matrix, and ORACLE reads it on the scalar fallback
        apps, cfgs = self._sweep(schemes=ALL_SCHEMES)
        build = fused_mod._build_fused(apps, cfgs)
        assert build.dyn_points == [0, 2]
        _assert_matches_per_point(apps, cfgs,
                                  evaluate_points_fused(apps, cfgs))

    def test_scalar_fallback_reads_through_the_row_map(self):
        # every point dynamic and one shared draw: every scheme, the
        # per-realization ORACLE included, reads repeated matrix rows
        cfg = RunConfig(schemes=("NPM", "GSS", "ORACLE"), n_runs=30,
                        seed=11)
        apps = [application_with_load(atr_graph(), ld, cfg.n_processors)
                for ld in (0.4, 0.6, 0.8)]
        cfgs = [cfg] * len(apps)
        with obs.recording() as rec:
            _assert_matches_per_point(apps, cfgs,
                                      evaluate_points_fused(apps, cfgs))
        assert rec.counters["experiments.fused.draws"] == 1


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


class TestCompatibilityWalk:
    """A warm sweep checks its static programs against the first once,
    in ``_build_fused``; ``stack_programs`` finds both stacks in its
    cache before walking them again."""

    def test_warm_figure5_walks_each_program_once(self, monkeypatch):
        from repro.experiments import figure5
        from repro.sim import sweepc
        calls = []
        real = sweepc.programs_compatible

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(sweepc, "programs_compatible", counting)
        monkeypatch.setattr(fused_mod, "programs_compatible", counting)
        figure5(n_runs=5, seed=3)
        calls.clear()
        figure5(n_runs=5, seed=3)
        # two power models, 10 load points each: 9 checks per sweep
        assert len(calls) <= 18

    def test_a_hit_skips_the_walk(self, monkeypatch):
        from repro.sim import sweepc
        progs = [_prog(atr_graph(), ld) for ld in (0.3, 0.6, 0.9)]
        first = stack_programs(progs)
        calls = []
        monkeypatch.setattr(sweepc, "programs_compatible",
                            lambda a, b: calls.append(1) or True)
        assert stack_programs(progs) is first
        assert calls == []
