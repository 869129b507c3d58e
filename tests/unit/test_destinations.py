"""Batch kernels writing into supplied destinations.

A fused sweep allocates each scheme's per-run arrays once, over the
whole run axis, and the batch kernels write their rows straight into
them (``out``) through an output-row map (``out_row``: view run →
sweep run).  These tests pin that path against the kernels' fresh
outputs, bit for bit: stacked calls reading a shared matrix through
``row_of``, at a 7-row block, a 16,384-row one (the default before
32,768) and the live default, over every point
and over a partial dynamic view (a point without a dynamic plan); the
errors an invalid batch raises; and the per-point results a sweep
hands out as views of its arrays, which must pickle and cache exactly
like copies.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import get_policy
from repro.errors import DeadlineMissError, SimulationError
from repro.experiments import RunConfig
from repro.experiments.evalcache import EvaluationCache, evaluation_key
from repro.experiments.fused import (_build_fused, _evaluate, _plan_scheme,
                                     _sub_grouping, evaluate_points_fused)
from repro.offline import build_plan
from repro.power import (NO_OVERHEAD, PAPER_OVERHEAD, OverheadModel,
                         transmeta_model)
from repro.sim import sample_realization_batch
from repro.sim.compiled import (compile_plan, run_dynamic_batch,
                                run_fixed_batch)
from repro.sim.kernels import build_tape, interp
from repro.sim.sweepc import _stack_values
from repro.workloads import application_with_load, atr_graph, figure3_graph

#: load 1.0 leaves no room for the reserve: that point has no dynamic
#: plan, so the dynamic schemes run on a partial view
PARTIAL = (0.5, 1.0, 0.7)
FULL = (0.5, 0.8, 0.7)
DYNAMIC = ("GSS", "SS1", "AS")
N_RUNS = 40


class _Sweep:
    """A load sweep over the ATR graph as the fused pass lays it out:
    one sampled batch shared by every point through ``row_of``, the OR
    choices decoded over the fused run axis, and the dynamic schemes'
    view (every point, or the points with a dynamic plan)."""

    def __init__(self, loads, seed=5):
        cfg = RunConfig(schemes=("NPM", "SPM") + DYNAMIC, n_runs=N_RUNS,
                        seed=seed)
        apps = [application_with_load(atr_graph(), ld, cfg.n_processors)
                for ld in loads]
        self.build = build = _build_fused(apps, [cfg] * len(apps))
        self.power = build.power
        n_pts = len(apps)
        self.batch = sample_realization_batch(
            build.plans[0][1].structure, np.random.default_rng(seed), N_RUNS)
        self.batches = [self.batch] * n_pts
        self.matrix = build.stacked_static.realization_matrix(self.batch)
        self.total = n_pts * N_RUNS
        self.offsets = np.arange(n_pts + 1) * N_RUNS
        self.row_of = np.tile(np.arange(N_RUNS), n_pts)
        self.point_of = np.repeat(np.arange(n_pts), N_RUNS)
        choices = {k: np.tile(v, n_pts) for k, v in self.batch.choices.items()}
        self.groups, _keys = build.stacked_static.executed_paths(
            choices, self.total)
        spans = [(int(self.offsets[i]), int(self.offsets[i + 1]))
                 for i in build.dyn_points]
        if len(build.dyn_points) == n_pts:
            self.sel = None
            self.dyn_groups = self.groups
            self.dyn_row_of = self.row_of
            self.dyn_point_of = self.point_of
        else:
            self.sel, self.dyn_groups = _sub_grouping(self.groups, spans,
                                                      self.total)
            self.dyn_row_of = self.row_of.take(self.sel)
            self.dyn_point_of = np.repeat(
                np.arange(len(build.dyn_points)), N_RUNS)

    def spm_speed(self):
        return _stack_values([
            get_policy("SPM").batch_fixed_speed(ps, self.power,
                                                PAPER_OVERHEAD)
            for ps in self.build.static_plans])

    def dynamic_specs(self):
        specs = []
        for name in DYNAMIC:
            kind, spec = _plan_scheme(get_policy(name), name,
                                      self.build.dyn_plans, self.power,
                                      PAPER_OVERHEAD)
            assert kind == "dynamic"
            specs.append(spec)
        return specs

    def run_dynamic(self, matrix, out=None, out_row=None):
        return run_dynamic_batch(
            self.build.stacked_dyn, self.power, PAPER_OVERHEAD, matrix,
            self.dyn_groups, self.dynamic_specs(), DYNAMIC,
            point_of=self.dyn_point_of, row_of=self.dyn_row_of, out=out,
            out_row=out_row)


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _untouched(dest, written):
    """Whether every position of ``dest`` outside ``written`` still
    holds the NaN it was filled with."""
    rest = np.ones(dest.size, dtype=bool)
    rest[written] = False
    return bool(np.isnan(dest[rest]).all())


class TestBitIdentity:
    @pytest.mark.parametrize("block_rows", [7, 16384, interp.BLOCK_ROWS])
    @pytest.mark.parametrize("finish", [True, False])
    def test_fixed_kernel_fills_mapped_rows(self, monkeypatch, block_rows,
                                            finish):
        monkeypatch.setattr(interp, "BLOCK_ROWS", block_rows)
        sw = _Sweep(PARTIAL)
        speed = sw.spm_speed()
        fresh = run_fixed_batch(sw.build.stacked_static, sw.power,
                                PAPER_OVERHEAD, sw.matrix, sw.groups, speed,
                                "SPM", point_of=sw.point_of,
                                row_of=sw.row_of)
        # runs land in reverse order, past three leading spare slots
        out_row = np.arange(sw.total)[::-1] + 3
        energy = np.full(sw.total + 5, np.nan)
        fin = np.full(sw.total + 5, np.nan) if finish else None
        got = run_fixed_batch(sw.build.stacked_static, sw.power,
                              PAPER_OVERHEAD, sw.matrix, sw.groups, speed,
                              "SPM", point_of=sw.point_of, row_of=sw.row_of,
                              out=(energy, fin), out_row=out_row)
        assert got.total_energy is energy
        assert _same(energy[out_row], fresh.total_energy)
        assert _untouched(energy, out_row)
        if finish:
            assert got.finish_time is fin
            assert _same(fin[out_row], fresh.finish_time)
            assert _untouched(fin, out_row)
        else:
            assert got.finish_time is None
        assert np.array_equal(got.n_speed_changes, fresh.n_speed_changes)

    @pytest.mark.parametrize("block_rows", [7, 16384, interp.BLOCK_ROWS])
    @pytest.mark.parametrize("loads", [FULL, PARTIAL],
                             ids=["every-point", "partial-view"])
    @pytest.mark.parametrize("finish", [True, False])
    def test_dynamic_kernel_fills_mapped_rows(self, monkeypatch, block_rows,
                                              loads, finish):
        monkeypatch.setattr(interp, "BLOCK_ROWS", block_rows)
        sw = _Sweep(loads)
        assert (sw.sel is None) == (loads is FULL)
        fresh = sw.run_dynamic(sw.matrix)
        written = (np.arange(sw.total) if sw.sel is None else sw.sel)
        dests = [(np.full(sw.total, np.nan),
                  np.full(sw.total, np.nan) if finish else None,
                  np.full(sw.total, np.nan)) for _ in DYNAMIC]
        got = sw.run_dynamic(sw.matrix, out=dests, out_row=sw.sel)
        for res, want, (energy, fin, changes) in zip(got, fresh, dests):
            assert res.scheme == want.scheme
            assert res.total_energy is energy
            assert res.n_speed_changes is changes
            assert _same(energy[written], want.total_energy)
            assert _same(changes[written],
                         want.n_speed_changes.astype(float))
            assert want.n_speed_changes.dtype == np.int64
            assert _untouched(energy, written)
            assert _untouched(changes, written)
            if finish:
                assert _same(fin[written], want.finish_time)
            else:
                assert res.finish_time is None

    @pytest.mark.parametrize("block_rows", [7, 16384, interp.BLOCK_ROWS])
    def test_evaluator_finishes_only_on_request(self, monkeypatch,
                                                block_rows):
        monkeypatch.setattr(interp, "BLOCK_ROWS", block_rows)
        sw = _Sweep(PARTIAL)
        args = (sw.build, sw.batches, sw.matrix, sw.groups, sw.point_of,
                sw.offsets, sw.row_of)
        npm, absolute, finishes, changes = _evaluate(*args)
        assert set(finishes) == set(sw.build.scheme_names)
        assert all(f is None for f in finishes.values())
        npm_f, absolute_f, finishes_f, changes_f = _evaluate(*args,
                                                             finish=True)
        assert _same(npm, npm_f)
        for name in sw.build.scheme_names:
            assert _same(absolute[name], absolute_f[name])
            assert _same(changes[name], changes_f[name])
        npm_run = run_fixed_batch(sw.build.stacked_static, sw.power,
                                  NO_OVERHEAD, sw.matrix, sw.groups,
                                  sw.power.s_max, "NPM",
                                  point_of=sw.point_of, row_of=sw.row_of)
        assert _same(npm, npm_run.total_energy)
        assert _same(finishes_f["NPM"], npm_run.finish_time)
        # the point without a dynamic plan runs every dynamic scheme
        # like NPM, with zero switches; the others hold the kernel's rows
        off = slice(N_RUNS, 2 * N_RUNS)
        for want in sw.run_dynamic(sw.matrix):
            name = want.scheme
            assert _same(absolute[name][off], npm[off])
            assert _same(finishes_f[name][off], npm_run.finish_time[off])
            assert not changes[name][off].any()
            assert _same(absolute[name][sw.sel], want.total_energy)
            assert _same(finishes_f[name][sw.sel], want.finish_time)
            assert _same(changes[name][sw.sel],
                         want.n_speed_changes.astype(float))


class TestErrors:
    """An invalid batch raises the same error — class, message and
    scheme — whether the kernel writes fresh arrays or destinations."""

    @staticmethod
    def _raised(call):
        with pytest.raises(SimulationError) as info:
            call()
        return info.value

    def _assert_same(self, fresh, mapped):
        want = self._raised(fresh)
        got = self._raised(mapped)
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "scheme", None) == getattr(want, "scheme", None)
        return got

    @pytest.mark.parametrize("kernel", ["fixed", "dynamic"])
    def test_wcet_violation(self, kernel):
        sw = _Sweep(PARTIAL)
        prog = sw.build.stacked_static
        # the root section runs on every path
        root = build_tape(prog).sections[prog.root_sid]
        matrix = sw.matrix.copy()
        matrix[N_RUNS // 2, root.comp_cols[0]] = 1e9
        dests = [(np.empty(sw.total), None, np.empty(sw.total))
                 for _ in DYNAMIC]
        if kernel == "fixed":
            def call(**kw):
                return run_fixed_batch(
                    sw.build.stacked_static, sw.power, PAPER_OVERHEAD,
                    matrix, sw.groups, sw.spm_speed(), "SPM",
                    point_of=sw.point_of, row_of=sw.row_of, **kw)
            mapped = dict(out=(np.empty(sw.total), None))
        else:
            def call(**kw):
                return sw.run_dynamic(matrix, **kw)
            mapped = dict(out=dests, out_row=sw.sel)
        got = self._assert_same(call, lambda: call(**mapped))
        assert "exceeds WCET" in str(got)

    def test_deadline_miss(self):
        # one speed for both points: fast enough at load 0.3, too slow
        # for point 1's tighter deadline
        sw = _Sweep((0.3, 0.95))
        speed = sw.power.snap_up(0.35)

        def call(**kw):
            return run_fixed_batch(sw.build.stacked_static, sw.power,
                                   PAPER_OVERHEAD, sw.matrix, sw.groups,
                                   speed, "SPM", point_of=sw.point_of,
                                   row_of=sw.row_of, **kw)
        got = self._assert_same(call, lambda: call(
            out=(np.empty(sw.total + 1), None),
            out_row=np.arange(sw.total) + 1))
        assert isinstance(got, DeadlineMissError)
        assert got.scheme == "SPM"

    def test_guarantee_violation(self):
        # no reserve for an adjustment overhead of 1e6: the required
        # speed is +inf (as in the dict engine's guarantee error)
        power = transmeta_model()
        plan = build_plan(application_with_load(figure3_graph(), 0.6, 2), 2)
        prog = compile_plan(plan)
        overhead = OverheadModel(comp_cycles=0.0, adjust_time=1e6)
        batch = sample_realization_batch(plan.structure,
                                         np.random.default_rng(2), 3)
        groups, _keys = prog.executed_paths(batch.choices, 3)
        run = get_policy("GSS").start_run(plan, power, NO_OVERHEAD)

        def call(**kw):
            return run_dynamic_batch(prog, power, overhead,
                                     prog.realization_matrix(batch), groups,
                                     [run], ["GSS"], **kw)
        got = self._assert_same(call, lambda: call(
            out=[(np.empty(5), np.empty(5), np.empty(5))],
            out_row=np.array([4, 0, 2])))
        assert "required speed inf" in str(got)
        assert str(got).endswith("under scheme 'GSS'")


class TestViewBackedResults:
    """A fused sweep's per-point results are views of its arrays; they
    must pickle and cache to the same bytes as copies."""

    @staticmethod
    def _copy_backed(res):
        out = dataclasses.replace(res, normalized={}, absolute={},
                                  speed_changes={},
                                  npm_energy=res.npm_energy.copy(),
                                  path_ids=res.path_ids.copy(),
                                  path_table=list(res.path_table))
        for name in res.absolute:
            out.absolute[name] = res.absolute[name].copy()
            out.normalized[name] = res.normalized[name].copy()
            out.speed_changes[name] = res.speed_changes[name].copy()
        return out

    def _results(self):
        cfg = RunConfig(schemes=("NPM", "SPM") + DYNAMIC, n_runs=N_RUNS,
                        seed=9)
        apps = [application_with_load(atr_graph(), ld, cfg.n_processors)
                for ld in PARTIAL]
        return apps, cfg, evaluate_points_fused(apps, [cfg] * len(apps))

    def test_results_are_views(self):
        _apps, _cfg, results = self._results()
        for res in results:
            assert res.npm_energy.base is not None
            for name in res.absolute:
                assert res.absolute[name].base is not None
                assert res.speed_changes[name].base is not None

    def test_pickles_like_a_copy(self):
        _apps, _cfg, results = self._results()
        for res in results:
            copy = self._copy_backed(res)
            for protocol in (4, pickle.HIGHEST_PROTOCOL):
                assert pickle.dumps(res, protocol) == \
                    pickle.dumps(copy, protocol)
            back = pickle.loads(pickle.dumps(res))
            assert _same(back.npm_energy, res.npm_energy)
            for name in res.absolute:
                assert _same(back.absolute[name], res.absolute[name])
                assert _same(back.speed_changes[name],
                             res.speed_changes[name])

    def test_caches_like_a_copy(self, tmp_path):
        apps, cfg, results = self._results()
        views = EvaluationCache(tmp_path / "views")
        copies = EvaluationCache(tmp_path / "copies")
        for app, res in zip(apps, results):
            key = evaluation_key(app, cfg)
            views.put(key, res)
            copies.put(key, self._copy_backed(res))
            assert views.path_for(key).read_bytes() == \
                copies.path_for(key).read_bytes()
            back = views.get(key, app.name, cfg)
            assert back.path_keys == res.path_keys
            assert _same(back.npm_energy, res.npm_energy)
            for name in res.absolute:
                assert _same(back.absolute[name], res.absolute[name])
                assert _same(back.normalized[name], res.normalized[name])
                assert _same(back.speed_changes[name],
                             res.speed_changes[name])
