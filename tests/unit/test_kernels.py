"""Batch-kernel mechanics: tape lowering, the first-idle processor
choice, the forced-dispatch guard, the WCET precheck's error
selection, the run-to-row map, and the kernel observability snapshot.

The golden suites pin the kernels bit-identical to the dict engine
through the public evaluation APIs; these tests pin what those suites
cannot see — that the tape lowered onto a program is cached and
structurally sound, and which error an invalid batch raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.experiments import RunConfig
from repro.offline import build_plan
from repro.sim import kernels
from repro.sim.compiled import compile_plan
from repro.sim.kernels.interp import _first_min
from repro.workloads import application_with_load, atr_graph, figure3_graph
from tests.conftest import build_nested_or_graph


class TestTapeLowering:
    def test_tape_is_cached_on_the_program(self):
        app = application_with_load(build_nested_or_graph(), 0.6, 2)
        prog = compile_plan(build_plan(app, 2))
        prog._tape = None  # force a fresh lowering
        before = kernels.tape_cache_stats()
        tape = kernels.build_tape(prog)
        again = kernels.build_tape(prog)
        assert again is tape
        after = kernels.tape_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_section_tapes_are_structurally_sound(self):
        app = application_with_load(build_nested_or_graph(), 0.6, 2)
        prog = compile_plan(build_plan(app, 2))
        tape = kernels.build_tape(prog)
        for sid, sec in prog.sections.items():
            st = tape.sections[sid]
            assert len(st.steps) == st.n_entries == len(sec.entries)
            comp = [k for k, entry in enumerate(sec.entries)
                    if not entry[0]]
            assert list(st.comp_sel) == comp
            assert list(st.comp_cols) == [sec.entries[k][2] for k in comp]
            # each step reproduces its entry's slot, column and
            # predecessor list exactly
            for k, entry in enumerate(sec.entries):
                is_and, gid, col, pred, crel = st.steps[k]
                assert (is_and, gid, col) == tuple(entry[:3])
                if pred is None:
                    row = []
                elif isinstance(pred, int):
                    row = [pred]
                else:
                    row = list(pred)
                assert row == list(entry[6])
                assert crel == (-1 if is_and else comp.index(k))


@st.composite
def _proc_free(draw):
    """An ``(m, ng)`` processor free-time block; values rounded to one
    decimal over a short range, so ties are common, and some columns
    all-equal."""
    m = draw(st.integers(1, 8))
    ng = draw(st.integers(1, 12))
    vals = draw(st.lists(st.floats(0.0, 3.0, allow_nan=False),
                         min_size=m * ng, max_size=m * ng))
    pf = np.round(np.asarray(vals).reshape(m, ng), 1)
    flat = draw(st.lists(st.integers(0, ng - 1), max_size=ng))
    pf[:, flat] = pf[0, flat]
    return pf


class TestFirstMin:
    @settings(max_examples=300, deadline=None)
    @given(_proc_free())
    def test_equals_argmin_and_min(self, pf):
        j, mn = _first_min(pf)
        assert j.dtype.kind == "i"
        assert j.tolist() == pf.argmin(axis=0).tolist()
        assert mn.tobytes() == pf.min(axis=0).tobytes()
        # the minimum is the chosen processor's own free time
        assert mn.tobytes() == pf[j, np.arange(pf.shape[1])].tobytes()

    def test_all_equal_columns_pick_processor_zero(self):
        pf = np.full((6, 5), 2.5)
        j, mn = _first_min(pf)
        assert j.tolist() == [0] * 5
        assert mn.tolist() == [2.5] * 5


class TestForcedDispatchGuard:
    """Both kernels send a section's first m computation tasks straight
    to processors 0..m-1 while every finish so far in the section is
    strictly after its start.  A zero actual time with no overhead
    finishes *at* the section start, so its processor is the first idle
    one again and the section must fall back to :func:`_first_min`; in
    the dynamic kernel the wrong processor carries the wrong current
    level and changes ``n_speed_changes``.  Pinned against the dict
    engine with exact equality on batches whose first computation entry
    of every section is zero on half the runs."""

    FIXED = ("NPM", "SPM")
    DYNAMIC = ("GSS", "SS1", "SS2", "AS", "PS")

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("graph_fn", [figure3_graph, atr_graph],
                             ids=["figure3", "atr"])
    def test_zero_actuals_match_the_engine(self, graph_fn, m):
        from repro.core import get_policy
        from repro.power import NO_OVERHEAD, transmeta_model
        from repro.sim import (sample_realization_batch, simulate,
                               supports_dynamic_batch)
        from repro.sim.compiled import run_dynamic_batch, run_fixed_batch
        power = transmeta_model()
        plan = build_plan(application_with_load(graph_fn(), 0.6, m), m)
        prog = compile_plan(plan)
        batch = sample_realization_batch(plan.structure,
                                         np.random.default_rng(m), 100)
        for st in kernels.build_tape(prog).sections.values():
            if st.comp_sel.size:
                first = st.names[int(st.comp_sel[0])]
                batch.actuals[::2, batch.column_of(first)] = 0.0
        matrix = prog.realization_matrix(batch)
        groups, _keys = prog.executed_paths(batch.choices, len(batch))

        got = {}
        for name in self.FIXED:
            speed = get_policy(name).batch_fixed_speed(plan, power,
                                                       NO_OVERHEAD)
            res = run_fixed_batch(prog, power, NO_OVERHEAD, matrix, groups,
                                  speed, name)
            got[name] = (res.total_energy, res.finish_time,
                         np.full(len(batch), res.n_speed_changes))
        runs = [get_policy(n).start_run(plan, power, NO_OVERHEAD)
                for n in self.DYNAMIC]
        assert all(supports_dynamic_batch(r, power) for r in runs)
        for res in run_dynamic_batch(prog, power, NO_OVERHEAD, matrix,
                                     groups, runs, self.DYNAMIC):
            got[res.scheme] = (res.total_energy, res.finish_time,
                               res.n_speed_changes)

        for name, (energy, finish, changes) in got.items():
            policy = get_policy(name)
            for i in range(len(batch)):
                rl = batch.realization(i)
                want = simulate(plan, policy.start_run(plan, power,
                                                       NO_OVERHEAD, rl),
                                power, NO_OVERHEAD, rl)
                assert energy[i] == want.total_energy, (name, i)
                assert finish[i] == want.finish_time, (name, i)
                assert changes[i] == want.n_speed_changes, (name, i)


class TestWcetPrecheck:
    """The kernels hoist the per-entry WCET check into one per-path
    precheck; pin its error selection (first entry in path order with
    any violating run, first violating run in the group) and its
    message, which names the offending task."""

    def _doctored_batch(self):
        from repro.sim import sample_realization_batch
        app = application_with_load(atr_graph(), 0.6, 2)
        plan = build_plan(app, 2)
        prog = compile_plan(plan)
        rng = np.random.default_rng(3)
        batch = sample_realization_batch(plan.structure, rng, 64)
        matrix = prog.realization_matrix(batch)
        groups, _keys = prog.executed_paths(batch.choices, len(batch))
        tape = kernels.build_tape(prog)
        # doctor two computation entries of one executed section past
        # their WCET — later entry on every run, earlier entry on every
        # run but the group's first — so the raised error must name the
        # earlier entry and the group's *second* run
        path, idx, st = next(
            (path, idx, tape.sections[sid])
            for path, idx in groups if idx.size >= 2
            for sid in path if tape.sections[sid].comp_cols.size >= 2)
        matrix[idx[1:], st.comp_cols[0]] = 1e9
        matrix[idx, st.comp_cols[1]] = 1e9
        # only this section was doctored, so it is the first violating
        # section in path order; its first computation entry must be
        # the one the error names
        name = st.names[int(st.comp_sel[0])]
        return plan, prog, matrix, groups, name

    def test_fixed_kernel_names_first_violating_entry(self):
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim.compiled import run_fixed_batch
        _plan, prog, matrix, groups, name = self._doctored_batch()
        power = transmeta_model()
        with pytest.raises(SimulationError) as ei:
            run_fixed_batch(prog, power, PAPER_OVERHEAD, matrix,
                            groups, power.s_max, "NPM")
        msg = str(ei.value)
        assert "exceeds WCET" in msg
        assert repr(name) in msg
        assert "actual time 1000000000.0 " in msg

    def test_dynamic_kernel_names_first_violating_entry(self):
        from repro.core import get_policy
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim import supports_dynamic_batch
        from repro.sim.compiled import run_dynamic_batch
        plan, prog, matrix, groups, name = self._doctored_batch()
        power = transmeta_model()
        run = get_policy("GSS").start_run(plan, power, PAPER_OVERHEAD)
        assert supports_dynamic_batch(run, power)
        with pytest.raises(SimulationError) as ei:
            run_dynamic_batch(prog, power, PAPER_OVERHEAD, matrix,
                              groups, [run], ["GSS"])
        msg = str(ei.value)
        assert "exceeds WCET" in msg
        assert repr(name) in msg
        assert "actual time 1000000000.0 " in msg


class TestRowMap:
    """With ``row_of``, runs read shared realization rows; both kernels
    must give exactly what they give on the materialized
    ``matrix[row_of]``, errors included."""

    def _setup(self):
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim import sample_realization_batch
        app = application_with_load(atr_graph(), 0.6, 2)
        plan = build_plan(app, 2)
        prog = compile_plan(plan)
        batch = sample_realization_batch(plan.structure,
                                         np.random.default_rng(7), 24)
        matrix = prog.realization_matrix(batch).copy()
        # 60 runs over 24 rows: every row is read by several runs
        row_of = np.random.default_rng(8).integers(0, 24, size=60)
        choices = {k: v[row_of] for k, v in batch.choices.items()}
        groups, _keys = prog.executed_paths(choices, row_of.size)
        return (plan, prog, transmeta_model(), PAPER_OVERHEAD, matrix,
                row_of, groups)

    def _call(self, kernel, plan, prog, power, overhead, matrix, groups,
              row_of):
        from repro.core import get_policy
        from repro.sim.compiled import run_dynamic_batch, run_fixed_batch
        if kernel == "fixed":
            res = run_fixed_batch(prog, power, overhead, matrix, groups,
                                  power.s_max, "NPM", row_of=row_of)
            return [(res.total_energy, res.finish_time)]
        names = ("GSS", "SS1")
        runs = [get_policy(n).start_run(plan, power, overhead)
                for n in names]
        return [(r.total_energy, r.finish_time, r.n_speed_changes)
                for r in run_dynamic_batch(prog, power, overhead, matrix,
                                           groups, runs, names,
                                           row_of=row_of)]

    @pytest.mark.parametrize("kernel", ["fixed", "dynamic"])
    def test_mapped_rows_equal_materialized_rows(self, kernel):
        plan, prog, power, overhead, matrix, row_of, groups = self._setup()
        got = self._call(kernel, plan, prog, power, overhead, matrix,
                         groups, row_of)
        want = self._call(kernel, plan, prog, power, overhead,
                          matrix[row_of], groups, None)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.shape == (row_of.size,)
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("kernel", ["fixed", "dynamic"])
    def test_mapped_over_wcet_row_raises_the_same_error(self, kernel):
        plan, prog, power, overhead, matrix, row_of, groups = self._setup()
        st = kernels.build_tape(prog).sections[prog.root_sid]
        assert st.comp_cols.size  # the root section always executes
        matrix[row_of[5], st.comp_cols[0]] = 1e9
        with pytest.raises(SimulationError) as got:
            self._call(kernel, plan, prog, power, overhead, matrix,
                       groups, row_of)
        with pytest.raises(SimulationError) as want:
            self._call(kernel, plan, prog, power, overhead,
                       matrix[row_of], groups, None)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert "exceeds WCET" in str(got.value)


class TestKernelMeta:
    def test_meta_snapshot_shape(self):
        meta = kernels.kernel_meta()
        assert set(meta) == {"program_cache", "tape_cache",
                             "stacked_cache"}
        assert set(meta["program_cache"]) == {"hits", "misses", "size"}
        assert set(meta["stacked_cache"]) == {"hits", "misses", "size"}
        # tapes live on their program instances — no store, no size
        assert set(meta["tape_cache"]) == {"hits", "misses"}

    def test_sweep_meta_records_the_kernel(self):
        from repro.experiments.sweeps import sweep_load
        cfg = RunConfig(schemes=("SPM",), n_runs=5, seed=2)
        series = sweep_load(atr_graph(), cfg, loads=(0.4, 0.6))
        kernel = series.meta["kernel"]
        assert "tape_cache" in kernel and "stacked_cache" in kernel
