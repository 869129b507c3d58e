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
from repro.experiments.figures import ATR_ALPHA
from repro.workloads import (AtrConfig, application_with_load, atr_graph,
                             figure3_graph)
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

    #: (graph, m, the AND entries its tape leaves out): a root fork is
    #: ready at t_section and a sink join feeds only the section end
    DROPPED = (
        (build_nested_or_graph, 2, set()),
        # A1 is read by E and D and stays; each loop-skip section is a
        # lone root AND
        (figure3_graph, 2, {"A2", "LF#skip1", "LF#skip2", "LF#skip3"}),
        # Figure 5's graph: sections 2-7 lose their fork and their join
        (lambda: atr_graph(AtrConfig(
            alpha=ATR_ALPHA, max_rois=6,
            roi_probs=(0.05, 0.15, 0.20, 0.20, 0.15, 0.15, 0.10))), 6,
         {f"k{k}_{end}" for k in range(1, 7) for end in ("fork", "join")}),
    )

    def test_section_tapes_are_structurally_sound(self):
        for graph_fn, m, dropped_names in self.DROPPED:
            self._check_tape(graph_fn, m, dropped_names)

    @staticmethod
    def _check_tape(graph_fn, m, dropped_names):
        app = application_with_load(graph_fn(), 0.6, m)
        prog = compile_plan(build_plan(app, m))
        tape = kernels.build_tape(prog)
        seen_dropped = set()
        for sid, sec in prog.sections.items():
            st = tape.sections[sid]
            assert st.n_entries == len(sec.entries)
            comp = [k for k, entry in enumerate(sec.entries)
                    if not entry[0]]
            assert list(st.comp_sel) == comp
            assert list(st.comp_cols) == [sec.entries[k][2] for k in comp]
            dropped = {k for k, entry in enumerate(sec.entries)
                       if entry[5] in dropped_names}
            seen_dropped |= {sec.entries[k][5] for k in dropped}
            assert all(sec.entries[k][0] for k in dropped)
            # each kept step reproduces its entry's column and
            # predecessor list exactly, its slots renumbered to the
            # entries' positions in the section and the dropped ANDs
            # left out
            kept = [k for k in range(len(sec.entries)) if k not in dropped]
            assert len(st.steps) == len(kept)
            pos_of = {entry[1]: k for k, entry in enumerate(sec.entries)}
            for step, k in zip(st.steps, kept):
                entry = sec.entries[k]
                is_and, slot, col, pred, crel = step
                assert (is_and, slot, col) == (entry[0], k, entry[2])
                if pred is None:
                    row = []
                elif isinstance(pred, int):
                    row = [pred]
                else:
                    row = list(pred)
                assert row == [pos_of[p] for p in entry[6]
                               if pos_of[p] not in dropped]
                assert crel == (-1 if is_and else comp.index(k))
        assert seen_dropped == dropped_names


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


class TestGuaranteeViolation:
    """A finish bound left no time for the overhead (the plan reserved
    none): the required speed is +inf and the dynamic kernel raises the
    engine's guarantee error, naming the scheme."""

    def test_unreserved_overhead_raises_the_engines_error(self):
        from repro.core import get_policy
        from repro.power import NO_OVERHEAD, OverheadModel, transmeta_model
        from repro.sim import sample_realization_batch, simulate
        from repro.sim.compiled import run_dynamic_batch
        power = transmeta_model()
        plan = build_plan(application_with_load(figure3_graph(), 0.6, 2), 2)
        prog = compile_plan(plan)
        overhead = OverheadModel(comp_cycles=0.0, adjust_time=1e6)
        batch = sample_realization_batch(plan.structure,
                                         np.random.default_rng(2), 1)
        run = get_policy("GSS").start_run(plan, power, NO_OVERHEAD)
        with pytest.raises(SimulationError) as want:
            simulate(plan, run, power, overhead, batch.realization(0))
        groups, _keys = prog.executed_paths(batch.choices, 1)
        with pytest.raises(SimulationError) as got:
            run_dynamic_batch(prog, power, overhead,
                              prog.realization_matrix(batch), groups,
                              [run], ["GSS"])
        assert "required speed inf" in str(want.value)
        assert str(got.value) == f"{want.value} under scheme 'GSS'"


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


def _stacked_sweep(loads, m=2, n_rows=40, seed=5):
    """A load sweep over the ATR graph as the fused pass runs it: one
    stacked program, one realization matrix shared by every point
    through ``row_of``, the OR choices decoded over the fused run axis.
    Returns ``(progs, stacked, batch, matrix, groups, point_of,
    row_of)``."""
    from repro.sim import sample_realization_batch
    from repro.sim.sweepc import stack_programs
    graph = atr_graph()
    plans = [build_plan(application_with_load(graph, load, m), m)
             for load in loads]
    progs = [compile_plan(p) for p in plans]
    stacked = stack_programs(progs)
    batch = sample_realization_batch(plans[0].structure,
                                     np.random.default_rng(seed), n_rows)
    matrix = progs[0].realization_matrix(batch)
    n_pts = len(loads)
    row_of = np.tile(np.arange(n_rows), n_pts)
    point_of = np.repeat(np.arange(n_pts), n_rows)
    choices = {k: np.tile(v, n_pts) for k, v in batch.choices.items()}
    groups, _keys = stacked.executed_paths(choices, row_of.size)
    return progs, stacked, batch, matrix, groups, point_of, row_of


class TestSharedFixedDispatch:
    """A load sweep's points share their realization rows, and the fixed
    kernel's dispatch never reads the deadline: runs of one path group
    at different points with equal rows and speed share one dispatch,
    and only the deadline accounting runs per point.  Pinned against
    per-point unstacked calls, bit for bit; blocks of 7 rows straddle
    the point boundaries."""

    LOADS = (0.3, 0.5, 0.4, 0.5)

    def test_segments_with_equal_rows_and_speed_share(self):
        from repro.sim.kernels.interp import _shared_dispatch
        pt = np.repeat(np.arange(3), 4)
        src = np.tile(np.array([5, 1, 7, 2]), 3)
        assert _shared_dispatch(pt, src, 1.0, None) == [
            (0, 4, 0, True), (4, 8, 0, False), (8, 12, 0, False)]
        # a different speed at point 1 gives it its own dispatch
        assert _shared_dispatch(pt, src, np.array([0.5, 1.0, 0.5]),
                                None) == [
            (0, 4, 0, True), (4, 8, 4, True), (8, 12, 0, False)]
        # so do different rows, and different WCETs on the path
        assert _shared_dispatch(pt, np.arange(12), 1.0, None) is None
        rows = src.copy()
        rows[9] = 0  # same length and first row as point 0, one row off
        assert _shared_dispatch(pt, rows, 1.0, None) == [
            (0, 4, 0, True), (4, 8, 0, False), (8, 12, 4, True)]
        assert _shared_dispatch(pt, src, 1.0, (0, 1, 2)) is None
        assert _shared_dispatch(pt, src, 1.0, (0, 1, 0)) == [
            (0, 4, 0, True), (4, 8, 4, True), (8, 12, 0, False)]

    @pytest.mark.parametrize("block_rows", [7, 16384])
    @pytest.mark.parametrize("kind", ["repeated", "scalar"])
    def test_stacked_equals_per_point_calls(self, monkeypatch, block_rows,
                                            kind):
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim.compiled import run_fixed_batch
        from repro.sim.kernels import interp
        monkeypatch.setattr(interp, "BLOCK_ROWS", block_rows)
        power = transmeta_model()
        progs, stacked, batch, matrix, groups, point_of, row_of = \
            _stacked_sweep(self.LOADS)
        if kind == "scalar":
            speed = power.s_max
        else:
            # points 0, 2 and 3 share a speed, point 1 runs at s_max;
            # every speed meets every point's deadline
            low = power.snap_up(max(self.LOADS))
            assert low < power.s_max
            speed = np.array([low, power.s_max, low, low])
        got = run_fixed_batch(stacked, power, PAPER_OVERHEAD, matrix,
                              groups, speed, "SPM", point_of=point_of,
                              row_of=row_of)
        n = len(batch)
        for p, prog in enumerate(progs):
            sp = speed[p] if kind == "repeated" else speed
            want = run_fixed_batch(
                prog, power, PAPER_OVERHEAD, matrix,
                prog.executed_paths(batch.choices, n)[0], sp, "SPM")
            run = slice(p * n, (p + 1) * n)
            assert got.total_energy[run].tobytes() == \
                want.total_energy.tobytes()
            assert got.finish_time[run].tobytes() == \
                want.finish_time.tobytes()
            switches = (got.n_speed_changes[p] if kind == "repeated"
                        else got.n_speed_changes)
            assert switches == want.n_speed_changes

    @pytest.mark.parametrize("block_rows", [7, 16384])
    def test_deadline_miss_at_a_duplicated_point(self, monkeypatch,
                                                 block_rows):
        from repro.errors import DeadlineMissError
        from repro.power import PAPER_OVERHEAD, transmeta_model
        from repro.sim.compiled import run_fixed_batch
        from repro.sim.kernels import interp
        monkeypatch.setattr(interp, "BLOCK_ROWS", block_rows)
        power = transmeta_model()
        # point 1 repeats point 0's rows and speed, so all of its runs
        # reuse point 0's dispatch; only its deadline is too tight
        progs, stacked, batch, matrix, groups, point_of, row_of = \
            _stacked_sweep((0.3, 0.95))
        speed = power.snap_up(0.35)
        with pytest.raises(DeadlineMissError) as got:
            run_fixed_batch(stacked, power, PAPER_OVERHEAD, matrix, groups,
                            speed, "SPM", point_of=point_of, row_of=row_of)
        assert got.value.scheme == "SPM"
        assert got.value.deadline == progs[1].deadline
        # the error a run-per-row batch raises: same run, same message
        with pytest.raises(DeadlineMissError) as want:
            run_fixed_batch(stacked, power, PAPER_OVERHEAD,
                            np.ascontiguousarray(matrix[row_of]), groups,
                            speed, "SPM", point_of=point_of)
        assert str(got.value) == str(want.value)


def _walk_paths(prog, choices, n):
    """The run-by-run decode :meth:`CompiledPlan.executed_paths` must
    reproduce: each run walks its sections from the root, and the first
    run whose walk fails raises."""
    picks = {name: list(seq) for name, seq in choices.items()}
    by_path = {}
    keys = []
    for i in range(n):
        sid = prog.root_sid
        path = [sid]
        while True:
            sec = prog.sections[sid]
            if sec.exit_or is None or not sec.branch_ids:
                break
            if sec.forced_target is not None:
                sid = sec.forced_target
            else:
                if sec.exit_or not in picks:
                    raise SimulationError(
                        f"realization has no branch choice for OR node "
                        f"{sec.exit_or!r}")
                sid = int(picks[sec.exit_or][i])
                if sid not in sec.branch_set:
                    raise SimulationError(
                        f"realization chose section {sid} at "
                        f"{sec.exit_or!r}, not a successor path")
            path.append(sid)
        by_path.setdefault(tuple(path), []).append(i)
        keys.append(">".join(str(s) for s in path))
    return [(path, runs) for path, runs in by_path.items()], keys


class TestExecutedPaths:
    """The NumPy decode partitions runs prefix by prefix; it must give
    the run-by-run walk's groups (first-occurrence order, ascending run
    indices) and keys, and the error of the walk's first failing run."""

    @staticmethod
    def _branching(prog):
        return [sec for sec in prog.sections.values()
                if sec.exit_or is not None and len(sec.branch_ids) > 1]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_run_by_run_walk(self, data):
        graph = data.draw(st.sampled_from([build_nested_or_graph,
                                           atr_graph]))()
        prog = compile_plan(build_plan(application_with_load(graph, 0.6, 2),
                                       2))
        n = data.draw(st.integers(0, 40))
        invalid = data.draw(st.booleans())
        choices = {}
        for sec in self._branching(prog):
            options = list(sec.branch_ids) + ([9999] if invalid else [])
            choices[sec.exit_or] = np.array(
                data.draw(st.lists(st.sampled_from(options), min_size=n,
                                   max_size=n)), dtype=np.int64)
        if invalid and choices and data.draw(st.booleans()):
            del choices[data.draw(st.sampled_from(sorted(choices)))]
        try:
            want = _walk_paths(prog, choices, n)
        except SimulationError as exc:
            with pytest.raises(SimulationError) as got:
                prog.executed_paths(choices, n)
            assert str(got.value) == str(exc)
            return
        groups, keys = prog.executed_paths(choices, n)
        assert keys == want[1]
        assert [path for path, _idx in groups] == \
            [path for path, _runs in want[0]]
        for (_path, idx), (_p, runs) in zip(groups, want[0]):
            assert idx.dtype == np.intp
            assert idx.tolist() == runs

    def test_first_failing_run_wins(self):
        app = application_with_load(build_nested_or_graph(), 0.6, 2)
        prog = compile_plan(build_plan(app, 2))
        first, second = self._branching(prog)
        root = prog.sections[prog.root_sid]
        assert root is first
        n = 6
        # run 4 picks a section off the first OR node's branches; the
        # second OR node has no choices at all, so every other run fails
        # there — run 0 first, and its error is the one raised
        choices = {first.exit_or: np.full(n, first.branch_ids[0])}
        choices[first.exit_or][4] = 9999
        with pytest.raises(SimulationError, match="no branch choice") as got:
            prog.executed_paths(choices, n)
        assert repr(second.exit_or) in str(got.value)
        # with the second node's choices present only run 4 fails
        choices[second.exit_or] = np.full(n, second.branch_ids[0])
        with pytest.raises(SimulationError, match="section 9999 at"):
            prog.executed_paths(choices, n)


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
