"""Batch-kernel mechanics: tape lowering, the first-idle processor
choice, the WCET precheck's error selection, and the kernel
observability snapshot.

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
from repro.workloads import application_with_load, atr_graph
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
