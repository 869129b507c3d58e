"""The batch kernels' threaded path against their serial one.

Above :data:`~repro.sim.kernels.interp.THREAD_ROWS` kernel rows a call
runs its independent units — the dynamic kernel's row blocks, the fixed
kernel's path groups — on threads of one process.  These tests force
that path on small sweeps (a 7-row block size, a zero threshold, three
threads whatever the host has) and pin it to the serial call: the same
bytes in every destination, also at the default block size with a path
group several blocks long, the same error when several blocks are
invalid, no NumPy warning escaping a worker thread, no thread left
behind, and no threads at all inside a pool worker.
"""

import copy
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from repro.core import get_policy
from repro.errors import DeadlineMissError, SimulationError
from repro.experiments import ExecutionContext
from repro.offline import build_plan
from repro.power import NO_OVERHEAD, PAPER_OVERHEAD, transmeta_model
from repro.sim import sample_realization_batch
from repro.sim.compiled import compile_plan, run_dynamic_batch, run_fixed_batch
from repro.sim.kernels import build_tape, interp
from repro.workloads import application_with_load
from tests.conftest import build_or_graph
from tests.unit.test_destinations import DYNAMIC, FULL, PARTIAL, _Sweep

#: threads a forced call runs on, whatever the host's core count
THREADS = 3


def _force(threaded: bool) -> list:
    """Set the module for a threaded or a serial call (7-row blocks
    either way); returns the list each call's thread count lands in."""
    interp.BLOCK_ROWS = 7
    interp.THREAD_ROWS = 0 if threaded else 10 ** 12
    interp.effective_cores = lambda: THREADS
    used = []
    run_units = interp._run_units

    def record(units, run, n_threads, *rest):
        used.append(n_threads)
        return run_units(units, run, n_threads, *rest)

    interp._run_units = record
    return used


@pytest.fixture
def mode(monkeypatch):
    """``mode(threaded)`` puts the kernels on one path; monkeypatch
    restores the module afterwards."""
    for name in ("BLOCK_ROWS", "THREAD_ROWS", "effective_cores",
                 "_run_units"):
        monkeypatch.setattr(interp, name, getattr(interp, name))
    run_units = interp._run_units

    def set_mode(threaded):
        interp._run_units = run_units
        return _force(threaded)
    return set_mode


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fixed(sw, matrix, speed, **kw):
    kw.setdefault("row_of", sw.row_of)
    return run_fixed_batch(sw.build.stacked_static, sw.power, PAPER_OVERHEAD,
                           matrix, sw.groups, speed, "SPM",
                           point_of=sw.point_of, **kw)


def _raised(call):
    with pytest.raises(SimulationError) as info:
        call()
    return info.value


class TestBitIdentity:
    @pytest.mark.parametrize("finish", [True, False])
    def test_fixed_kernel(self, mode, finish):
        sw = _Sweep(PARTIAL)
        speed = sw.spm_speed()
        out_row = np.arange(sw.total)[::-1] + 3
        got = {}
        for threaded in (False, True):
            used = mode(threaded)
            fresh = _fixed(sw, sw.matrix, speed)
            energy = np.full(sw.total + 5, np.nan)
            fin = np.full(sw.total + 5, np.nan) if finish else None
            _fixed(sw, sw.matrix, speed, out=(energy, fin), out_row=out_row)
            got[threaded] = (fresh, energy, fin)
            assert set(used) == {THREADS if threaded else 1}
        (s_fresh, s_e, s_f), (t_fresh, t_e, t_f) = got[False], got[True]
        assert len(sw.groups) > 1  # more than one unit to share out
        assert _same(t_fresh.total_energy, s_fresh.total_energy)
        assert _same(t_fresh.finish_time, s_fresh.finish_time)
        assert _same(t_e, s_e)
        if finish:
            assert _same(t_f, s_f)

    @pytest.mark.parametrize("loads", [FULL, PARTIAL],
                             ids=["every-point", "partial-view"])
    @pytest.mark.parametrize("finish", [True, False])
    def test_dynamic_kernel(self, mode, loads, finish):
        sw = _Sweep(loads)
        got = {}
        for threaded in (False, True):
            used = mode(threaded)
            fresh = sw.run_dynamic(sw.matrix)
            dests = [(np.full(sw.total, np.nan),
                      np.full(sw.total, np.nan) if finish else None,
                      np.full(sw.total, np.nan)) for _ in DYNAMIC]
            sw.run_dynamic(sw.matrix, out=dests, out_row=sw.sel)
            got[threaded] = (fresh, dests)
            assert set(used) == {THREADS if threaded else 1}
        for want, res in zip(got[False][0], got[True][0]):
            assert res.scheme == want.scheme
            assert _same(res.total_energy, want.total_energy)
            assert _same(res.finish_time, want.finish_time)
            assert _same(res.n_speed_changes, want.n_speed_changes)
        for want, res in zip(got[False][1], got[True][1]):
            for a, b in zip(want, res):
                if a is None:
                    assert b is None and not finish
                else:
                    assert _same(a, b)


def test_default_blocks_of_a_group_spanning_several(mode):
    """Threaded at the default block size, with a path group three
    blocks long: the same bytes as the serial call at 7-row blocks."""
    default = interp.BLOCK_ROWS
    power = transmeta_model()
    plan = build_plan(application_with_load(build_or_graph(), 0.6, 2), 2,
                      reserve=PAPER_OVERHEAD.per_task_reserve(power))
    prog = compile_plan(plan)
    batch = sample_realization_batch(plan.structure,
                                     np.random.default_rng(3), 300)
    matrix = prog.realization_matrix(batch)
    groups, _keys = prog.executed_paths(batch.choices, len(batch))
    # 400 scheme rows per run: a default block holds 81 runs, and a
    # 7-row block one.  Past the five batchable schemes the rows are GSS
    # and SS1, whose per-block Python is the cheapest
    names = (["GSS", "SS1", "SS2", "AS", "PS"] + ["GSS", "SS1"] * 196
             + ["GSS", "SS1", "AS"])
    runs = [get_policy(n).start_run(plan, power, PAPER_OVERHEAD)
            for n in names]
    assert max(idx.size for _path, idx in groups) > \
        2 * (default // len(names))

    def call():
        return run_dynamic_batch(prog, power, PAPER_OVERHEAD, matrix,
                                 groups, runs, names)
    mode(False)
    want = call()
    used = mode(True)
    interp.BLOCK_ROWS = default
    got = call()
    assert used == [THREADS]
    for res, ref in zip(got, want):
        assert res.scheme == ref.scheme
        assert _same(res.total_energy, ref.total_energy)
        assert _same(res.finish_time, ref.finish_time)
        assert _same(res.n_speed_changes, ref.n_speed_changes)


class TestErrors:
    """Two invalid blocks: every unit runs, and the error raised is the
    earlier block's — the serial call's class, message and scheme."""

    @staticmethod
    def _both(mode, call):
        mode(False)
        want = _raised(call)
        mode(True)
        got = _raised(call)
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "scheme", None) == getattr(want, "scheme", None)
        return got

    @staticmethod
    def _runs(sw):
        """A per-run matrix (no shared rows, so a planted actual hits
        one run), the first run of the first path group (point 0, the
        first block and unit) and the last run of the last group (the
        last point, the last block and unit)."""
        return (sw.matrix[sw.row_of], int(sw.groups[0][1][0]),
                int(sw.groups[-1][1][-1]))

    @staticmethod
    def _plant_wcet(sw, matrix, run):
        prog = sw.build.stacked_static
        col = build_tape(prog).sections[prog.root_sid].comp_cols[0]
        matrix = matrix.copy()
        matrix[run, col] = 1e9
        return matrix

    @staticmethod
    def _floors(sw, bad_point):
        """One GSS-like run whose floor exceeds the top speed at one
        point only: a guarantee violation on that point's rows."""
        floor = np.zeros(len(sw.batches))
        floor[bad_point] = 2.0 * sw.power.s_max
        return [types.SimpleNamespace(floor_const=floor, floor_step=None,
                                      or_respec=None)]

    @pytest.mark.parametrize("wcet_first", [True, False])
    def test_dynamic_wcet_and_guarantee(self, mode, wcet_first):
        sw = _Sweep(FULL)
        matrix, early, late = self._runs(sw)
        last = len(sw.batches) - 1
        matrix = self._plant_wcet(sw, matrix, early if wcet_first else late)
        runs = self._floors(sw, last if wcet_first else 0)

        def call():
            return run_dynamic_batch(
                sw.build.stacked_dyn, sw.power, PAPER_OVERHEAD, matrix,
                sw.groups, runs, ["GSS"], point_of=sw.point_of)
        got = self._both(mode, call)
        if wcet_first:
            assert "exceeds WCET" in str(got)
        else:
            assert "guarantee violated" in str(got)
            assert str(got).endswith("under scheme 'GSS'")

    @pytest.mark.parametrize("wcet_first", [True, False])
    def test_fixed_wcet_and_deadline(self, mode, wcet_first):
        # a per-point speed too slow for one point's deadline misses it
        # on that point's rows only
        sw = _Sweep((0.95, 0.5, 0.95))
        matrix, early, late = self._runs(sw)
        slow = sw.power.snap_up(0.35)
        speed = np.full(3, sw.power.s_max)
        speed[2 if wcet_first else 0] = slow
        matrix = self._plant_wcet(sw, matrix, early if wcet_first else late)
        got = self._both(mode, lambda: _fixed(sw, matrix, speed,
                                              row_of=None))
        if wcet_first:
            assert "exceeds WCET" in str(got)
        else:
            assert isinstance(got, DeadlineMissError)
            assert got.scheme == "SPM"


def test_zero_denominators_warn_in_no_thread(mode):
    """Rows with ``denom <= 0`` divide by zero; the serial call silences
    that under its ``np.errstate``, and so must every worker thread,
    or ``simplefilter("error")`` would turn it into a RuntimeWarning."""
    sw = _Sweep(FULL)
    prog = copy.deepcopy(sw.build.stacked_dyn)
    # the root section's first entry is dispatched at t=0; with no
    # overhead a zero finish bound there is denom == 0 on every row, so
    # every thread meets one
    build_tape(prog).sections[prog.root_sid].fb_pt[0] = 0.0
    runs = [types.SimpleNamespace(floor_const=0.0, floor_step=None,
                                  or_respec=None)]

    def call():
        return run_dynamic_batch(prog, sw.power, NO_OVERHEAD, sw.matrix,
                                 sw.groups, runs, ["GSS"],
                                 point_of=sw.point_of, row_of=sw.row_of)
    errors = []
    for threaded in (False, True):
        used = mode(threaded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors.append(_raised(call))
        assert max(used) == (THREADS if threaded else 1)
    assert "required speed inf" in str(errors[1])
    assert str(errors[0]) == str(errors[1])


def test_no_thread_outlives_a_call(mode):
    sw = _Sweep(FULL)
    used = mode(True)
    before = threading.active_count()
    sw.run_dynamic(sw.matrix)
    _fixed(sw, sw.matrix, sw.spm_speed())
    assert used == [THREADS, THREADS]
    assert threading.active_count() == before


def test_every_unit_runs_once_under_contention():
    """More threads than cores and a tiny switch interval: every unit is
    handed out exactly once, and each thread fills its own workspace."""
    n_units, n_threads = 4000, 8
    runs = [0] * n_units
    spaces = []

    def run(todo, ws):
        for unit in todo:
            runs[unit] += 1
            ws.append(unit)

    def workspace():
        ws = []
        spaces.append(ws)
        return ws

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=interp._run_units, args=(
            range(n_units), run, n_threads, workspace))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert runs == [1] * n_units
    assert len(spaces) == n_threads
    assert sorted(u for ws in spaces for u in ws) == list(range(n_units))


def _threads_in_this_process():
    """The thread counts of one fixed and one dynamic kernel call forced
    onto the threaded path (module state restored afterwards)."""
    saved = {name: getattr(interp, name) for name in
             ("BLOCK_ROWS", "THREAD_ROWS", "effective_cores", "_run_units")}
    try:
        used = _force(True)
        sw = _Sweep(FULL)
        sw.run_dynamic(sw.matrix)
        _fixed(sw, sw.matrix, sw.spm_speed())
        return used
    finally:
        for name, value in saved.items():
            setattr(interp, name, value)


def test_pool_workers_run_serially():
    assert _threads_in_this_process() == [THREADS, THREADS]
    with ExecutionContext(n_jobs=2) as ctx:
        got = ctx.map(_threads_in_this_process, [(), ()])
    assert got == [[1, 1], [1, 1]]
