"""The batch simulation kernels: vectorized runs over the lowered tape.

:func:`run_fixed_batch` (NPM, SPM and any batch-constant fixed speed)
and :func:`run_dynamic_batch` (GSS, SS1, SS2, AS, PS) simulate a whole
realization batch one *path group* at a time: runs sharing an executed
path go through each dispatch step together, one NumPy operation
across the group.  Both iterate the program's
:class:`~repro.sim.kernels.tape.SectionTape` rather than per-entry
Python tuples: predecessor readiness is a row gather + ``max``
reduction (one ``np.maximum`` against the single-predecessor column,
or a fancy slice ``fin[:, pred].max(axis=1)`` for joins) and a stacked
section's per-point constants are gathered for *all* entries at once
(``c_pt[:, pt]``).

**Bit-identity with the dict engine.**  Every float operation happens
in exactly the order of :func:`repro.sim.engine.simulate`, so each
per-run energy, finish time and switch count is equal *bit for bit* to
a scalar dict-engine run; the golden suites
(``tests/property/test_compiled_equivalence``,
``test_fused_equivalence``) pin this with exact float equality:

* the predecessor reduction ``max(a, max(b, c))`` is exact and
  associative on floats, so it matches the engine's running ``max``;
* ``np.argmin`` returns the first minimal processor, matching the
  engine's first-idle, lowest-id ``min(range(m), key=...)`` tie-break;
* when an entry has no predecessors, ``ready`` aliases ``t_section``
  instead of copying it; both kernels only ever *rebind*
  ``t_section``, never mutate it in place;
* the fixed kernel batches ``actual / speed`` and the busy-energy
  product per section — identical elementwise operations, consumed
  column by column in entry order;
* where the engine *skips* an accumulation (no speed-computation
  overhead, no switch), the dynamic kernel adds an exact ``0.0``,
  which is bit-identical on the non-negative accumulators involved.

**Fused sweeps.**  ``prog`` may be a
:class:`~repro.sim.sweepc.StackedProgram` covering several sweep
points at once; ``point_of`` is then the ``(n_runs,)`` point index of
every row of ``matrix``, and ``speed`` (fixed kernel) or the run's
protocol attributes ``floor_const``/``floor_step`` (dynamic kernel)
may hold ``(n_points,)`` vectors.  Per-point constants are gathered
into each path group, so every run computes with exactly its own
point's floats — fused outputs are bit-identical to evaluating the
points one program at a time.

**Errors.**  Invalid batches raise the engine's error classes and
messages, in *path-group* order rather than run order.  The WCET guard
runs once per path group over every computation entry on the path
(``act > guard``, with the guard products ``c * (1 + 1e-9)``
precomputed on the tape); on violation the sections are re-scanned in
path order so the error names the first entry in path order with any
violating run, and the first violating run within the group.  Because
that check precedes the group's dispatch loop, a group holding both a
WCET violation and a guarantee violation reports the WCET error.
Realization sampling clamps actuals to WCET, so this defensive path
never fires on sampler-produced batches.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ...errors import DeadlineMissError, SimulationError
from ...power.model import PowerModel
from ...power.overhead import OverheadModel
from .tape import build_tape

_EPS = 1e-9


class FixedBatchResult:
    """Per-run outputs of one vectorized fixed-speed batch simulation."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes",
                 "path_keys")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: np.ndarray, n_speed_changes,
                 path_keys: List[str]):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches per run (identical across runs for a fixed speed):
        #: an int, or an ``(n_points,)`` int array when the batch was a
        #: fused sweep with one fixed speed per point
        self.n_speed_changes = n_speed_changes
        self.path_keys = path_keys


class DynamicBatchResult:
    """Per-run outputs of one vectorized dynamic-scheme batch simulation."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes",
                 "path_keys")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: np.ndarray, n_speed_changes: np.ndarray,
                 path_keys: List[str]):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches per run, as an int array (runs differ)
        self.n_speed_changes = n_speed_changes
        self.path_keys = path_keys


def _gather(value, pt):
    """One group's values of a possibly per-point constant.

    Scalars pass through unchanged (the non-fused path, and stacked
    constants that every point agrees on — broadcasting then performs
    the exact scalar operation); a stacked ``(n_points,)`` vector is
    fancy-indexed by the group's per-run point indices ``pt``.
    """
    if isinstance(value, np.ndarray):
        return value[pt]
    return value


def _at(value, k):
    """Row ``k``'s value of a gathered constant, for error messages."""
    if isinstance(value, np.ndarray):
        return value[k]
    return value


def _check_wcet(st, block: np.ndarray,
                c_all: Optional[np.ndarray]) -> np.ndarray:
    """One whole-section WCET check; returns the section's actual-time
    columns ``(ng, n_comp)`` in computation-entry order.

    The guard products (``c * (1 + 1e-9)``) are precomputed on the tape
    for the scalar case, so the comparisons are float-for-float the
    dict engine's.  On violation the raised error names the first entry
    in entry order with any violating run and the first violating run
    within the group, with the engine's message.
    """
    act = block[:, st.comp_cols]
    if c_all is not None:
        viol = act > c_all[st.comp_sel].T * (1 + 1e-9)
    else:
        viol = act > st.c_guard
    if viol.any():
        e_rel = int(np.nonzero(viol.any(axis=0))[0][0])
        e = int(st.comp_sel[e_rel])
        k = int(np.argmax(viol[:, e_rel]))
        c_g = c_all[e] if c_all is not None else st.c_list[e]
        raise SimulationError(
            f"actual time {act[k, e_rel]} of {st.names[e]!r} "
            f"exceeds WCET {_at(c_g, k)}")
    return act


def _raise_first_wcet(tape, path, block: np.ndarray,
                      pt: Optional[np.ndarray]) -> None:
    """Path-order error selection once the path-level WCET check has
    tripped: re-scan the sections in path order; the first one with a
    violation raises through :func:`_check_wcet`."""
    for sid in path:
        st = tape.sections[sid]
        if st.comp_sel.size:
            c_all = (st.c_pt[:, pt]
                     if st.c_pt is not None and pt is not None else None)
            _check_wcet(st, block, c_all)
    raise AssertionError(
        "path-level WCET check tripped but no section reproduced it")


def run_fixed_batch(prog, power: PowerModel,
                    overhead: OverheadModel, matrix: np.ndarray,
                    groups, path_keys: List[str], speed,
                    scheme: str,
                    check_deadline: bool = True,
                    point_of: Optional[np.ndarray] = None
                    ) -> FixedBatchResult:
    """Vectorized fixed-speed simulation of a whole realization batch.

    ``matrix`` is the ``(n_runs, n_tasks)`` actual-time matrix in
    program column order and ``groups``/``path_keys`` the output of
    :meth:`~repro.sim.compiled.CompiledPlan.executed_paths`.  Every
    per-run output is bit-identical to a scalar dict-engine simulation
    at ``speed``; for a fused sweep (``prog`` a stacked program,
    ``point_of`` its run→point index) ``speed`` may be an
    ``(n_points,)`` vector of per-point fixed speeds, and every derived
    preamble constant is computed with the same scalar formulas,
    selected per point.  See the module docstring for the full
    bit-identity, fused-sweep and error-selection contract.
    """
    tape = build_tape(prog)
    n = matrix.shape[0]
    m = prog.m
    deadline = prog.deadline
    s_max = power.s_max

    if isinstance(speed, np.ndarray):
        switched = np.abs(speed - s_max) > _EPS
        t0 = np.where(switched, overhead.adjust_time, 0.0)
        overhead_time = np.where(switched, m * overhead.adjust_time, 0.0)
        e_over = np.where(switched, m * overhead.adjustment_energy(power),
                          0.0)
        n_changes = np.where(switched, m, 0)
        p_busy = power.power_table(speed)
    else:
        switched = abs(speed - s_max) > _EPS
        t0 = overhead.adjust_time if switched else 0.0
        overhead_time = m * overhead.adjust_time if switched else 0.0
        e_over = m * overhead.adjustment_energy(power) if switched else 0.0
        n_changes = m if switched else 0
        p_busy = power.power(speed)
    idle_power = power.idle_power

    total_energy = np.empty(n)
    finish_time = np.empty(n)

    for path, idx in groups:
        block = matrix[idx]
        ng = idx.size
        rows = np.arange(ng)
        pt = point_of[idx] if point_of is not None else None
        speed_g = _gather(speed, pt)
        p_busy_g = _gather(p_busy, pt)
        t0_g = _gather(t0, pt)
        dl_g = _gather(deadline, pt)
        ot_g = _gather(overhead_time, pt)
        eo_g = _gather(e_over, pt)
        fin = np.empty((ng, prog.n_slots))
        if isinstance(t0_g, np.ndarray):
            proc_free = np.repeat(t0_g[:, None], m, axis=1)
            last_dispatch = t0_g.copy()
            t_section = t0_g.copy()
            t_end = t0_g.copy()
        else:
            proc_free = np.full((ng, m), t0_g)
            last_dispatch = np.full(ng, t0_g)
            t_section = np.full(ng, t0_g)
            t_end = np.full(ng, t0_g)
        busy_time = np.zeros(ng)
        e_busy = np.zeros(ng)

        cols, offs, guard, g_pt = tape.path_wcet(path)
        if cols.size:
            # one gather and one WCET check for the whole path group;
            # on violation the error path re-scans section by section
            # to name the first violating entry in path order
            act_path = block[:, cols]
            viol = (act_path > g_pt[:, pt].T * (1 + 1e-9)
                    if g_pt is not None and pt is not None
                    else act_path > guard)
            if viol.any():
                _raise_first_wcet(tape, path, block, pt)

        for sec_i, sid in enumerate(path):
            st = tape.sections[sid]
            sec_max = None
            if st.comp_sel.size:
                # the section's slice of the path gather (a view), its
                # wall-time division and busy-power product batched;
                # the dispatch loop below consumes them column by
                # column in entry order
                act = act_path[:, offs[sec_i]:offs[sec_i + 1]]
                wall_all = (act / speed_g[:, None]
                            if isinstance(speed_g, np.ndarray)
                            else act / speed_g)
                e_all = (wall_all * p_busy_g[:, None]
                         if isinstance(p_busy_g, np.ndarray)
                         else wall_all * p_busy_g)
            for is_and, gid, col, pred, crel in st.steps:
                if pred is None:
                    ready = t_section
                elif type(pred) is int:
                    ready = np.maximum(t_section, fin[:, pred])
                else:
                    ready = np.maximum(t_section, fin[:, pred].max(axis=1))
                if is_and:
                    fin[:, gid] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                # ndarray methods dodge the np.* python wrappers (~1us
                # per call); identical algorithm, identical result
                j = proc_free.argmin(axis=1)  # first-idle, lowest id
                t = np.maximum(np.maximum(ready, last_dispatch),
                               proc_free[rows, j])
                last_dispatch = t
                wall = wall_all[:, crel]
                finish = t + wall
                busy_time += wall
                e_busy += e_all[:, crel]
                proc_free[rows, j] = finish
                fin[:, gid] = finish
                if sec_max is None:
                    sec_max = finish.copy()
                else:
                    np.maximum(sec_max, finish, out=sec_max)

            if sec_max is None:
                t_end = t_section
            else:
                t_end = np.maximum(sec_max, t_section)
            t_section = t_end
            last_dispatch = t_end
            proc_free = np.broadcast_to(t_end[:, None], (ng, m)).copy()

        if check_deadline:
            late = t_end > dl_g * (1 + 1e-9) + _EPS
            if late.any():
                k = int(np.argmax(late))
                raise DeadlineMissError(float(t_end[k]),
                                        float(_at(dl_g, k)),
                                        scheme=scheme)
        window = m * np.maximum(dl_g, t_end)
        idle_time = window - busy_time - ot_g
        if isinstance(dl_g, np.ndarray):
            thresh = -1e-6 * np.where(dl_g > 1.0, dl_g, 1.0)
        else:
            thresh = -1e-6 * (dl_g if dl_g > 1.0 else 1.0)
        bad = idle_time < thresh
        if bad.any():
            k = int(np.argmax(bad))
            raise SimulationError(
                f"negative idle time {idle_time[k]}: busy={busy_time[k]}, "
                f"overhead={_at(ot_g, k)}, window={window[k]}")
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        total_energy[idx] = e_busy + e_idle + eo_g
        finish_time[idx] = t_end

    return FixedBatchResult(scheme, total_energy, finish_time, n_changes,
                            list(path_keys))


# one errstate for the whole kernel instead of one context per entry
# (~1us each); it only silences divide/invalid *warnings* — the guarded
# np.where selections below are unchanged float for float
@np.errstate(divide="ignore", invalid="ignore")
def run_dynamic_batch(prog, power: PowerModel,
                      overhead: OverheadModel, matrix: np.ndarray,
                      groups, path_keys: List[str], policy_run,
                      scheme: str,
                      check_deadline: bool = True,
                      point_of: Optional[np.ndarray] = None
                      ) -> DynamicBatchResult:
    """Vectorized dynamic-scheme simulation of a whole realization batch.

    The dynamic counterpart of :func:`run_fixed_batch` for the schemes
    that :func:`~repro.sim.compiled.supports_dynamic_batch` accepts.
    Each processor's current speed is tracked as an *index* into the
    discrete level table, so the per-level speed-computation time and
    power draw become single fancy-indexing gathers; the greedy
    required speed, the floor, the snap-up (``searchsorted`` with the
    same ``1e-12`` epsilon as ``DiscretePowerModel.snap_up``) and the
    switch bookkeeping are one NumPy operation each across a path
    group.

    ``policy_run`` is consulted only for its protocol attributes
    (``floor_const``/``floor_step``/``or_respec``) and is not mutated;
    for a fused sweep those attributes may hold ``(n_points,)``
    vectors, gathered per group like the program's per-entry constants
    and branch statistics.  See the module docstring for the full
    bit-identity, fused-sweep and error-selection contract.
    """
    tape = build_tape(prog)
    n = matrix.shape[0]
    m = prog.m
    deadline = prog.deadline
    s_max = power.s_max
    s_max_guard = s_max * (1 + 1e-6)

    speeds_arr = power.level_speed_table()
    n_lv = speeds_arr.size
    pow_arr = power.level_power_table()
    tc_arr = overhead.computation_time_table(power)
    adjust_time = overhead.adjust_time
    adj_energy = overhead.adjustment_energy(power)
    idle_power = power.idle_power

    fc = policy_run.floor_const
    step = policy_run.floor_step
    respec = policy_run.or_respec

    total_energy = np.empty(n)
    finish_time = np.empty(n)
    n_changes = np.empty(n, dtype=np.int64)

    for path, idx in groups:
        block = matrix[idx]
        ng = idx.size
        rows = np.arange(ng)
        pt = point_of[idx] if point_of is not None else None
        fc_g = _gather(fc, pt)
        if step is not None:
            f_lo_g = _gather(step[0], pt)
            f_hi_g = _gather(step[1], pt)
            theta_g = _gather(step[2], pt)
        dl_g = _gather(deadline, pt)
        fin = np.empty((ng, prog.n_slots))
        proc_free = np.zeros((ng, m))
        proc_idx = np.full((ng, m), n_lv - 1, dtype=np.intp)
        last_dispatch = np.zeros(ng)
        t_section = np.zeros(ng)
        busy_time = np.zeros(ng)
        overhead_time = np.zeros(ng)
        e_busy = np.zeros(ng)
        e_over = np.zeros(ng)
        changes = np.zeros(ng, dtype=np.int64)
        fl_vec = None
        t_end = np.zeros(ng)

        cols, _offs, guard, g_pt = tape.path_wcet(path)
        if cols.size:
            # one gather and one WCET check for the whole path group
            # (see run_fixed_batch and the module docstring)
            act_path = block[:, cols]
            viol = (act_path > g_pt[:, pt].T * (1 + 1e-9)
                    if g_pt is not None and pt is not None
                    else act_path > guard)
            if viol.any():
                _raise_first_wcet(tape, path, block, pt)

        for pos, sid in enumerate(path):
            st = tape.sections[sid]
            stacked = st.c_pt is not None and pt is not None
            c_all = st.c_pt[:, pt] if stacked else None
            fb_all = st.fb_pt[:, pt] if stacked else None
            sec_max = None
            for e, (is_and, gid, col, pred, _crel) in enumerate(st.steps):
                if pred is None:
                    ready = t_section
                elif type(pred) is int:
                    ready = np.maximum(t_section, fin[:, pred])
                else:
                    ready = np.maximum(t_section, fin[:, pred].max(axis=1))
                if is_and:
                    fin[:, gid] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                j = proc_free.argmin(axis=1)  # first-idle, lowest id
                t = np.maximum(np.maximum(ready, last_dispatch),
                               proc_free[rows, j])
                last_dispatch = t
                actual = block[:, col]
                if stacked:
                    c_g = c_all[e]
                    fb_g = fb_all[e]
                else:
                    # an unstacked section's constants are always
                    # scalars (vectors force c_pt/fb_pt), so skip the
                    # _gather call
                    c_g = st.c_list[e]
                    fb_g = st.fb_list[e]

                si = proc_idx[rows, j]
                t_comp = tc_arr[si]
                avail = fb_g - t - t_comp
                denom = avail - adjust_time
                s_req = np.where(denom > 0, c_g / denom, math.inf)
                if step is not None:
                    fl = np.where(t < theta_g, f_lo_g, f_hi_g)
                elif fl_vec is not None:
                    fl = fl_vec
                else:
                    fl = fc_g
                target = np.maximum(s_req, fl)
                viol = target > s_max_guard
                if viol.any():
                    k = int(np.argmax(viol))
                    raise SimulationError(
                        f"guarantee violated for {st.names[e]!r}: required "
                        f"speed {target[k]:.6g} exceeds maximum "
                        f"(t={t[k]:.6g}, bound={_at(fb_g, k):.6g})")
                want = np.minimum(target, s_max)
                new_idx = speeds_arr.searchsorted(want - 1e-12,
                                                  side="left")
                # searchsorted never returns < 0, so clip(0, n_lv - 1)
                # is exactly an upper clamp — and np.minimum is a raw
                # ufunc where np.clip is a ~4us python wrapper
                np.minimum(new_idx, n_lv - 1, out=new_idx)
                speed = speeds_arr[new_idx]
                s_cur = speeds_arr[si]
                changed = np.abs(speed - s_cur) > _EPS
                t_adj = np.where(changed, adjust_time, 0.0)
                start_exec = t + t_comp + t_adj
                overhead_time += t_comp
                e_over += pow_arr[si] * t_comp
                overhead_time += t_adj
                e_over += np.where(changed, adj_energy, 0.0)
                changes += changed
                proc_idx[rows, j] = np.where(changed, new_idx, si)

                wall = actual / speed
                finish = start_exec + wall
                busy_time += wall
                e_busy += pow_arr[new_idx] * wall
                proc_free[rows, j] = finish
                fin[:, gid] = finish
                if sec_max is None:
                    sec_max = finish.copy()
                else:
                    np.maximum(sec_max, finish, out=sec_max)

            if sec_max is None:
                t_end = t_section
            else:
                t_end = np.maximum(sec_max, t_section)
            t_section = t_end
            last_dispatch = t_end
            proc_free = np.broadcast_to(t_end[:, None], (ng, m)).copy()
            if respec is not None and pos + 1 < len(path):
                # branch stats stay on the program (not the tape): the
                # respec floor is per OR firing, outside the entry loop
                sec = prog.sections[sid]
                worst, average = sec.branch_stats[path[pos + 1]]
                work = _gather(average if respec == "average" else worst,
                               pt)
                horizon = dl_g - t_end
                raw = work / horizon
                want = np.minimum(raw, s_max)
                snap_idx = speeds_arr.searchsorted(want - 1e-12,
                                                   side="left")
                np.minimum(snap_idx, n_lv - 1, out=snap_idx)
                fl_vec = np.where(horizon > 0, speeds_arr[snap_idx], s_max)

        if check_deadline:
            late = t_end > dl_g * (1 + 1e-9) + _EPS
            if late.any():
                k = int(np.argmax(late))
                raise DeadlineMissError(float(t_end[k]),
                                        float(_at(dl_g, k)),
                                        scheme=scheme)
        window = m * np.maximum(dl_g, t_end)
        idle_time = window - busy_time - overhead_time
        if isinstance(dl_g, np.ndarray):
            thresh = -1e-6 * np.where(dl_g > 1.0, dl_g, 1.0)
        else:
            thresh = -1e-6 * (dl_g if dl_g > 1.0 else 1.0)
        bad = idle_time < thresh
        if bad.any():
            k = int(np.argmax(bad))
            raise SimulationError(
                f"negative idle time {idle_time[k]}: busy={busy_time[k]}, "
                f"overhead={overhead_time[k]}, window={window[k]}")
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        total_energy[idx] = e_busy + e_idle + e_over
        finish_time[idx] = t_end
        n_changes[idx] = changes

    return DynamicBatchResult(scheme, total_energy, finish_time, n_changes,
                              list(path_keys))
