"""The batch simulation kernels: vectorized runs over the lowered tape.

:func:`run_fixed_batch` (NPM, SPM and any batch-constant fixed speed)
and :func:`run_dynamic_batch` (GSS, SS1, SS2, AS, PS) simulate a whole
realization batch one *path group* at a time: runs sharing an executed
path go through each dispatch step together, one NumPy operation
across the group.  Both iterate the program's
:class:`~repro.sim.kernels.tape.SectionTape` rather than per-entry
Python tuples.

**Kernel rows and the scheme axis.**  A fixed-kernel row is one run.
:func:`run_dynamic_batch` takes several dynamic schemes at once and
stacks them on the row axis, *scheme-major*: within a block of ``nb``
runs, scheme ``s`` of run ``r`` is row ``s * nb + r``.  Each row carries
its scheme's floor as a step triple ``(lo, hi, θ)`` — the floor is
``lo`` before ``θ`` and ``hi`` from then on.  SS2 keeps its declared
step; a constant floor ``fc`` is ``(fc, fc, +inf)``, which selects
``fc`` at every finite time.  At each OR firing the rows of a scheme
that re-speculates (``or_respec`` "average" or "worst") get ``lo = hi
=`` the re-speculated level.  The path block, the WCET check and the
per-point constant gathers run once per block for every scheme, and
each scheme's outputs come back as its own
:class:`DynamicBatchResult`, in request order.

**Row blocks.**  Both kernels split every path group into consecutive
blocks of at most :data:`BLOCK_ROWS` kernel rows — runs for the fixed
kernel, schemes × runs for the dynamic one — so the per-block buffers
stay cache-sized however large the batch or the scheme list is.  Every
row's computation depends on its own row only, so blocking changes no
float.

**Entries-major layout.**  Every per-block buffer keeps the block's
rows on its *last* axis, so each per-entry read or write is a
contiguous row:

* the realization columns of a block are read with one flat gather,
  ``matrix.ravel().take(cols[:, None] + idx * n_cols)``, which yields
  the ``(n_cols, nb)`` block of exactly the path's computation-entry
  columns (never the full ``matrix[idx]`` row copy), tiled across the
  schemes by the dynamic kernel;
* the finishes buffer ``fin`` is ``(n_slots, rows)``: predecessor
  readiness is a row read (one ``np.maximum`` against the single
  predecessor) or a row gather + ``max(axis=0)`` for joins;
* the processor state ``proc_free`` (and the dynamic kernel's level
  index ``proc_idx``) is one flat ``(m * rows,)`` array, processor
  ``j`` of row ``r`` at ``j * rows + r``, viewed as ``(m, rows)`` for
  the minimum; get and set are a ``take`` and an index store on that
  flat index;
* a stacked section's per-point constants are gathered for *all*
  entries at once (``c_pt.take(pt, axis=1)``).

**Bit-identity with the dict engine.**  Every float operation happens
in exactly the order of :func:`repro.sim.engine.simulate`, so each
per-run energy, finish time and switch count is equal *bit for bit* to
a scalar dict-engine run; the golden suites
(``tests/property/test_compiled_equivalence``,
``test_fused_equivalence``) pin this with exact float equality:

* the predecessor reduction ``max(a, max(b, c))`` is exact and
  associative on floats, so it matches the engine's running ``max``;
* :func:`_first_min` takes the column minimum of ``(m, rows)`` and
  counts the leading processors strictly above it: the first minimal
  processor, i.e. the engine's first-idle, lowest-id
  ``min(range(m), key=...)`` tie-break, and its free time (the
  minimum itself) without a second gather;
* when an entry has no predecessors, ``ready`` aliases ``t_section``
  instead of copying it; both kernels only ever *rebind*
  ``t_section``, never mutate it in place;
* the fixed kernel batches ``actual / speed`` and the busy-energy
  product per section — identical elementwise operations, consumed
  row by row in entry order;
* a level switch is ``new_idx != si`` on level *indices*: the speed
  table's adjacent levels differ by more than the engine's ``1e-9``
  switch tolerance (a :class:`~repro.power.DiscretePowerModel`
  precondition), so index inequality is exactly the engine's
  ``abs(speed - s_cur) > 1e-9``, and the new index is stored
  unconditionally (an unchanged index rewrites itself);
* where the engine *skips* an accumulation (no speed-computation
  overhead, no switch), the dynamic kernel adds ``changed * x`` —
  an exact ``0.0`` for finite ``x`` — which is bit-identical on the
  non-negative accumulators involved.

**Fused sweeps.**  ``prog`` may be a
:class:`~repro.sim.sweepc.StackedProgram` covering several sweep
points at once; ``point_of`` is then the ``(n_runs,)`` point index of
every row of ``matrix``, and ``speed`` (fixed kernel) or the runs'
protocol attributes ``floor_const``/``floor_step`` (dynamic kernel)
may hold ``(n_points,)`` vectors.  Per-point constants are gathered
into each block, so every run computes with exactly its own point's
floats — fused outputs are bit-identical to evaluating the points one
program at a time.

**Errors.**  Invalid batches raise the engine's error classes and
messages, in *block* order (path groups in order, each group's blocks
in run order) rather than run order; within a block, an error names
the first violating row in scheme-major order, and a dynamic-kernel
error names that row's scheme.  The WCET guard runs once per block
over every computation entry on the path: an actual time is valid in
``[0, c * (1 + 1e-9)]`` (the guard products precomputed on the tape),
so a NaN, a negative or an over-WCET actual trips it.  On violation
the sections are re-scanned in path order, over ``matrix[idx]`` (built
only then), so the error names the first entry in path order with any
violating run, and the first violating run within the block.  Because
that check precedes the block's dispatch loop, a block holding both a
WCET violation and a guarantee violation reports the WCET error.
Realization sampling clips actuals into ``(0, WCET]``, so this
defensive path never fires on sampler-produced batches.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import DeadlineMissError, SimulationError, invalid_actual
from ...power.model import PowerModel
from ...power.overhead import OverheadModel
from .tape import build_tape

_EPS = 1e-9

#: most kernel rows one block of a path group holds (runs for the fixed
#: kernel, schemes × runs for the dynamic one)
BLOCK_ROWS = 16384


class FixedBatchResult:
    """Per-run outputs of one vectorized fixed-speed batch simulation."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: np.ndarray, n_speed_changes):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches per run (identical across runs for a fixed speed):
        #: an int, or an ``(n_points,)`` int array when the batch was a
        #: fused sweep with one fixed speed per point
        self.n_speed_changes = n_speed_changes


class DynamicBatchResult:
    """Per-run outputs of one scheme of a dynamic batch simulation."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: np.ndarray, n_speed_changes: np.ndarray):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches per run, as an int array (runs differ)
        self.n_speed_changes = n_speed_changes


def _gather(value, pt):
    """One block's values of a possibly per-point constant.

    Scalars pass through unchanged (the non-fused path, and stacked
    constants that every point agrees on — broadcasting then performs
    the exact scalar operation); a stacked ``(n_points,)`` vector is
    gathered by the block's per-run point indices ``pt``.
    """
    if isinstance(value, np.ndarray):
        return value.take(pt)
    return value


def _at(value, k):
    """Row ``k``'s value of a gathered constant, for error messages."""
    if isinstance(value, np.ndarray):
        return value[k]
    return value


def _scheme_rows(values, nb: int) -> np.ndarray:
    """One value per scheme (a scalar or an ``(nb,)`` per-run vector),
    laid out on the scheme-major row axis."""
    if not any(isinstance(v, np.ndarray) for v in values):
        return np.repeat(np.asarray(values, dtype=float), nb)
    return np.concatenate([np.broadcast_to(np.asarray(v, dtype=float),
                                           (nb,)) for v in values])


def _blocks(tape, groups, size: int):
    """Every path group in consecutive blocks of at most ``size`` runs:
    ``(path, idx, wcet)`` per block, ``wcet`` being the path's cached
    :meth:`~repro.sim.kernels.tape.ProgramTape.path_wcet` arrays."""
    for path, idx in groups:
        wcet = tape.path_wcet(path)
        for lo in range(0, idx.size, size):
            yield path, idx[lo:lo + size], wcet


def _first_min(pf: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per column of ``pf`` ``(m, ng)``: the index of the first minimal
    row and the minimum — ``(pf.argmin(axis=0), pf.min(axis=0))``.

    The index is the number of leading rows strictly above the column
    minimum, so ties go to the lowest row (the engine's first-idle,
    lowest-id processor).  Every operation is a contiguous row op, and
    the count runs in bytes (``int8`` for fewer than 128 rows).
    """
    m = pf.shape[0]
    mn = pf.min(axis=0)
    above = pf[0] > mn
    j = above.astype(np.int8 if m < 128 else np.intp)
    for r in range(1, m - 1):
        above &= pf[r] > mn
        j += above
    return j, mn


def _check_wcet(st, block: np.ndarray,
                c_all: Optional[np.ndarray]) -> None:
    """One whole-section WCET check over a block's ``(nb, n_tasks)``
    realization rows ``block``.

    An actual time is valid in ``[0, c * (1 + 1e-9)]``; the guard
    products are precomputed on the tape for the scalar case, so the
    comparisons are float-for-float the dict engine's.  On violation
    the raised error names the first entry in entry order with any
    invalid run and the first invalid run within the block, with the
    engine's message.
    """
    act = block[:, st.comp_cols]
    if c_all is not None:
        guard = c_all[st.comp_sel].T * (1 + 1e-9)
    else:
        guard = st.c_guard
    viol = ~((act >= 0.0) & (act <= guard))
    if viol.any():
        e_rel = int(np.nonzero(viol.any(axis=0))[0][0])
        e = int(st.comp_sel[e_rel])
        k = int(np.argmax(viol[:, e_rel]))
        c_g = c_all[e] if c_all is not None else st.c_list[e]
        raise invalid_actual(act[k, e_rel], st.names[e], _at(c_g, k))


def _path_block(flat: np.ndarray, n_cols: int, cols: np.ndarray,
                idx: np.ndarray) -> np.ndarray:
    """The ``(len(cols), nb)`` entries-major block of a block's
    realization columns, in one flat gather."""
    return flat.take(cols[:, None] + idx * n_cols)


def _precheck(tape, path, guard, g_pt, act_path: np.ndarray,
              matrix: np.ndarray, idx: np.ndarray,
              pt: Optional[np.ndarray]) -> None:
    """One WCET check for a whole block; on violation re-scan the
    sections in path order so the error names the first invalid entry
    (see the module docstring)."""
    if g_pt is not None and pt is not None:
        lim = g_pt.take(pt, axis=1) * (1 + 1e-9)
    else:
        lim = guard[:, None]
    if (act_path <= lim).all() and act_path.min() >= 0.0:
        return
    block = matrix[idx]
    for sid in path:
        st = tape.sections[sid]
        if st.comp_sel.size:
            c_all = (st.c_pt.take(pt, axis=1)
                     if st.c_pt is not None and pt is not None else None)
            _check_wcet(st, block, c_all)
    raise AssertionError(
        "path-level WCET check tripped but no section reproduced it")


def run_fixed_batch(prog, power: PowerModel,
                    overhead: OverheadModel, matrix: np.ndarray,
                    groups, speed, scheme: str,
                    check_deadline: bool = True,
                    point_of: Optional[np.ndarray] = None
                    ) -> FixedBatchResult:
    """Vectorized fixed-speed simulation of a whole realization batch.

    ``matrix`` is the ``(n_runs, n_tasks)`` actual-time matrix in
    program column order and ``groups`` the run grouping of
    :meth:`~repro.sim.compiled.CompiledPlan.executed_paths`.  Every
    per-run output is bit-identical to a scalar dict-engine simulation
    at ``speed``; for a fused sweep (``prog`` a stacked program,
    ``point_of`` its run→point index) ``speed`` may be an
    ``(n_points,)`` vector of per-point fixed speeds, and every derived
    preamble constant is computed with the same scalar formulas,
    selected per point.  See the module docstring for the layout,
    blocking, bit-identity, fused-sweep and error-selection contract.
    """
    tape = build_tape(prog)
    n, n_cols = matrix.shape
    flat = np.ascontiguousarray(matrix).reshape(-1)
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

    for path, idx, (cols, offs, guard, g_pt) in _blocks(tape, groups,
                                                        BLOCK_ROWS):
        ng = idx.size
        rows = np.arange(ng)
        pt = point_of.take(idx) if point_of is not None else None
        speed_g = _gather(speed, pt)
        p_busy_g = _gather(p_busy, pt)
        t0_g = _gather(t0, pt)
        dl_g = _gather(deadline, pt)
        ot_g = _gather(overhead_time, pt)
        eo_g = _gather(e_over, pt)
        fin = np.empty((prog.n_slots, ng))
        proc_free = np.empty(m * ng)
        pf = proc_free.reshape(m, ng)
        pf[:] = t0_g
        if isinstance(t0_g, np.ndarray):
            last_dispatch = t0_g.copy()
            t_section = t0_g.copy()
            t_end = t0_g.copy()
        else:
            last_dispatch = np.full(ng, t0_g)
            t_section = np.full(ng, t0_g)
            t_end = np.full(ng, t0_g)
        busy_time = np.zeros(ng)
        e_busy = np.zeros(ng)

        if cols.size:
            act_path = _path_block(flat, n_cols, cols, idx)
            _precheck(tape, path, guard, g_pt, act_path, matrix, idx, pt)

        for sec_i, sid in enumerate(path):
            st = tape.sections[sid]
            sec_max = None
            if st.comp_sel.size:
                # the section's rows of the path block (a view), its
                # wall-time division and busy-power product batched;
                # the dispatch loop below consumes them row by row in
                # entry order
                wall_all = act_path[offs[sec_i]:offs[sec_i + 1]] / speed_g
                e_all = wall_all * p_busy_g
            for is_and, gid, col, pred, crel in st.steps:
                if pred is None:
                    ready = t_section
                elif type(pred) is int:
                    ready = np.maximum(t_section, fin[pred])
                else:
                    ready = np.maximum(t_section, fin[pred].max(axis=0))
                if is_and:
                    fin[gid] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                j, free = _first_min(pf)
                t = np.maximum(np.maximum(ready, last_dispatch), free)
                last_dispatch = t
                wall = wall_all[crel]
                finish = np.add(t, wall, out=fin[gid])
                busy_time += wall
                e_busy += e_all[crel]
                fj = np.multiply(j, ng, dtype=np.intp)
                fj += rows
                proc_free[fj] = finish
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
            pf[:] = t_end

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

    return FixedBatchResult(scheme, total_energy, finish_time, n_changes)


# one errstate for the whole kernel instead of one context per entry
# (~1us each); it only silences divide/invalid *warnings* — the guarded
# np.where selections below are unchanged float for float
@np.errstate(divide="ignore", invalid="ignore")
def run_dynamic_batch(prog, power: PowerModel,
                      overhead: OverheadModel, matrix: np.ndarray,
                      groups, runs: Sequence, schemes: Sequence[str],
                      check_deadline: bool = True,
                      point_of: Optional[np.ndarray] = None
                      ) -> List[DynamicBatchResult]:
    """Vectorized simulation of several dynamic schemes over one batch.

    The dynamic counterpart of :func:`run_fixed_batch` for the schemes
    that :func:`~repro.sim.compiled.supports_dynamic_batch` accepts:
    ``runs[i]`` is scheme ``schemes[i]``'s protocol run, and the result
    is one :class:`DynamicBatchResult` per scheme, in request order.
    Every scheme sees the same realization rows, stacked on the row axis
    (see the module docstring).  Each processor's current speed is
    tracked as an *index* into the discrete level table, so the
    per-level speed-computation time and power draw become single
    gathers; the greedy required speed, the floor, the snap-up
    (``searchsorted`` with the same ``1e-12`` epsilon as
    ``DiscretePowerModel.snap_up``) and the switch bookkeeping are one
    NumPy operation each across a block.

    Each run is consulted only for its protocol attributes
    (``floor_const``/``floor_step``/``or_respec``) and is not mutated;
    for a fused sweep those attributes may hold ``(n_points,)``
    vectors, gathered per block like the program's per-entry constants
    and branch statistics.  See the module docstring for the layout,
    blocking, bit-identity, fused-sweep and error-selection contract.
    """
    n_s = len(runs)
    if not n_s:
        return []
    tape = build_tape(prog)
    n, n_cols = matrix.shape
    flat = np.ascontiguousarray(matrix).reshape(-1)
    m = prog.m
    deadline = prog.deadline
    s_max = power.s_max
    s_max_guard = s_max * (1 + 1e-6)

    speeds_arr = power.level_speed_table()
    n_lv = speeds_arr.size
    pow_arr = power.level_power_table()
    tc_arr = overhead.computation_time_table(power)
    # the speed-computation energy per level: the product the engine
    # forms, taken once per level instead of once per entry
    e_tc_arr = pow_arr * tc_arr
    adjust_time = overhead.adjust_time
    adj_energy = overhead.adjustment_energy(power)
    idle_power = power.idle_power

    # every scheme's floor as a (lo, hi, theta) step; a declared step
    # holds for the whole run, so only a constant floor re-speculates
    floors = [run.floor_step if run.floor_step is not None
              else (run.floor_const, run.floor_const, math.inf)
              for run in runs]
    has_step = any(run.floor_step is not None for run in runs)
    respec = [(s, run.or_respec) for s, run in enumerate(runs)
              if run.floor_step is None and run.or_respec is not None]

    total_energy = np.empty((n_s, n))
    finish_time = np.empty((n_s, n))
    n_changes = np.empty((n_s, n), dtype=np.int64)

    for path, idx, (cols, offs, guard, g_pt) in _blocks(
            tape, groups, max(1, BLOCK_ROWS // n_s)):
        nb = idx.size
        ng = n_s * nb
        rows = np.arange(ng)
        pt = point_of.take(idx) if point_of is not None else None
        pt_rows = np.tile(pt, n_s) if pt is not None else None
        f_lo = _scheme_rows([_gather(f[0], pt) for f in floors], nb)
        if has_step:
            f_hi = _scheme_rows([_gather(f[1], pt) for f in floors], nb)
            theta = _scheme_rows([_gather(f[2], pt) for f in floors], nb)
        dl_b = _gather(deadline, pt)
        dl_g = (np.tile(dl_b, n_s) if isinstance(dl_b, np.ndarray)
                else dl_b)
        fin = np.empty((prog.n_slots, ng))
        proc_free = np.zeros(m * ng)
        pf = proc_free.reshape(m, ng)
        proc_idx = np.full(m * ng, n_lv - 1, dtype=np.intp)
        last_dispatch = np.zeros(ng)
        t_section = np.zeros(ng)
        busy_time = np.zeros(ng)
        overhead_time = np.zeros(ng)
        e_busy = np.zeros(ng)
        e_over = np.zeros(ng)
        changes = np.zeros(ng, dtype=np.int64)
        t_end = np.zeros(ng)

        if cols.size:
            act_path = _path_block(flat, n_cols, cols, idx)
            _precheck(tape, path, guard, g_pt, act_path, matrix, idx, pt)
            if n_s > 1:
                act_path = np.tile(act_path, n_s)

        for pos, sid in enumerate(path):
            st = tape.sections[sid]
            stacked = st.c_pt is not None and pt is not None
            c_all = st.c_pt.take(pt_rows, axis=1) if stacked else None
            fb_all = st.fb_pt.take(pt_rows, axis=1) if stacked else None
            off = offs[pos]
            sec_max = None
            for e, (is_and, gid, col, pred, crel) in enumerate(st.steps):
                if pred is None:
                    ready = t_section
                elif type(pred) is int:
                    ready = np.maximum(t_section, fin[pred])
                else:
                    ready = np.maximum(t_section, fin[pred].max(axis=0))
                if is_and:
                    fin[gid] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                j, free = _first_min(pf)
                t = np.maximum(np.maximum(ready, last_dispatch), free)
                last_dispatch = t
                actual = act_path[off + crel]
                if stacked:
                    c_g = c_all[e]
                    fb_g = fb_all[e]
                else:
                    # an unstacked section's constants are always
                    # scalars (vectors force c_pt/fb_pt), so skip the
                    # _gather call
                    c_g = st.c_list[e]
                    fb_g = st.fb_list[e]

                fj = np.multiply(j, ng, dtype=np.intp)
                fj += rows
                si = proc_idx.take(fj)
                t_comp = tc_arr.take(si)
                avail = fb_g - t - t_comp
                denom = avail - adjust_time
                s_req = np.where(denom > 0, c_g / denom, math.inf)
                fl = np.where(t < theta, f_lo, f_hi) if has_step else f_lo
                target = np.maximum(s_req, fl)
                if target.max() > s_max_guard:
                    k = int(np.argmax(target > s_max_guard))
                    raise SimulationError(
                        f"guarantee violated for {st.names[e]!r}: required "
                        f"speed {target[k]:.6g} exceeds maximum "
                        f"(t={t[k]:.6g}, bound={_at(fb_g, k):.6g}) "
                        f"under scheme {schemes[k // nb]!r}")
                # the engine snaps min(target, s_max); a target in
                # (s_max, s_max_guard] already lands past the top level,
                # and the upper clamp maps it there.  searchsorted never
                # returns < 0, so clip(0, n_lv - 1) is exactly that
                # clamp — and np.minimum is a raw ufunc where np.clip is
                # a ~4us python wrapper
                new_idx = speeds_arr.searchsorted(target - 1e-12,
                                                  side="left")
                np.minimum(new_idx, n_lv - 1, out=new_idx)
                speed = speeds_arr.take(new_idx)
                # index inequality is the engine's 1e-9 speed test (the
                # level table's adjacent speeds are > 1e-9 apart)
                changed = new_idx != si
                t_adj = changed * adjust_time
                start_exec = t + t_comp + t_adj
                overhead_time += t_comp
                e_over += e_tc_arr.take(si)
                overhead_time += t_adj
                e_over += changed * adj_energy
                changes += changed
                proc_idx[fj] = new_idx

                wall = actual / speed
                finish = np.add(start_exec, wall, out=fin[gid])
                busy_time += wall
                e_busy += pow_arr.take(new_idx) * wall
                proc_free[fj] = finish
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
            pf[:] = t_end
            if respec and pos + 1 < len(path):
                # branch stats stay on the program (not the tape): the
                # respec floor is per OR firing, outside the entry loop
                worst, average = prog.sections[sid].branch_stats[
                    path[pos + 1]]
                for s, mode in respec:
                    sl = slice(s * nb, (s + 1) * nb)
                    work = _gather(average if mode == "average" else worst,
                                   pt)
                    horizon = dl_b - t_end[sl]
                    raw = work / horizon
                    want = np.minimum(raw, s_max)
                    snap_idx = speeds_arr.searchsorted(want - 1e-12,
                                                       side="left")
                    np.minimum(snap_idx, n_lv - 1, out=snap_idx)
                    f_lo[sl] = np.where(horizon > 0, speeds_arr[snap_idx],
                                        s_max)
                    if has_step:
                        f_hi[sl] = f_lo[sl]

        if check_deadline:
            late = t_end > dl_g * (1 + 1e-9) + _EPS
            if late.any():
                k = int(np.argmax(late))
                raise DeadlineMissError(float(t_end[k]),
                                        float(_at(dl_g, k)),
                                        scheme=schemes[k // nb])
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
                f"overhead={overhead_time[k]}, window={window[k]} "
                f"under scheme {schemes[k // nb]!r}")
        e_idle = idle_power * np.maximum(idle_time, 0.0)
        total_energy[:, idx] = (e_busy + e_idle + e_over).reshape(n_s, nb)
        finish_time[:, idx] = t_end.reshape(n_s, nb)
        n_changes[:, idx] = changes.reshape(n_s, nb)

    return [DynamicBatchResult(name, total_energy[s], finish_time[s],
                               n_changes[s])
            for s, name in enumerate(schemes)]
