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
runs, scheme ``s`` of run ``r`` is row ``s * nb + r``.  Each row's
current floor sits in one ``f_lo`` lane: a constant floor as declared,
re-speculated at each OR firing for a scheme with ``or_respec``
("average" or "worst"); SS2's declared step ``(lo, hi, θ)`` is
re-selected on its own rows at each dispatch (``lo`` before ``θ``,
``hi`` from then on).  The path block, the WCET check and the
per-point constant gathers run once per block for every scheme, and
each scheme's outputs come back as its own
:class:`BatchResult`, in request order.

**Row blocks.**  Both kernels split every path group into consecutive
blocks of at most :data:`BLOCK_ROWS` kernel rows — runs for the fixed
kernel, schemes × runs for the dynamic one — so the per-block buffers
stay bounded however large the batch or the scheme list is.  Every
row's computation depends on its own row only, so blocking changes no
float.  Blocks hold the runs of several sweep points at once.  The
block size is set by the threaded path, not by the cache: a dynamic
step is some 40 short NumPy calls, and two threads hand the GIL to
each other between them, so the longer each call runs the smaller the
share of a block spent waiting for it (see :data:`BLOCK_ROWS`).

Blocks are also the unit of in-process parallelism: a call with at
least :data:`THREAD_ROWS` kernel rows runs its dynamic-kernel blocks
(fixed kernel: its path groups, whose shared dispatch spans their
blocks) on one thread per core, each with its own block workspace and
the caller's ``np.errstate``.  Every unit reads and writes only its own
rows, so no float changes.  The tape and the path WCET arrays are built
in the calling thread first, and the thread pool is joined before the
call returns.  Inside a pool worker a call stays serial (see
:func:`_n_threads`).

**Entries-major layout.**  Every per-block buffer keeps the block's
rows on its *last* axis, so each per-entry read or write is a
contiguous row:

* the realization columns of a block are read with one flat gather,
  ``matrix.ravel().take(cols[:, None] + idx * n_cols)``, which yields
  the ``(n_cols, nb)`` block of exactly the path's computation-entry
  columns (never the full ``matrix[idx]`` row copy).  The dynamic
  kernel shares it between its schemes: the wall time divides a run's
  actual time by an ``(n_s, nb)`` view of the rows' speeds, a
  broadcast instead of a tiled copy of the block;
* the finishes buffer ``fin`` is ``(max_entries, rows)``, one row per
  entry of the section being run (the tape's section-local slots, so
  ``max_entries`` is the longest section, not the program's slot count):
  predecessor readiness is a row read (one ``np.maximum`` against the
  single predecessor) or a row gather + ``max(axis=0)`` for joins;
* the processor state ``proc_free`` (and the dynamic kernel's level
  index ``proc_idx``) is one flat ``(m * rows,)`` array, processor
  ``j`` of row ``r`` at ``j * rows + r``, viewed as ``(m, rows)`` for
  the minimum; a forced dispatch to processor ``k`` (below) reads and
  writes the contiguous slice ``k * rows:(k + 1) * rows``, any other
  dispatch a ``take`` and an index store on the flat index;
* a stacked section's per-point constants are gathered for *all*
  entries at once, per run (``fb_pt.take(pt, axis=1)``), and the
  dynamic kernel broadcasts them over the ``(n_s, nb)`` view of its
  rows; the WCETs are gathered only when they differ between points
  (the tape's ``c_vary``: never in a load sweep), else read as scalars.

**Bit-identity with the dict engine.**  Every float operation happens
in exactly the order of :func:`repro.sim.engine.simulate`, so each
per-run energy, finish time and switch count is equal *bit for bit* to
a scalar dict-engine run; the golden suites
(``tests/property/test_compiled_equivalence``,
``test_fused_equivalence``) pin this with exact float equality:

* the predecessor reduction ``max(a, max(b, c))`` is exact and
  associative on floats, so it matches the engine's running ``max``;
* every section starts with all ``m`` processors free at
  ``t_section`` (the protocol synchronizes them at each OR node), so
  its ``k``-th computation dispatch, ``k < m``, is *forced*: while
  every earlier finish in the section is strictly later than
  ``t_section``, processor ``k`` is the engine's first-idle, lowest-id
  choice and its free time is ``t_section <= ready``, so the start is
  ``max(ready, last_dispatch)`` with no search and no float change.
  A strictness guard, one ``(finish > t_section).all()`` after each
  forced dispatch, switches the rest of the section to
  :func:`_first_min` on a tie — a zero actual time with no overhead
  finishes *at* ``t_section`` and makes its processor first-idle
  again.  The guard matters in the dynamic kernel, where processor
  identity carries the current level: the wrong processor would change
  ``n_speed_changes``.  Both kernels use the same guarded rule.  It
  takes every row dispatch of Figure 5's program (m=6), 89.4% of
  Figure 4's, and 74% of Figure 6's and the online stream's (m=2);
* the processor free times are reset *lazily*: only :func:`_first_min`
  reads them, and a section that stays forced never calls it, so no
  section ends with an ``(m, rows)`` reset.  At the fallback, the
  processors the section has already dispatched to hold their
  finishes and the rest are set to ``t_section`` — exactly the free
  times an eager reset at the section start would give them;
* :func:`_first_min`, the general path, takes the column minimum of
  ``(m, rows)`` and counts the leading processors strictly above it:
  the first minimal processor, i.e. the engine's first-idle, lowest-id
  ``min(range(m), key=...)`` tie-break, and its free time (the
  minimum itself) without a second gather;
* when an entry has no predecessors, ``ready`` aliases ``t_section``
  instead of copying it; both kernels only ever *rebind*
  ``t_section``, never mutate it in place;
* the fixed kernel batches ``actual / speed`` and the busy-energy
  product per section — identical elementwise operations, consumed
  row by row in entry order;
* the required speed is ``c / denom``, overwritten with ``+inf`` on
  the rows where ``denom > 0`` fails — the engine's conditional,
  without a select over every row.  The chain from the available time
  to the target runs in place in one buffer (``denom > 0`` is taken
  before the division overwrites ``denom``), and the start time reuses
  the speed-computation time's buffer once the accumulators have read
  it: the same operations on the same operands;
* the snap-up counts the model's snap thresholds at or above the
  target (:meth:`~repro.power.DiscretePowerModel.snap_thresholds`:
  per level but the top one, the largest double ``x`` with
  ``x - 1e-12 <= level``), one broadcast compare and one byte-wide
  count.  The level index is ``n_lv - 1`` minus the count: exactly the
  left insertion point of ``target - 1e-12`` among every level but the
  top one (the engine's ``bisect_left``), for every double, ``±inf``
  included; a NaN lands on the top level, as a sorted search puts it.  A
  target past the top level (up to the guarantee check's ``1e-6``
  tolerance) lands on it with no clamp, as the engine's
  ``snap_up(min(target, s_max))`` does;
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
every run, and ``speed`` (fixed kernel) or the runs' protocol
attributes ``floor_const``/``floor_step`` (dynamic kernel) may hold
``(n_points,)`` vectors.  Per-point constants are gathered into each
block, so every run computes with exactly its own point's floats —
fused outputs are bit-identical to evaluating the points one program
at a time.

Points of one sweep often share their realizations (a load sweep
changes only the deadline), so a fused run axis need not own a matrix
row per run: with ``row_of``, run ``i`` reads its actual times from
``matrix[row_of[i]]``, the outputs cover the ``row_of.size`` runs, and
``groups`` and ``point_of`` index runs, not matrix rows.  Only the
path gather and the WCET precheck read the matrix, both through
``row_of.take(idx)``; since a run's outputs depend on its own row
only, the outputs equal those on ``matrix[row_of]`` bit for bit,
errors included.  ``row_of=None`` means run ``i`` is row ``i``.

**Destinations and finish times.**  With ``out``, the arrays to fill,
each block stores its rows straight into the caller's arrays, run
``i`` at ``out_row[i]`` (``out_row=None``: at ``i``), so a fused sweep
allocates each scheme's per-run arrays once over its whole run axis.
The ``int64`` switch counts land in a float destination exactly.  A
``None`` finish destination skips that store: only the online stream's
FIFO ledger reads finishes.  Without ``out`` the kernels return fresh
arrays.  No float changes either way; an error leaves the rows of
earlier blocks written, and on the threaded path rows of later blocks
too.  The dynamic kernel allocates its block
buffers (``fin``, ``proc_free``, ``proc_idx``) once per call, sized to
its largest block.

**Shared fixed dispatch.**  The fixed kernel's dispatch reads a run's
realization row and its point's speed, never the deadline: that enters
only the accounting after the section loop (the deadline check, the
idle window and the energy sum).  So :func:`run_fixed_batch` cuts each
path group at point boundaries and dispatches each distinct segment —
the same matrix rows in the same order, the same speed, the same
WCETs on the path — once; a later, duplicate segment reads that
dispatch's finish time, busy time and busy energy and runs only its own
point's accounting.  A load sweep's NPM call then dispatches one
point's runs instead of all of them, and its SPM call one point's runs
per distinct speed.  The group's blocks stay those of an unshared
call: each block dispatches its own first occurrences, in run order,
and then accounts for all of its runs, so a duplicate's deadline miss
is raised by the duplicate's own block, exactly where an unshared call
raises it.  Only a group longer than one block shares: in a single
block sharing cannot save a dispatch, only shrink one, and that was
measured to cost more than it saves.  Without ``row_of`` no two runs
share a row and every run is dispatched.

**Errors.**  Invalid batches raise the engine's error classes and
messages, in *block* order (path groups in order, each group's blocks
in run order) rather than run order — on the threaded path too, where
every unit runs and the first error in block order is raised once they
all finished; within a block, an error names
the first violating row in scheme-major order, and a dynamic-kernel
error names that row's scheme.  The WCET guard runs once per block
over every computation entry on the path: an actual time is valid in
``[0, c * (1 + 1e-9)]`` (the guard products precomputed on the tape),
so a NaN, a negative or an over-WCET actual trips it.  On violation
the sections are re-scanned in path order, over the block's matrix
rows (gathered only then), so the error names the first entry in path
order with any violating run, and the first violating run within the
block.  Because that check precedes the block's dispatch loop, a block
holding both a WCET violation and a guarantee violation reports the
WCET error.  With a shared fixed dispatch the check covers the
block's first occurrences: a duplicate's rows and WCETs are those of
an earlier run, checked in the same block or an earlier one, so the
raised error is still the unshared call's.
Realization sampling clips actuals into ``(0, WCET]``, so this
defensive path never fires on sampler-produced batches.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ... import obs
from ...cores import effective_cores
from ...errors import DeadlineMissError, SimulationError, invalid_actual
from ...power.model import PowerModel
from ...power.overhead import OverheadModel
from .tape import build_tape

_EPS = 1e-9

#: most kernel rows one block of a path group holds (runs for the fixed
#: kernel, schemes × runs for the dynamic one).  Longer blocks make each
#: NumPy call longer and cut the threads' waits for the GIL: on a 2-core
#: host the dynamic calls of a warm ``figure5`` at 50k runs took
#: 0.61-0.66 s at 16k rows, 0.49-0.55 s at 32k and 0.46-0.51 s at 64k,
#: but 64k added 24% to the process's peak memory (32k: 8%) and slowed
#: the fixed calls from 0.11-0.12 s to 0.17 s
BLOCK_ROWS = 32768

#: fewest kernel rows (runs for the fixed kernel, schemes × runs for the
#: dynamic one) a call needs before it runs its units on threads.  On a
#: 2-core host with 32k-row blocks, threading every call of a warm
#: ``figure5`` tied at 3k runs (dynamic calls of 108k rows; 3 of 6 pairs
#: won) and won at 10k (5 of 6, median -16%); threading its dynamic calls
#: only lost at 4k runs (144k rows; 2 of 8, +23%) and won narrowly at 5k
#: (180k rows; 6 of 8, -6%), so the break-even lies a little under this
#: threshold.  Figure 5's largest call at the paper's 1000 runs has 36k
THREAD_ROWS = 200_000


class BatchResult:
    """One scheme's per-run outputs of a batch simulation: the caller's
    destination arrays when it passed ``out`` (``finish_time`` is
    ``None`` if finishes were not stored), else fresh ones."""

    __slots__ = ("scheme", "total_energy", "finish_time", "n_speed_changes")

    def __init__(self, scheme: str, total_energy: np.ndarray,
                 finish_time: Optional[np.ndarray], n_speed_changes):
        self.scheme = scheme
        self.total_energy = total_energy
        self.finish_time = finish_time
        #: switches: per run for a dynamic scheme (``int64`` unless the
        #: caller supplied another destination); for a fixed speed one
        #: count for every run, an int or, in a fused sweep with one
        #: speed per point, an ``(n_points,)`` int array
        self.n_speed_changes = n_speed_changes


#: the fixed and the dynamic kernel return the same result type
FixedBatchResult = DynamicBatchResult = BatchResult


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


def _scheme_table(values) -> Tuple[np.ndarray, int]:
    """One value per scheme (a scalar or an ``(n_points,)`` per-point
    vector) as a flat scheme-major table and its per-scheme stride: the
    ``(n_s,)`` scalars with stride 0, or the ``(n_s * n_points,)``
    per-point values with stride ``n_points``."""
    sizes = [v.size for v in values if isinstance(v, np.ndarray)]
    if not sizes:
        return np.asarray(values, dtype=float), 0
    n_pts = max(sizes)
    return np.concatenate([np.broadcast_to(np.asarray(v, dtype=float),
                                           (n_pts,)) for v in values]), n_pts


def _scheme_rows(table: np.ndarray, stride: int, pt, nb: int) -> np.ndarray:
    """A :func:`_scheme_table` laid out on a block's scheme-major row
    axis (``pt`` the block's per-run point indices)."""
    if not stride:
        return np.repeat(table, nb)
    base = np.arange(0, table.size, stride)
    return table.take((base[:, None] + pt).reshape(-1))


def _blocks(tape, groups, size: int) -> list:
    """Every path group in consecutive blocks of at most ``size`` runs:
    ``(path, idx, wcet)`` per block, ``wcet`` being the path's cached
    :meth:`~repro.sim.kernels.tape.ProgramTape.path_wcet` arrays."""
    out = []
    for path, idx in groups:
        wcet = tape.path_wcet(path)
        out.extend((path, idx[lo:lo + size], wcet)
                   for lo in range(0, idx.size, size))
    return out


def _n_threads(rows: int, n_units: int) -> int:
    """Threads a kernel call runs its ``n_units`` independent units on.

    One below :data:`THREAD_ROWS` (smaller calls lose more to thread
    hand-off than the second core wins), for a single unit, and inside
    a pool worker, whose pool already occupies the cores; else one per
    :func:`~repro.cores.effective_cores`, at most one per unit.
    """
    if (rows < THREAD_ROWS or n_units < 2
            or multiprocessing.parent_process() is not None):
        return 1
    return min(effective_cores(), n_units)


def _run_units(units: Sequence, run: Callable, n_threads: int,
               workspace: Callable = lambda: None) -> None:
    """``run(todo, ws)`` over every unit, serially or on ``n_threads``
    threads: the calling thread and ``n_threads - 1`` helpers of a pool
    that is joined before this returns.

    ``run`` loops over the units ``todo`` yields.  Serially that is
    every unit, in order, and the first error propagates.  Threaded,
    each thread's ``todo`` yields the next unit not yet taken, ``run``
    gets the thread's own ``workspace()``, and the helpers run under
    the caller's :func:`numpy.errstate` (NumPy's error state is per
    thread).  Units write disjoint rows, so the order they run in
    changes no float; every unit runs, and the first error in unit
    order is raised — the error the serial loop would have stopped at.
    ``run`` loops rather than taking one unit per call because a unit's
    arrays then live until the next unit's replace them; with one call
    per block, ``figure5`` at 1000 runs made 4,200 minor page faults per
    call instead of 1,750.
    """
    if n_threads == 1:
        run(units, workspace())
        return
    err = np.geterr()
    todo = iter(enumerate(units))
    lock = threading.Lock()
    errors = [None] * len(units)

    def drain():
        taken = None  # the unit this thread runs

        def take():
            nonlocal taken
            while True:
                with lock:
                    taken, unit = next(todo, (None, None))
                if taken is None:
                    return
                yield unit

        ws = workspace()
        with np.errstate(**err):
            while True:
                try:
                    run(take(), ws)
                    return
                except Exception as exc:
                    errors[taken] = exc

    with ThreadPoolExecutor(n_threads - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(n_threads - 1)]
        drain()
    for helper in helpers:
        helper.result()
    for exc in errors:
        if exc is not None:
            raise exc


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


def _snap_up(snap_x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The level index each of ``target`` snaps up to, against a
    model's :meth:`~repro.power.DiscretePowerModel.snap_thresholds`
    ``snap_x``: the number of levels below the top minus the number of
    thresholds at or above the target — one broadcast compare and one
    byte-wide count, whatever the number of levels."""
    above = np.greater_equal(snap_x[:, None], target).view(np.uint8)
    count = np.add.reduce(above, axis=0,
                          dtype=np.uint8 if snap_x.size < 256 else np.intp)
    return np.subtract(snap_x.size, count, dtype=np.intp)


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
              matrix: np.ndarray, src: np.ndarray,
              pt: Optional[np.ndarray]) -> None:
    """One WCET check for a whole block, whose runs read matrix rows
    ``src``; on violation re-scan the sections in path order so the
    error names the first invalid entry (see the module docstring)."""
    if g_pt is not None and pt is not None:
        lim = g_pt.take(pt, axis=1) * (1 + 1e-9)
    else:
        lim = guard[:, None]
    if (act_path <= lim).all() and act_path.min() >= 0.0:
        return
    block = matrix[src]
    for sid in path:
        st = tape.sections[sid]
        if st.comp_sel.size:
            c_all = (st.c_pt.take(pt, axis=1)
                     if st.c_pt is not None and pt is not None else None)
            _check_wcet(st, block, c_all)
    raise AssertionError(
        "path-level WCET check tripped but no section reproduced it")


def _block_energy(m: int, idle_power: float, dl_g, t_end, busy_time,
                  over_time, e_busy, e_over, check_deadline: bool,
                  schemes: Sequence[str], nb: int, named: bool):
    """A block's per-row total energies once its last section ended: the
    deadline check, the idle window and the energy sum, in the engine's
    order.  Row ``k`` runs scheme ``schemes[k // nb]``; ``named`` adds
    it to the idle-time error, as the dynamic kernel's message does."""
    if check_deadline:
        late = t_end > dl_g * (1 + 1e-9) + _EPS
        if late.any():
            k = int(np.argmax(late))
            raise DeadlineMissError(float(t_end[k]), float(_at(dl_g, k)),
                                    scheme=schemes[k // nb])
    window = m * np.maximum(dl_g, t_end)
    idle_time = window - busy_time - over_time
    if isinstance(dl_g, np.ndarray):
        thresh = -1e-6 * np.where(dl_g > 1.0, dl_g, 1.0)
    else:
        thresh = -1e-6 * (dl_g if dl_g > 1.0 else 1.0)
    bad = idle_time < thresh
    if bad.any():
        k = int(np.argmax(bad))
        where = f" under scheme {schemes[k // nb]!r}" if named else ""
        raise SimulationError(
            f"negative idle time {idle_time[k]}: busy={busy_time[k]}, "
            f"overhead={_at(over_time, k)}, window={window[k]}{where}")
    return e_busy + idle_power * np.maximum(idle_time, 0.0) + e_over


def _shared_dispatch(pt: Optional[np.ndarray], src: np.ndarray, speed,
                     g_class: Optional[tuple]):
    """Which segments of a path group need their own fixed-speed
    dispatch.

    The fixed kernel's dispatch reads a run's realization row and its
    point's speed only; the deadline enters the accounting after it.  So
    the group is cut at point boundaries (``pt`` is the group's
    per-run point index, ``src`` its runs' matrix rows), and a segment
    whose rows equal an earlier segment's row for row, at the same
    speed and with the same per-point WCETs on the path (the same
    ``g_class`` of :meth:`~repro.sim.kernels.tape.ProgramTape.path_wcet`,
    so the WCET precheck agrees too), reuses that segment's dispatch.

    Returns ``None`` when every run needs its own dispatch, else one
    ``(lo, hi, at, own)`` per segment, in order: its runs are group
    positions ``[lo, hi)``, and their dispatches sit at ``[at, at + hi -
    lo)`` of a store that holds the segments with ``own`` set, one
    after another.  A duplicate (``own`` false) points at the store
    range of the segment it repeats.
    """
    if pt is None or pt.size < 2 or pt[0] == pt[-1]:
        return None
    bounds = [0] + (np.flatnonzero(pt[1:] != pt[:-1]) + 1).tolist() + \
        [pt.size]
    speeds = speed.tolist() if isinstance(speed, np.ndarray) else None
    seen = {}  # (length, first row, speed, WCET class) -> (lo, at)
    segments = []
    n_store = 0
    for lo, hi, head, p in zip(bounds[:-1], bounds[1:],
                               src.take(bounds[:-1]).tolist(),
                               pt.take(bounds[:-1]).tolist()):
        key = (hi - lo, head, speed if speeds is None else speeds[p],
               0 if g_class is None else g_class[p])
        hit = seen.get(key)
        if hit is not None and (src[lo:hi]
                                == src[hit[0]:hit[0] + hi - lo]).all():
            segments.append((lo, hi, hit[1], False))
            continue
        seen.setdefault(key, (lo, n_store))
        segments.append((lo, hi, n_store, True))
        n_store += hi - lo
    if n_store == pt.size:
        return None
    return segments


@obs.span("sim.kernels.fixed")
def run_fixed_batch(prog, power: PowerModel,
                    overhead: OverheadModel, matrix: np.ndarray,
                    groups, speed, scheme: str,
                    check_deadline: bool = True,
                    point_of: Optional[np.ndarray] = None,
                    row_of: Optional[np.ndarray] = None,
                    out: Optional[tuple] = None,
                    out_row: Optional[np.ndarray] = None
                    ) -> BatchResult:
    """Vectorized fixed-speed simulation of a whole realization batch.

    ``matrix`` is the ``(n_runs, n_tasks)`` actual-time matrix in
    program column order and ``groups`` the run grouping of
    :meth:`~repro.sim.compiled.CompiledPlan.executed_paths`.  Every
    per-run output is bit-identical to a scalar dict-engine simulation
    at ``speed``; for a fused sweep (``prog`` a stacked program,
    ``point_of`` its run→point index) ``speed`` may be an
    ``(n_points,)`` vector of per-point fixed speeds, and every derived
    preamble constant is computed with the same scalar formulas,
    selected per point; ``row_of`` maps each run to its ``matrix`` row
    when runs share rows.  ``out`` is an ``(energy, finish)`` pair of
    destination arrays (``finish`` may be ``None``) written through
    ``out_row``; without it fresh arrays over the runs are returned.
    See the module docstring for the layout, blocking, shared dispatch,
    bit-identity, fused-sweep, destination and error-selection contract.
    """
    tape = build_tape(prog)
    n, n_cols = matrix.shape
    if row_of is not None:
        n = row_of.size
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

    def dispatch(path, wcet, src, pt):
        """``(t_end, busy_time, e_busy)`` of the runs reading matrix
        rows ``src`` (point indices ``pt``) along ``path``."""
        cols, offs, guard, g_pt, _g_class = wcet
        ng = src.size
        speed_g = _gather(speed, pt)
        p_busy_g = _gather(p_busy, pt)
        t0_g = _gather(t0, pt)
        fin = np.empty((tape.max_entries, ng))
        # processor free times are written by each section's dispatches
        # and only read by _first_min, so a processor still untouched in
        # the current section is set to t_section at the fallback
        proc_free = np.empty(m * ng)
        pf = proc_free.reshape(m, ng)
        if isinstance(t0_g, np.ndarray):
            t_section = t0_g
        else:
            t_section = np.full(ng, t0_g)
        last_dispatch = t_end = t_section
        busy_time = np.zeros(ng)
        e_busy = np.zeros(ng)
        rows = None

        if cols.size:
            act_path = _path_block(flat, n_cols, cols, src)
            _precheck(tape, path, guard, g_pt, act_path, matrix, src, pt)

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
            n_forced = 0  # m once a tie turns the rule off
            for is_and, slot, col, pred, crel in st.steps:
                if pred is None:
                    ready = t_section
                elif type(pred) is int:
                    ready = np.maximum(t_section, fin[pred])
                else:
                    ready = np.maximum(t_section, fin[pred].max(axis=0))
                if is_and:
                    fin[slot] = ready
                    if sec_max is None:
                        sec_max = ready.copy()
                    else:
                        np.maximum(sec_max, ready, out=sec_max)
                    continue

                if n_forced < m:
                    # forced dispatch: processor n_forced is the first
                    # idle one, free at t_section <= ready (max drops it)
                    t = np.maximum(ready, last_dispatch)
                    fj = slice(n_forced * ng, (n_forced + 1) * ng)
                else:
                    if rows is None:
                        rows = np.arange(ng)
                    j, free = _first_min(pf)
                    t = np.maximum(np.maximum(ready, last_dispatch), free)
                    fj = np.multiply(j, ng, dtype=np.intp)
                    fj += rows
                last_dispatch = t
                wall = wall_all[crel]
                finish = np.add(t, wall, out=fin[slot])
                busy_time += wall
                e_busy += e_all[crel]
                proc_free[fj] = finish
                if n_forced < m:
                    # strictness guard: a finish tying t_section makes
                    # its processor first-idle again, so fall back; the
                    # processors not yet dispatched to are free at
                    # t_section
                    if (finish > t_section).all():
                        n_forced += 1
                    else:
                        pf[n_forced + 1:] = t_section
                        n_forced = m
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
        return t_end, busy_time, e_busy

    total_energy, finish_time = (np.empty(n), np.empty(n)) if out is None \
        else out

    def run_groups(todo, _ws):
        """The path groups ``todo`` yields, each block by block (its
        shared dispatch store spans its blocks)."""
        for path, idx, wcet in todo:
            pt_all = point_of.take(idx) if point_of is not None else None
            src_all = row_of.take(idx) if row_of is not None else idx
            # a group within one block is dispatched whole: sharing there
            # cannot save a block's dispatch, only shrink it, and on
            # Figure 5's ~1.5k-run groups at 1000 runs its bookkeeping cost
            # more than that saved
            segments = (_shared_dispatch(pt_all, src_all, speed, wcet[4])
                        if row_of is not None and idx.size > BLOCK_ROWS
                        else None)
            if segments is not None:
                store = np.empty((3, sum(hi - lo for lo, hi, _at, own
                                         in segments if own)))
            for lo in range(0, idx.size, BLOCK_ROWS):
                blk = slice(lo, lo + BLOCK_ROWS)
                pt = pt_all[blk] if pt_all is not None else None
                if segments is None:
                    t_end, busy_time, e_busy = dispatch(
                        path, wcet, src_all[blk], pt)
                else:
                    # the block's pieces of each segment; its own pieces are
                    # dispatched together, in run order (so the WCET check
                    # names the run an unshared block's check would), into
                    # one contiguous store range
                    hi = min(lo + BLOCK_ROWS, idx.size)
                    pieces = [(max(s_lo, lo), min(s_hi, hi), at - s_lo, is_own)
                              for s_lo, s_hi, at, is_own in segments
                              if s_lo < hi and s_hi > lo]
                    own = [(p0, p1, shift) for p0, p1, shift, is_own in pieces
                           if is_own]
                    if own:
                        sel = np.concatenate([np.arange(p0, p1)
                                              for p0, p1, _shift in own])
                        a = own[0][0] + own[0][2]
                        z = a + sel.size
                        store[0, a:z], store[1, a:z], store[2, a:z] = dispatch(
                            path, wcet, src_all.take(sel), pt_all.take(sel))
                    got = np.empty((3, hi - lo))
                    for p0, p1, shift, _is_own in pieces:
                        got[:, p0 - lo:p1 - lo] = \
                            store[:, p0 + shift:p1 + shift]
                    t_end, busy_time, e_busy = got

                energy = _block_energy(
                    m, idle_power, _gather(deadline, pt), t_end, busy_time,
                    _gather(overhead_time, pt), e_busy, _gather(e_over, pt),
                    check_deadline, (scheme,), t_end.size, False)
                dst = idx[blk] if out_row is None else out_row.take(idx[blk])
                total_energy[dst] = energy
                if finish_time is not None:
                    finish_time[dst] = t_end

    # the path WCETs are looked up (and cached) before any thread starts
    units = [(path, idx, tape.path_wcet(path)) for path, idx in groups]
    _run_units(units, run_groups, _n_threads(n, len(units)))

    return BatchResult(scheme, total_energy, finish_time, n_changes)


# one errstate for the whole kernel instead of one context per entry
# (~1us each); it only silences divide/invalid *warnings* — the guarded
# np.where selections below are unchanged float for float
@np.errstate(divide="ignore", invalid="ignore")
@obs.span("sim.kernels.dynamic")
def run_dynamic_batch(prog, power: PowerModel,
                      overhead: OverheadModel, matrix: np.ndarray,
                      groups, runs: Sequence, schemes: Sequence[str],
                      check_deadline: bool = True,
                      point_of: Optional[np.ndarray] = None,
                      row_of: Optional[np.ndarray] = None,
                      out: Optional[Sequence[tuple]] = None,
                      out_row: Optional[np.ndarray] = None
                      ) -> List[BatchResult]:
    """Vectorized simulation of several dynamic schemes over one batch.

    The dynamic counterpart of :func:`run_fixed_batch` for the schemes
    that :func:`~repro.sim.compiled.supports_dynamic_batch` accepts:
    ``runs[i]`` is scheme ``schemes[i]``'s protocol run, and the result
    is one :class:`BatchResult` per scheme, in request order.
    Every scheme sees the same realization rows, stacked on the row axis
    (see the module docstring).  Each processor's current speed is
    tracked as an *index* into the discrete level table, so the
    per-level speed-computation time and power draw become single
    gathers; the greedy required speed, the floor, the snap-up (a
    count of the model's snap thresholds, which carry the same
    ``1e-12`` epsilon as ``DiscretePowerModel.snap_up``) and the switch
    bookkeeping are a few NumPy operations each across a block.

    Each run is consulted only for its protocol attributes
    (``floor_const``/``floor_step``/``or_respec``) and is not mutated;
    for a fused sweep those attributes may hold ``(n_points,)``
    vectors, gathered per block like the program's per-entry constants
    and branch statistics, and ``row_of`` maps each run to its
    ``matrix`` row as in :func:`run_fixed_batch`.  ``out`` holds one
    ``(energy, finish, changes)`` destination per scheme (``finish``
    may be ``None``), written through ``out_row``; without it fresh
    arrays over the runs are returned, the switches as ``int64``.  See
    the module docstring for the layout, blocking, bit-identity,
    fused-sweep, destination and error-selection contract.
    """
    n_s = len(runs)
    if not n_s:
        return []
    tape = build_tape(prog)
    n, n_cols = matrix.shape
    if row_of is not None:
        n = row_of.size
    flat = np.ascontiguousarray(matrix).reshape(-1)
    m = prog.m
    deadline = prog.deadline
    s_max = power.s_max
    s_max_guard = s_max * (1 + 1e-6)

    speeds_arr = power.level_speed_table()
    # thresholds of every level but the top one: a target past the top
    # level counts none of them and lands on it with no clamp, as the
    # engine's snap_up(min(target, s_max)) does
    snap_x = power.snap_thresholds()
    pow_arr = power.level_power_table()
    tc_arr = overhead.computation_time_table(power)
    # the speed-computation energy per level: the product the engine
    # forms, taken once per level instead of once per entry
    e_tc_arr = pow_arr * tc_arr
    adjust_time = overhead.adjust_time
    adj_energy = overhead.adjustment_energy(power)
    idle_power = power.idle_power

    # every scheme's floor: f_lo holds it per row, a constant floor as
    # is and a declared step ``(lo, hi, theta)`` re-selected at each
    # dispatch; a step holds for the whole run, so only a constant
    # floor re-speculates
    floors = _scheme_table([run.floor_step[0] if run.floor_step is not None
                            else run.floor_const for run in runs])
    steps = [(s, run.floor_step) for s, run in enumerate(runs)
             if run.floor_step is not None]
    respec = [(s, run.or_respec) for s, run in enumerate(runs)
              if run.floor_step is None and run.or_respec is not None]

    if out is None:
        out = [(np.empty(n), np.empty(n), np.empty(n, dtype=np.int64))
               for _ in range(n_s)]

    # one workspace for every block a thread runs: each block overwrites
    # what it reads (proc_idx is refilled, proc_free reset lazily as
    # below)
    size = max(1, BLOCK_ROWS // n_s)
    cap = n_s * max((min(idx.size, size) for _path, idx in groups),
                    default=0)

    def workspace():
        return (np.empty(tape.max_entries * cap), np.empty(m * cap),
                np.empty(m * cap, dtype=np.intp))

    def run_blocks(todo, ws):
        fin_ws, pf_ws, pi_ws = ws
        for path, idx, (cols, offs, guard, g_pt, _g_class) in todo:
            nb = idx.size
            ng = n_s * nb
            rows = None  # built at the first _first_min dispatch
            pt = point_of.take(idx) if point_of is not None else None
            f_lo = _scheme_rows(*floors, pt, nb)
            step_rows = [(slice(s * nb, (s + 1) * nb), _gather(lo, pt),
                          _gather(hi, pt), _gather(theta, pt))
                         for s, (lo, hi, theta) in steps]
            dl_b = _gather(deadline, pt)
            dl_g = (np.tile(dl_b, n_s) if isinstance(dl_b, np.ndarray)
                    else dl_b)
            fin = fin_ws[:tape.max_entries * ng].reshape(tape.max_entries, ng)
            # reset lazily at a section's fallback, as in run_fixed_batch
            proc_free = pf_ws[:m * ng]
            pf = proc_free.reshape(m, ng)
            proc_idx = pi_ws[:m * ng]
            proc_idx.fill(speeds_arr.size - 1)
            # rebound, never written in place
            t_section = last_dispatch = t_end = np.zeros(ng)
            busy_time = np.zeros(ng)
            overhead_time = np.zeros(ng)
            e_busy = np.zeros(ng)
            e_over = np.zeros(ng)
            changes = np.zeros(ng, dtype=np.int64)

            if cols.size:
                # one (n_comp, nb) block shared by every scheme: the wall
                # time divides it by a (n_s, nb) view of the speeds
                src = row_of.take(idx) if row_of is not None else idx
                act_path = _path_block(flat, n_cols, cols, src)
                _precheck(tape, path, guard, g_pt, act_path, matrix, src, pt)

            for pos, sid in enumerate(path):
                st = tape.sections[sid]
                # per-point constants are gathered per run, not per row,
                # and broadcast over an (n_s, nb) view of the rows
                stacked = st.fb_pt is not None and pt is not None
                fb_all = st.fb_pt.take(pt, axis=1) if stacked else None
                c_vary = stacked and st.c_vary
                c_all = st.c_pt.take(pt, axis=1) if c_vary else None
                off = offs[pos]
                sec_max = None
                n_forced = 0  # m once a tie turns the rule off
                # an entry's slot is its position in the section
                for is_and, e, col, pred, crel in st.steps:
                    if pred is None:
                        ready = t_section
                    elif type(pred) is int:
                        ready = np.maximum(t_section, fin[pred])
                    else:
                        ready = np.maximum(t_section, fin[pred].max(axis=0))
                    if is_and:
                        fin[e] = ready
                        if sec_max is None:
                            sec_max = ready.copy()
                        else:
                            np.maximum(sec_max, ready, out=sec_max)
                        continue

                    if n_forced < m:
                        # forced dispatch (see run_fixed_batch); si is a
                        # view of proc_idx, read before the store below
                        t = np.maximum(ready, last_dispatch)
                        fj = slice(n_forced * ng, (n_forced + 1) * ng)
                        si = proc_idx[fj]
                    else:
                        if rows is None:
                            rows = np.arange(ng)
                        j, free = _first_min(pf)
                        t = np.maximum(np.maximum(ready, last_dispatch), free)
                        fj = np.multiply(j, ng, dtype=np.intp)
                        fj += rows
                        si = proc_idx.take(fj)
                    last_dispatch = t
                    actual = act_path[off + crel]
                    # a constant that is the same at every point is a
                    # scalar in c_list/fb_list (vectors force c_pt/fb_pt)
                    c_g = c_all[e] if c_vary else st.c_list[e]
                    fb_g = fb_all[e] if stacked else st.fb_list[e]

                    t_comp = tc_arr.take(si)
                    # avail -> denom -> s_req -> target, in one buffer
                    target = np.subtract(fb_g, t.reshape(n_s, nb)).reshape(ng)
                    target -= t_comp
                    target -= adjust_time
                    # s_req is c / denom where denom > 0, else +inf
                    ok = target > 0
                    np.divide(c_g, target.reshape(n_s, nb),
                              out=target.reshape(n_s, nb))
                    if not ok.all():
                        target[~ok] = math.inf
                    for sl, lo, hi, theta in step_rows:
                        f_lo[sl] = np.where(t[sl] < theta, lo, hi)
                    np.maximum(target, f_lo, out=target)
                    if target.max() > s_max_guard:
                        k = int(np.argmax(target > s_max_guard))
                        raise SimulationError(
                            f"guarantee violated for {st.names[e]!r}: "
                            f"required speed {target[k]:.6g} exceeds maximum "
                            f"(t={t[k]:.6g}, bound={_at(fb_g, k % nb):.6g}) "
                            f"under scheme {schemes[k // nb]!r}")
                    # a target in (s_max, s_max_guard] snaps to the top
                    # level, as the engine's min(target, s_max) does
                    new_idx = _snap_up(snap_x, target)
                    speed = speeds_arr.take(new_idx)
                    # index inequality is the engine's 1e-9 speed test (the
                    # level table's adjacent speeds are > 1e-9 apart)
                    changed = new_idx != si
                    overhead_time += t_comp
                    e_over += e_tc_arr.take(si)
                    t_adj = changed * adjust_time
                    overhead_time += t_adj
                    e_over += changed * adj_energy
                    changes += changed
                    proc_idx[fj] = new_idx
                    # t + t_comp + t_adj, in t_comp's buffer once read
                    start_exec = np.add(t, t_comp, out=t_comp)
                    start_exec += t_adj

                    wall = np.divide(actual, speed.reshape(n_s, nb),
                                     out=speed.reshape(n_s, nb)).reshape(ng)
                    finish = np.add(start_exec, wall, out=fin[e])
                    busy_time += wall
                    e_busy += pow_arr.take(new_idx) * wall
                    proc_free[fj] = finish
                    if n_forced < m:
                        # the guard matters here: processor identity carries
                        # its level, so a tie must go to the lowest id
                        if (finish > t_section).all():
                            n_forced += 1
                        else:
                            pf[n_forced + 1:] = t_section
                            n_forced = m
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
                        snap_idx = _snap_up(snap_x, want)
                        f_lo[sl] = np.where(horizon > 0, speeds_arr[snap_idx],
                                            s_max)

            energy = _block_energy(m, idle_power, dl_g, t_end, busy_time,
                                   overhead_time, e_busy, e_over,
                                   check_deadline, schemes, nb, True)
            dst = idx if out_row is None else out_row.take(idx)
            for s, (e_out, f_out, c_out) in enumerate(out):
                sl = slice(s * nb, (s + 1) * nb)
                e_out[dst] = energy[sl]
                if f_out is not None:
                    f_out[dst] = t_end[sl]
                c_out[dst] = changes[sl]

    # the path WCETs are looked up (and cached) before any thread starts
    blocks = _blocks(tape, groups, size)
    _run_units(blocks, run_blocks, _n_threads(n_s * n, len(blocks)),
               workspace)

    return [BatchResult(name, *o) for name, o in zip(schemes, out)]
