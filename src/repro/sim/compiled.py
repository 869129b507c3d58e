"""Compiled array kernel for the simulation inner loop.

:mod:`repro.sim.engine` interprets the dispatch protocol over
string-keyed dicts: every task pays ``graph.node(name)`` lookups,
``Dict[str, float]`` finish maps and per-run method dispatch.  A
Monte-Carlo evaluation replays the *same* plan structure thousands of
times, so this module compiles an :class:`~repro.offline.plan.OfflinePlan`
once into an integer-indexed **section program** and runs it with two
interchangeable kernels:

* :class:`CompiledKernel` — a scalar, allocation-free re-expression of
  the dispatch loop for one run: task attributes live in per-section
  flat tuples (WCET, finish bound, realization column), intra-section
  predecessors in a CSR-style id list, and the ``finishes``/
  ``proc_free`` buffers are preallocated and reused across runs.  Used
  by :func:`simulate_compiled` and, in batch evaluation, for any
  scheme the batch kernels cannot replay (ORACLE, custom policies).
* :func:`run_fixed_batch` / :func:`run_dynamic_batch` — the vectorized
  batch kernels, implemented once in :mod:`repro.sim.kernels.interp`
  over the program's lowered tape and re-exported here.  They evaluate
  NPM/SPM and GSS/SS1/SS2/AS/PS for an entire ``(n_runs, n_tasks)``
  realization matrix: runs are grouped by executed path and every
  dispatch step is one NumPy operation across a block of the group, so
  the per-run Python loop disappears.  The dynamic kernel takes every
  batchable scheme at once, stacked on the row axis.  NPM is the
  denominator of every normalized energy, so the fixed kernel touches
  every run.

Both batch kernels also accept a :class:`~repro.sim.sweepc.
StackedProgram` plus a ``point_of`` run→point index, executing a whole
*sweep* of structurally identical points as one fused
``(points × runs)`` batch (see :mod:`repro.sim.sweepc` and
:mod:`repro.experiments.fused`); per-point constants are gathered per
block, so fused outputs stay bit-identical to per-point runs.

**Bit-identity contract.**  Both kernels perform float operations in
exactly the order of :func:`repro.sim.engine.simulate` — the same
reductions, the same left-associated sums, the same tie-breaks
(``np.argmin`` returns the first minimal processor, matching
``min(range(m), key=...)``) — so energies, finish times, traces and
path keys are equal *bit for bit*, not merely approximately.  The
golden equivalence suite (``tests/property/test_compiled_equivalence``)
holds both kernels to exact float equality against the dict engine.

One intentional semantic difference: the compiled kernels prefetch the
actual execution times of a section (or the whole batch) up front, so a
hand-built :class:`~repro.sim.realization.Realization` missing a task's
actual time fails when the program is bound rather than at that task's
dispatch.  Sampled and worst-case realizations always carry every task.

The compiled program is cached on the plan instance
(``OfflinePlan.compiled``) next to the offline round-1 canonical-stage
cache; like that cache it is per-process and not thread-safe (the
library is process-parallel only).  The scratch buffers live on the
program, so two interleaved ``CompiledKernel.run`` calls on one program
would corrupt each other — the engine API is strictly run-to-completion.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import DeadlineMissError, SimulationError, invalid_actual
from ..offline.plan import OfflinePlan
from ..power.model import PowerModel
from ..power.overhead import OverheadModel
from ..types import EnergyBreakdown, SimResult, TaskRecord
from .kernels.interp import (  # noqa: F401  (re-exported)
    DynamicBatchResult,
    FixedBatchResult,
    run_dynamic_batch,
    run_fixed_batch,
)
from .realization import Realization, RealizationBatch

_EPS = 1e-9


class _CompiledSection:
    """One program section as flat arrays, ready for integer dispatch.

    ``entries`` holds one tuple per node in canonical dispatch order:
    ``(is_and, gid, col, wcet, finish_bound, name, preds)`` where
    ``gid`` is the node's slot in the global finishes buffer, ``col``
    its column in the realization matrix (-1 for AND nodes) and
    ``preds`` the finish-buffer slots of its intra-section predecessors
    (the CSR row for this node, stored as a tuple because rows are
    short and tuple iteration is the fastest scan in CPython).
    """

    __slots__ = ("sid", "entries", "exit_or", "branch_ids", "branch_set",
                 "forced_target", "branch_stats")

    def __init__(self, sid: int, entries, exit_or: Optional[str],
                 branch_ids: Tuple[int, ...],
                 branch_stats: Dict[int, Tuple[float, float]]):
        self.sid = sid
        self.entries = entries
        self.exit_or = exit_or
        self.branch_ids = branch_ids
        self.branch_set = frozenset(branch_ids)
        self.forced_target = branch_ids[0] if len(branch_ids) == 1 else None
        #: per successor section: ``(worst, average)`` remaining time at
        #: the exit OR, for vectorized AS/PS re-speculation
        self.branch_stats = branch_stats


class CompiledPlan:
    """The integer-indexed section program of one offline plan.

    Built once per plan by :func:`compile_plan`; holds no reference to
    the plan itself (the plan holds the program), pickles cleanly for
    the pool initializer, and carries the preallocated per-run scratch
    buffers the scalar kernel reuses.
    """

    def __init__(self, plan: OfflinePlan):
        graph = plan.app.graph
        structure = plan.structure
        self.m = plan.n_processors
        self.deadline = plan.app.deadline
        self.root_sid = structure.root_id

        #: computation tasks in realization-matrix column order
        self.comp_names: List[str] = [n.name
                                      for n in graph.computation_nodes()]
        col_of = {name: i for i, name in enumerate(self.comp_names)}

        gid_of: Dict[str, int] = {}
        self.sections: Dict[int, _CompiledSection] = {}
        for sid, sp in plan.sections.items():
            entries = []
            for name in sp.dispatch_order:
                gid_of[name] = len(gid_of)
            for name in sp.dispatch_order:
                node = graph.node(name)
                preds = tuple(gid_of[p] for p in sp.preds_within[name])
                if node.is_and:
                    entries.append((True, gid_of[name], -1, 0.0, 0.0,
                                    name, preds))
                else:
                    entries.append((False, gid_of[name], col_of[name],
                                    node.wcet, sp.finish_bound[name],
                                    name, preds))
            exit_or = structure.section(sid).exit_or
            branch_ids: Tuple[int, ...] = ()
            branch_stats: Dict[int, Tuple[float, float]] = {}
            if exit_or is not None:
                branch_ids = tuple(t for t, _p in structure.branches(exit_or))
                stats = plan.branch_stats.get(exit_or, {})
                branch_stats = {t: (ps.worst, ps.average)
                                for t, ps in stats.items()}
            self.sections[sid] = _CompiledSection(
                sid, tuple(entries), exit_or, branch_ids, branch_stats)

        self.n_slots = len(gid_of)
        #: the plan fingerprint this program was compiled from, stamped
        #: by :func:`compile_plan`; lets downstream caches (the stacked-
        #: program LRU in ``repro.sim.sweepc``) key on program identity
        #: without holding the plan
        self.fingerprint: Optional[tuple] = None
        # per-run scratch, reused across runs (single-threaded use only)
        self._fin: List[float] = [0.0] * self.n_slots
        self._proc_free: List[float] = [0.0] * self.m
        self._proc_speed: List[float] = [0.0] * self.m

    # -- realization binding ------------------------------------------------
    def actuals_row(self, realization: Realization) -> List[float]:
        """The realization's actual times as a column-ordered flat list."""
        actuals = realization.actuals
        row = []
        for name in self.comp_names:
            try:
                row.append(actuals[name])
            except KeyError:
                raise SimulationError(
                    f"realization has no actual time for task "
                    f"{name!r}") from None
        return row

    def realization_matrix(self, batch: RealizationBatch) -> np.ndarray:
        """The batch's actual-time matrix aligned to this program's columns."""
        if batch.names == self.comp_names:
            return batch.actuals
        cols = [batch.column_of(name) for name in self.comp_names]
        return batch.actuals[:, cols]

    # -- executed paths -----------------------------------------------------
    @obs.span("sim.compiled.executed_paths")
    def executed_paths(self, choices: Mapping[str, Sequence[int]], n: int,
                       keys: bool = True
                       ) -> Tuple[List[Tuple[Tuple[int, ...], np.ndarray]],
                                  Optional[List[str]]]:
        """Group ``n`` runs by the section path their OR choices select.

        ``choices`` maps each branching OR node to a length-``n``
        sequence of chosen section ids.  Returns ``(groups, keys)``:
        ``groups`` is a list of ``(path, run_indices)`` pairs in first-
        occurrence order and ``keys`` the per-run path key, formatted
        exactly like ``ExecutionPath.key()`` (``"0>2>5"``), or ``None``
        when ``keys`` is false (:func:`path_index` numbers the groups
        instead, without a string per run).

        The runs are partitioned with NumPy, one path prefix at a time:
        a prefix's run indices (ascending) split by the branch each run
        chose at the prefix's exit OR node.  A run with no choice, or
        with a choice off the node's branches, is an error; the error
        raised is the one of the lowest such run, as a run-by-run walk
        would find it first.
        """
        sections = self.sections
        picks: Dict[str, np.ndarray] = {}
        done = []
        error: Optional[Tuple[int, str]] = None
        stack = [((self.root_sid,), np.arange(n, dtype=np.intp))]
        while stack:
            path, runs = stack.pop()
            if not runs.size:
                continue
            sec = sections[path[-1]]
            if sec.exit_or is None or not sec.branch_ids:
                done.append((path, runs))
                continue
            if sec.forced_target is not None:
                stack.append((path + (sec.forced_target,), runs))
                continue
            seq = picks.get(sec.exit_or)
            if seq is None:
                if sec.exit_or not in choices:
                    found = (int(runs[0]),
                             f"realization has no branch choice for OR "
                             f"node {sec.exit_or!r}")
                    error = found if error is None else min(error, found)
                    continue
                seq = picks[sec.exit_or] = np.asarray(choices[sec.exit_or])
            got = seq[runs]
            ok = np.zeros(runs.size, dtype=bool)
            for target in sec.branch_ids:
                hit = got == target
                ok |= hit
                stack.append((path + (target,), runs[hit]))
            if not ok.all():
                k = int(np.argmin(ok))
                found = (int(runs[k]),
                         f"realization chose section {got[k].item()} at "
                         f"{sec.exit_or!r}, not a successor path")
                error = found if error is None else min(error, found)
        if error is not None:
            raise SimulationError(error[1])
        done.sort(key=lambda g: int(g[1][0]))
        if not keys:
            return done, None
        key_of = np.empty(n, dtype=object)
        for path, runs in done:
            key_of[runs] = path_key(path)
        return done, key_of.tolist()


def path_key(path: Sequence[int]) -> str:
    """A section path's key, formatted like ``ExecutionPath.key()``."""
    return ">".join(str(s) for s in path)


def path_index(groups: Sequence[Tuple[Tuple[int, ...], np.ndarray]],
               n: int) -> Tuple[np.ndarray, List[str]]:
    """:meth:`CompiledPlan.executed_paths` groups as ``(int32 ids,
    table)``: run ``i`` took path ``table[ids[i]]``, the table in the
    groups' first-occurrence order."""
    ids = np.empty(n, dtype=np.int32)
    for g, (_path, runs) in enumerate(groups):
        ids[runs] = g
    return ids, [path_key(path) for path, _runs in groups]


#: cross-instance program cache keyed by plan *fingerprint* (graph,
#: deadline, m, reserve, heuristic): long-lived sweep workers rebuild
#: plan objects per evaluation, but two builds with equal inputs yield
#: equal plans, so the program compiles once per worker, not once per
#: point.  Per-process, bounded LRU, like the offline round-1 cache.
_PROGRAM_CACHE: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
_PROGRAM_CACHE_MAX = 32
_program_cache_hits = 0
_program_cache_misses = 0


def program_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of this process's program cache."""
    return {"hits": _program_cache_hits, "misses": _program_cache_misses,
            "size": len(_PROGRAM_CACHE)}


obs.watch("sim.compiled.program_cache", program_cache_stats)


def clear_program_cache() -> None:
    """Drop every cached program and reset the hit/miss counters
    (tests and memory-pressure escape hatch)."""
    global _program_cache_hits, _program_cache_misses
    _PROGRAM_CACHE.clear()
    _program_cache_hits = 0
    _program_cache_misses = 0


@obs.span("sim.compiled.compile_plan")
def compile_plan(plan: OfflinePlan) -> CompiledPlan:
    """The plan's section program, compiled once and cached.

    Two caches compose here: the instance slot (``plan.compiled``)
    makes repeat calls on one plan free, and the fingerprint-keyed LRU
    makes repeat compilations of *equal* plans (rebuilt instances in a
    pool worker) a lookup instead of a compile.  A program only reads
    the plan it was compiled from, so sharing across equal plans cannot
    leak state — the scratch-buffer caveat in the module docstring is
    unchanged (strictly run-to-completion, per process).
    """
    global _program_cache_hits, _program_cache_misses
    prog = plan.compiled
    if prog is not None:
        return prog
    key = plan.fingerprint()
    prog = _PROGRAM_CACHE.get(key)
    if prog is not None:
        _program_cache_hits += 1
        _PROGRAM_CACHE.move_to_end(key)
    else:
        _program_cache_misses += 1
        prog = CompiledPlan(plan)
        prog.fingerprint = key
        _PROGRAM_CACHE[key] = prog
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.popitem(last=False)
    plan.compiled = prog
    return prog


class CompiledKernel:
    """Scalar compiled dispatch loop for one (program, power, overhead).

    Mirrors :func:`repro.sim.engine.simulate` operation for operation;
    the constructor hoists everything that is constant across runs
    (speed-computation times per level, the switch energy) so the
    per-run loop touches only flat lists and local floats.
    """

    def __init__(self, prog: CompiledPlan, power: PowerModel,
                 overhead: OverheadModel):
        self.prog = prog
        self.power = power
        self.overhead = overhead
        self._adj_energy = overhead.adjustment_energy(power)
        self._tcomp: Dict[float, float] = {}
        # discrete models expose their level table and power-by-level
        # dict; binding them here lets the hot loop skip the snap_up /
        # power() method calls (identical values, same bisect epsilons)
        self._speeds: Optional[List[float]] = getattr(power, "_speeds",
                                                      None)
        pbs = getattr(power, "_power_by_speed", None)
        self._pget = pbs.get if pbs is not None else None

    def run(self, policy_run, actuals: Sequence[float],
            choices: Mapping[str, int],
            collect_trace: bool = False,
            check_deadline: bool = True) -> SimResult:
        """Simulate one run; drop-in equal to the dict engine's result.

        ``actuals`` is the realization's actual-time row in program
        column order (see :meth:`CompiledPlan.actuals_row`); ``choices``
        maps fired OR nodes to chosen section ids.
        """
        prog = self.prog
        power = self.power
        overhead = self.overhead
        m = prog.m
        deadline = prog.deadline
        s_max = power.s_max
        s_max_guard = s_max * (1 + 1e-6)
        snap_up = power.snap_up
        power_of = power.power
        speeds = self._speeds
        pget = self._pget
        tcomp = self._tcomp
        comp_time = overhead.computation_time
        adjust_time = overhead.adjust_time
        adj_energy = self._adj_energy
        sections = prog.sections
        fin = prog._fin
        proc_free = prog._proc_free
        proc_speed = prog._proc_speed
        floor = policy_run.floor
        fc = policy_run.floor_const
        fixed = policy_run.fixed_speed

        busy_time = 0.0
        overhead_time = 0.0
        e_busy = 0.0
        e_over = 0.0
        n_changes = 0
        n_tasks = 0
        trace: List[TaskRecord] = []
        path_choices: Dict[str, str] = {}

        t_section = 0.0
        speed0 = s_max
        if fixed is not None and abs(fixed - s_max) > _EPS:
            # SPM-style synchronized switch on every processor up front
            t_section = adjust_time
            overhead_time += m * adjust_time
            e_over += m * adj_energy
            n_changes += m
            speed0 = fixed
        for j in range(m):
            proc_free[j] = t_section
            proc_speed[j] = speed0

        last_dispatch = t_section
        sid = prog.root_sid
        t_end = t_section

        while True:
            sec = sections[sid]
            sec_max = None
            for is_and, gid, col, c, fb, name, preds in sec.entries:
                ready = t_section
                for p in preds:
                    f = fin[p]
                    if f > ready:
                        ready = f
                if is_and:
                    fin[gid] = ready
                    if sec_max is None or ready > sec_max:
                        sec_max = ready
                    continue

                j = 0
                pf = proc_free[0]
                for jj in range(1, m):
                    v = proc_free[jj]
                    if v < pf:
                        pf = v
                        j = jj
                t = ready
                if last_dispatch > t:
                    t = last_dispatch
                if pf > t:
                    t = pf
                last_dispatch = t
                actual = actuals[col]
                if not 0.0 <= actual <= c * (1 + 1e-9):
                    raise invalid_actual(actual, name, c)

                if fixed is not None:
                    speed = fixed
                    start_exec = t
                    changed = False
                else:
                    s_cur = proc_speed[j]
                    t_comp = tcomp.get(s_cur)
                    if t_comp is None:
                        t_comp = comp_time(power, s_cur)
                        tcomp[s_cur] = t_comp
                    avail = fb - t - t_comp
                    denom = avail - adjust_time
                    s_req = c / denom if denom > 0 else math.inf
                    fl = fc if fc is not None else floor(t)
                    target = fl if fl > s_req else s_req
                    if target > s_max_guard:
                        raise SimulationError(
                            f"guarantee violated for {name!r}: required "
                            f"speed {target:.6g} exceeds maximum "
                            f"(t={t:.6g}, bound={fb:.6g})")
                    want = s_max if s_max < target else target
                    if speeds is None:
                        speed = snap_up(want)
                    elif want <= speeds[0]:
                        speed = speeds[0]
                    elif want >= speeds[-1] - 1e-12:
                        speed = speeds[-1]
                    else:
                        speed = speeds[bisect_left(speeds, want - 1e-12)]
                    changed = abs(speed - s_cur) > _EPS
                    t_adj = adjust_time if changed else 0.0
                    start_exec = t + t_comp + t_adj
                    if t_comp > 0:
                        overhead_time += t_comp
                        p = pget(s_cur) if pget is not None else None
                        if p is None:
                            p = power_of(s_cur)
                        e_over += p * t_comp
                    if changed:
                        overhead_time += t_adj
                        e_over += adj_energy
                        n_changes += 1
                        proc_speed[j] = speed

                wall = actual / speed
                finish = start_exec + wall
                busy_time += wall
                p = pget(speed) if pget is not None else None
                if p is None:
                    p = power_of(speed)
                e_task = p * wall
                e_busy += e_task
                proc_free[j] = finish
                fin[gid] = finish
                n_tasks += 1
                if sec_max is None or finish > sec_max:
                    sec_max = finish
                if collect_trace:
                    trace.append(TaskRecord(
                        name=name, processor=j, start=start_exec,
                        finish=finish, speed=speed, actual_cycles=actual,
                        energy=e_task, speed_changed=changed))

            if sec_max is None:
                t_end = t_section
            else:
                t_end = t_section if t_section > sec_max else sec_max

            exit_or = sec.exit_or
            if exit_or is None:
                break
            if not sec.branch_ids:
                break  # terminal merge OR: the application ends here
            if sec.forced_target is not None:
                target_sid = sec.forced_target
            else:
                try:
                    target_sid = choices[exit_or]
                except KeyError:
                    raise SimulationError(
                        f"realization has no branch choice for OR node "
                        f"{exit_or!r}") from None
            if target_sid not in sec.branch_set:
                raise SimulationError(
                    f"realization chose section {target_sid} at "
                    f"{exit_or!r}, not a successor path")
            path_choices[exit_or] = str(target_sid)
            # all processors synchronize at the OR node before continuing
            t_section = t_end
            last_dispatch = t_end
            for j in range(m):
                proc_free[j] = t_end
            if fixed is None:
                policy_run.on_or_fired(exit_or, target_sid, t_end)
                fc = policy_run.floor_const  # AS/PS re-speculate here
            sid = target_sid

        finish_time = t_end
        if check_deadline and finish_time > deadline * (1 + 1e-9) + _EPS:
            raise DeadlineMissError(finish_time, deadline,
                                    scheme=policy_run.name)

        window = m * (finish_time if finish_time > deadline else deadline)
        idle_time = window - busy_time - overhead_time
        if idle_time < -1e-6 * (deadline if deadline > 1.0 else 1.0):
            raise SimulationError(
                f"negative idle time {idle_time}: busy={busy_time}, "
                f"overhead={overhead_time}, window={window}")
        e_idle = power.idle_energy(0.0 if 0.0 > idle_time else idle_time)

        return SimResult(
            scheme=policy_run.name,
            finish_time=finish_time,
            deadline=deadline,
            energy=EnergyBreakdown(busy=e_busy, idle=e_idle,
                                   overhead=e_over),
            n_speed_changes=n_changes,
            n_tasks_run=n_tasks,
            trace=trace,
            path_choices=path_choices,
        )


def simulate_compiled(plan: OfflinePlan, policy_run, power: PowerModel,
                      overhead: OverheadModel, realization: Realization,
                      collect_trace: bool = False,
                      check_deadline: bool = True) -> SimResult:
    """Drop-in replacement for :func:`repro.sim.engine.simulate`.

    Compiles (or reuses) the plan's section program and runs the scalar
    compiled kernel on one realization.  Results are bit-identical to
    the dict engine's.  A per-run call reads the plan's own program
    slot, so only the first call on a plan takes a compile span.
    """
    prog = plan.compiled if plan.compiled is not None else compile_plan(plan)
    kernel = CompiledKernel(prog, power, overhead)
    return kernel.run(policy_run, prog.actuals_row(realization),
                      realization.choices, collect_trace=collect_trace,
                      check_deadline=check_deadline)


def supports_dynamic_batch(policy_run, power: PowerModel) -> bool:
    """Whether :func:`run_dynamic_batch` can replay ``policy_run`` exactly.

    Requires a discrete power model (the vector snap-up indexes its
    level table) and a run whose behaviour is fully declared by the
    :class:`~repro.core.base.PolicyRun` protocol attributes: a dynamic
    speed, a floor that is either a constant (``floor_const``), a single
    step (``floor_step``) or an OR-respeculated constant (``or_respec``)
    — i.e. GSS, SS1, SS2, AS and PS.  A subclass that overrides
    ``on_or_fired`` without declaring ``or_respec`` falls back to the
    scalar kernel.
    """
    from ..core.base import PolicyRun  # local import breaks the cycle
    if getattr(power, "_speeds", None) is None:
        return False
    if policy_run.fixed_speed is not None:
        return False
    if policy_run.floor_const is None and policy_run.floor_step is None:
        return False
    if (type(policy_run).on_or_fired is not PolicyRun.on_or_fired
            and policy_run.or_respec not in ("average", "worst")):
        return False
    return True
