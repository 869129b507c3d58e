"""Fused sweep evaluation: one array program over ``points × runs``.

``BENCH_engine.json`` recorded the motivating regression: with the
compiled kernels a Monte-Carlo run costs tens of microseconds, so
process-pool chunking of runs *within* one point is ~9× slower than
serial — the pool's transport and scheduling dominate.  The profitable
axis is the opposite one: amortize the *per-point* kernel invocations.

:func:`evaluate_points_fused` takes a whole sweep (several applications,
one config each), stacks their compiled section programs into one
:class:`~repro.sim.sweepc.StackedProgram` (when the points are
structurally homogeneous — load and α sweeps are), samples every
point's realization batch from its own seed exactly as
:func:`~repro.experiments.runner.evaluate_application` would, and runs
the batch kernels once over the fused run axis with a ``point_of``
gather index.  The result list is sliced back per point, so callers —
and the per-point evaluation cache — see ordinary
:class:`~repro.experiments.runner.EvaluationResult`\\ s.

**Sharded execution.**  The fused pass itself is embarrassingly
parallel along the run axis: every run's outputs are elementwise in its
own realization row.  With ``shards=N`` (``RunConfig.shards``, CLI
``--shards``, or the ``REPRO_SHARDS`` session default) the run axis is
partitioned by :func:`~repro.sim.sweepc.plan_shards` into deterministic
ranges and each shard executes the same stacked program over its row
slice as an independent :class:`ShardTask` on the persistent local
worker pool, inheriting the retry/degrade semantics of
:meth:`~repro.experiments.engine.ExecutionContext.map`.  Seed alignment
makes this exact, not approximate: a shard samples each point's *full*
realization batch from the config seed and slices its row range, so it
sees bit-for-bit the rows the monolithic pass would have, and the
parent reduces shard blocks back by concatenation in shard-index order
(fixed accumulation order).  Sharded output is therefore byte-identical
to the unsharded fused reference — pinned by the golden suites.

Returns ``None`` whenever fusion does not apply (heterogeneous configs,
incompatible graph structure, a non-"compiled" engine); the caller
falls back to per-point evaluation, pooled at the point level.  Every
fused output is bit-identical to the per-point path — and therefore to
the serial dict engine — which ``tests/property/test_fused_equivalence``
pins exactly.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.registry import get_policy
from ..errors import ConfigError, FaultInjected, ParallelError, TransportError
from ..graph.andor import Application
from ..power.overhead import NO_OVERHEAD
from ..sim.compiled import (CompiledKernel, compile_plan, run_dynamic_batch,
                            run_fixed_batch, supports_dynamic_batch)
from ..sim.realization import sample_realization_batch
from ..sim.sweepc import (StackedProgram, _stack_values, fused_bytes_estimate,
                          plan_shards, programs_compatible, stack_programs)
from . import faults
from .engine import (SHARD_SHM_MIN_BYTES, ExecutionContext,
                     effective_cores, publish_shard_block)
from .runner import EvaluationResult, RunConfig, build_plans

#: session default consulted when ``RunConfig.shards`` is None, seeded
#: from ``REPRO_SHARDS`` (module attribute so tests can monkeypatch it;
#: read via :func:`default_shards` at call time).  ``None`` = unsharded
#: monolithic execution, ``0`` = auto (cores + memory budget), ``N`` =
#: exactly N shards.
DEFAULT_SHARDS = os.environ.get("REPRO_SHARDS")


def default_shards() -> Optional[int]:
    """The session-default shard request (env/monkeypatch, call time)."""
    raw = DEFAULT_SHARDS
    if raw in (None, ""):
        return None
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"REPRO_SHARDS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"REPRO_SHARDS must be >= 0, got {value}")
    return value


#: observability snapshot of the most recent fused pass in this process
#: (shard count, run ranges, transport); popped by the sweep layer into
#: ``series.meta["fused"]`` via :func:`take_fused_meta`
_LAST_FUSED: Optional[Dict[str, object]] = None


def take_fused_meta() -> Optional[Dict[str, object]]:
    """Pop the most recent fused pass's meta (``None`` if none ran)."""
    global _LAST_FUSED
    out = _LAST_FUSED
    _LAST_FUSED = None
    return out


class _FusedRunSpec:
    """A duck-typed PolicyRun whose protocol attributes are per-point.

    :func:`~repro.sim.compiled.run_dynamic_batch` consults only the
    declared protocol attributes (``floor_const``/``floor_step``/
    ``or_respec``) and never mutates the run, so a plain object carrying
    stacked values replays every point's probe exactly.
    """

    fixed_speed = None

    def __init__(self, name, floor_const, floor_step, or_respec):
        self.name = name
        self.floor_const = floor_const
        self.floor_step = floor_step
        self.or_respec = or_respec


class _View:
    """One (possibly stacked) program plus the per-point data aligned to
    its rows.

    The static view covers every run; the dynamic view may cover a
    subset (points whose dynamic plan exists), with ``rows`` mapping
    its run axis back into the full one (``None``: every run).
    """

    __slots__ = ("prog", "plans", "progs", "batches", "matrix", "groups",
                 "point_of", "offsets", "rows")

    def __init__(self, prog, plans, progs, batches, matrix, groups,
                 point_of, offsets, rows):
        self.prog = prog
        self.plans = plans
        self.progs = progs
        self.batches = batches
        self.matrix = matrix
        self.groups = groups
        self.point_of = point_of
        self.offsets = offsets
        self.rows = rows


class _FusedBuild:
    """The structural half of a fused sweep: plans, programs, stacks.

    Built once in the parent (and rebuilt deterministically inside each
    shard worker, where the per-process plan/program/stacked caches make
    it nearly free); holds everything that does not depend on sampled
    runs, so the sampling/execution half can be invoked per run-range.
    A one-point build (:func:`evaluate_batch`) holds the plain compiled
    programs in place of the stacks.
    """

    __slots__ = ("base", "power", "overhead", "scheme_names", "plans", "static_plans", "static_progs", "stacked_static",
                 "dyn_points", "dyn_plans", "dyn_progs", "stacked_dyn")

    def __init__(self, base, power, overhead, scheme_names, plans,
                 static_plans, static_progs, stacked_static, dyn_points,
                 dyn_plans, dyn_progs, stacked_dyn):
        self.base = base
        self.power = power
        self.overhead = overhead
        self.scheme_names = scheme_names
        self.plans = plans
        self.static_plans = static_plans
        self.static_progs = static_progs
        self.stacked_static = stacked_static
        self.dyn_points = dyn_points
        self.dyn_plans = dyn_plans
        self.dyn_progs = dyn_progs
        self.stacked_dyn = stacked_dyn


def _configs_fusable(configs: Sequence[RunConfig]) -> bool:
    """Whether every point shares the knobs a fused kernel hard-codes."""
    base = configs[0]
    if base.engine != "compiled":
        return False
    base_schemes = tuple(get_policy(n).name for n in base.schemes)
    for cfg in configs[1:]:
        if (cfg.engine != base.engine
                or cfg.power_model != base.power_model
                or cfg.idle_fraction != base.idle_fraction
                or cfg.overhead != base.overhead
                or cfg.n_processors != base.n_processors
                or cfg.heuristic != base.heuristic):
            return False
        if tuple(get_policy(n).name for n in cfg.schemes) != base_schemes:
            return False
    return True


def _build_fused(apps: Sequence[Application],
                 configs: Sequence[RunConfig]) -> Optional[_FusedBuild]:
    """Compile and stack a sweep's section programs, or ``None``.

    ``None`` means the points do not share executable structure (or the
    engine is not "compiled"); the caller falls back to per-point
    evaluation.  Bails at the first structural mismatch — cheap for
    heterogeneous app sets, since plan construction is itself cached by
    fingerprint.
    """
    base = configs[0]
    power = base.make_power()
    overhead = base.overhead
    scheme_names = tuple(get_policy(n).name for n in base.schemes)

    plans = []
    static_progs = []
    for app, cfg in zip(apps, configs):
        plan_dyn, plan_static = build_plans(app, cfg, power)
        prog = compile_plan(plan_static)
        if static_progs and not programs_compatible(static_progs[0], prog):
            return None
        plans.append((plan_dyn, plan_static))
        static_progs.append(prog)
    static_plans = [ps for _pd, ps in plans]
    stacked_static = stack_programs(static_progs)
    if stacked_static is None:
        return None

    dyn_points = [i for i, (pd, _ps) in enumerate(plans) if pd is not None]
    dyn_plans = [plans[i][0] for i in dyn_points]
    stacked_dyn: Optional[StackedProgram] = None
    dyn_progs: List = []
    if dyn_points:
        dyn_progs = [compile_plan(p) for p in dyn_plans]
        stacked_dyn = stack_programs(dyn_progs)
        if stacked_dyn is None:
            return None
    return _FusedBuild(base, power, overhead, scheme_names, plans,
                       static_plans, static_progs, stacked_static,
                       dyn_points, dyn_plans, dyn_progs, stacked_dyn)


def _stack_probes(name: str, probes) -> Optional[_FusedRunSpec]:
    """Stack per-point dynamic probes into one fused run spec, or ``None``.

    The probes must agree on *which* protocol attributes they declare
    (all-constant floor, all-step floor, same ``or_respec``); the
    declared float values may differ per point and are stacked.
    """
    respec = probes[0].or_respec
    if any(p.or_respec != respec for p in probes[1:]):
        return None
    consts = [p.floor_const for p in probes]
    steps = [p.floor_step for p in probes]
    if all(c is not None for c in consts) and all(s is None for s in steps):
        return _FusedRunSpec(name, _stack_values(consts), None, respec)
    if all(s is not None for s in steps) and all(c is None for c in consts):
        f_lo = _stack_values([s[0] for s in steps])
        f_hi = _stack_values([s[1] for s in steps])
        theta = _stack_values([s[2] for s in steps])
        return _FusedRunSpec(name, None, (f_lo, f_hi, theta), respec)
    return None


def _plan_scheme(policy, name: str, plans, power, overhead):
    """How one scheme evaluates over a view's plans.

    ``("fixed", speed)`` for a batch-constant fixed speed (stacked to a
    per-point vector), ``("dynamic", spec)`` for a protocol-declared
    dynamic scheme (its per-point probes stacked into one run spec), or
    ``("scalar", probes)`` for the per-run scalar kernel (``probes`` is
    ``None`` for a ``needs_realization`` scheme).  ``None`` when the
    points mix fixed and dynamic shapes: no single kernel shape covers
    the view, so the sweep punts to per-point evaluation.
    """
    speeds = [policy.batch_fixed_speed(p, power, overhead) for p in plans]
    if all(s is not None for s in speeds):
        return "fixed", _stack_values(speeds)
    if any(s is not None for s in speeds):
        return None
    if policy.needs_realization:
        return "scalar", None
    probes = [policy.start_run(plan, power, overhead) for plan in plans]
    if all(supports_dynamic_batch(pr, power) for pr in probes):
        spec = _stack_probes(name, probes)
        if spec is not None:
            return "dynamic", spec
    return "scalar", probes


def _scalar_fallback(policy, probes, view: _View, power, overhead):
    """Per-point scalar-kernel loop for schemes the batch kernels skip
    (the oracle's per-realization probing, or a custom scheme outside
    the declared protocol): ``(absolute, finish, changes)`` over the
    view's run axis.

    A point's probe serves all of its runs when it *declares* that it
    mutates nothing during a simulation (``stateless``); any other run
    object is started afresh per run.
    """
    needs_rl = policy.needs_realization
    total = view.matrix.shape[0]
    abs_arr = np.empty(total)
    fin_arr = np.empty(total)
    chg_arr = np.empty(total)
    for p, plan in enumerate(view.plans):
        lo, hi = int(view.offsets[p]), int(view.offsets[p + 1])
        batch = view.batches[p]
        kernel = CompiledKernel(view.progs[p], power, overhead)
        rows = view.matrix[lo:hi].tolist()
        choice_rows = batch.choice_rows()
        shared_run = None
        if probes is not None and probes[p].stateless:
            shared_run = probes[p]
        for i in range(hi - lo):
            if shared_run is not None:
                run = shared_run
            else:
                rl = batch.realization(i) if needs_rl else None
                run = policy.start_run(plan, power, overhead,
                                       realization=rl)
            res = kernel.run(run, rows[i], choice_rows[i])
            abs_arr[lo + i] = res.total_energy
            fin_arr[lo + i] = res.finish_time
            chg_arr[lo + i] = res.n_speed_changes
    return abs_arr, fin_arr, chg_arr


def _sub_grouping(groups, spans: Sequence[Tuple[int, int]], total: int):
    """``(sel, groups)`` for the rows in ``spans`` (ascending, disjoint
    ``[lo, hi)`` ranges) of a ``total``-run batch: the selected row
    indices and their ``executed_paths`` grouping, derived from the
    batch's own grouping instead of re-decoding the OR choices.

    Each group's run indices are remapped to positions within ``sel``
    (rows outside it are dropped), and the groups are re-ordered by
    their first row — the first-occurrence order a fresh decode of the
    sub-batch yields.  Valid because the dynamic and static programs
    share one section topology.
    """
    sel = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    pos = np.full(total, -1, dtype=np.intp)
    pos[sel] = np.arange(sel.size)
    sub_groups = []
    for path, idx in groups:
        sub = pos.take(idx)
        sub = sub[sub >= 0]
        if sub.size:
            sub_groups.append((path, sub))
    sub_groups.sort(key=lambda g: int(g[1][0]))
    return sel, sub_groups


def _dyn_view(build: _FusedBuild, batches, matrix, groups, point_of,
              offsets) -> _View:
    """The dynamic programs' view of a sampled batch."""
    if len(build.dyn_points) == len(build.plans):
        # the common case: every point has a dynamic plan, and the
        # dynamic program's section topology equals the static one's
        # (same structure object), so the grouping carries over
        return _View(build.stacked_dyn, build.dyn_plans, build.dyn_progs,
                     batches, matrix, groups, point_of, offsets, None)
    dyn_points = build.dyn_points
    sel, sub_groups = _sub_grouping(
        groups, [(offsets[i], offsets[i + 1]) for i in dyn_points],
        matrix.shape[0])
    sub_counts = [len(batches[i]) for i in dyn_points]
    return _View(build.stacked_dyn, build.dyn_plans, build.dyn_progs,
                 [batches[i] for i in dyn_points], matrix.take(sel, axis=0),
                 sub_groups, np.repeat(np.arange(len(dyn_points)), sub_counts),
                 np.concatenate(([0], np.cumsum(sub_counts))), sel)


def _place(view: _View, npm_energy, npm_finish, absolute, finish, changes):
    """A scheme's outputs over a view, spread over every run: runs
    outside the view (points without a dynamic plan) ran like NPM, with
    zero switches."""
    if view.rows is None:
        return absolute, finish, changes
    a = npm_energy.copy()
    f = npm_finish.copy()
    c = np.zeros(npm_energy.size)
    a[view.rows] = absolute
    f[view.rows] = finish
    c[view.rows] = changes
    return a, f, c


def _evaluate(build: _FusedBuild, batches, matrix, groups, point_of,
              offsets):
    """Every scheme of a sampled batch — the one evaluator behind fused
    sweeps, :func:`evaluate_batch` and through it
    ``evaluate_application`` and the online stream.

    NPM runs first (the fixed kernel without overhead): it is every
    normalized energy's denominator, and what a scheme degrades to at a
    point without a dynamic plan.  Every other scheme runs as
    :func:`_plan_scheme` decides — one fixed-kernel call per fixed
    speed, the scalar kernel per run — except the batchable dynamic
    schemes, which are gathered per view into one stacked
    :func:`~repro.sim.compiled.run_dynamic_batch` call.  Returns
    ``(npm_energy, npm_finish, absolute, finish, changes)``, the last
    three keyed by scheme in ``build.scheme_names`` order, or ``None``
    when a scheme's shape punts the sweep to per-point evaluation.
    """
    power, overhead = build.power, build.overhead
    total = matrix.shape[0]
    base = run_fixed_batch(build.stacked_static, power, NO_OVERHEAD, matrix,
                           groups, power.s_max, "NPM", point_of=point_of)
    npm_energy, npm_finish = base.total_energy, base.finish_time
    static_view = _View(build.stacked_static, build.static_plans,
                        build.static_progs, batches, matrix, groups,
                        point_of, offsets, None)
    dyn_view: Optional[_View] = None
    stacked: Dict[int, tuple] = {}  # id(view) -> (view, names, specs)
    out: Dict[str, tuple] = {}
    for name in build.scheme_names:
        policy = get_policy(name)
        if name == "NPM":
            out[name] = (npm_energy.copy(), npm_finish.copy(),
                         np.full(total, float(base.n_speed_changes)))
            continue
        if policy.requires_reserve and not build.dyn_points:
            # DVS disabled at every point: the scheme runs like NPM
            out[name] = (npm_energy.copy(), npm_finish.copy(),
                         np.zeros(total))
            continue
        if policy.requires_reserve:
            if dyn_view is None:
                dyn_view = _dyn_view(build, batches, matrix, groups,
                                     point_of, offsets)
            view = dyn_view
        else:
            view = static_view
        how = _plan_scheme(policy, name, view.plans, power, overhead)
        if how is None:
            return None
        kind, arg = how
        if kind == "dynamic":
            entry = stacked.setdefault(id(view), (view, [], []))
            entry[1].append(name)
            entry[2].append(arg)
            continue
        if kind == "fixed":
            res = run_fixed_batch(view.prog, power, overhead, view.matrix,
                                  view.groups, arg, name,
                                  point_of=view.point_of)
            per_point = np.asarray(res.n_speed_changes, dtype=float)
            if per_point.ndim == 0:  # every point shares one speed
                chg = np.full(view.matrix.shape[0], float(per_point))
            else:
                chg = per_point[view.point_of]
            got = (res.total_energy, res.finish_time, chg)
        else:
            got = _scalar_fallback(policy, arg, view, power, overhead)
        out[name] = _place(view, npm_energy, npm_finish, *got)
    for view, names, specs in stacked.values():
        for res in run_dynamic_batch(view.prog, power, overhead,
                                     view.matrix, view.groups, specs, names,
                                     point_of=view.point_of):
            out[res.scheme] = _place(view, npm_energy, npm_finish,
                                     res.total_energy, res.finish_time,
                                     res.n_speed_changes.astype(float))
    names = build.scheme_names
    return (npm_energy, npm_finish, {n: out[n][0] for n in names},
            {n: out[n][1] for n in names}, {n: out[n][2] for n in names})


def evaluate_batch(plan_dyn, plan_static, scheme_names: Sequence[str],
                   power, overhead, batch):
    """Every scheme on one point's sampled realization batch.

    The compiled path of ``runner.evaluate_application`` (via
    ``runner._simulate_runs_compiled``) and of the online stream: a
    one-point :func:`_evaluate` on the plain compiled programs, no
    point axis.  Returns ``(npm_energy, npm_finish, absolute, finish,
    changes, path_keys)``, keyed by canonical scheme name.
    """
    names = tuple(dict.fromkeys(get_policy(n).name for n in scheme_names))
    n = len(batch)
    prog_static = compile_plan(plan_static)
    dyn_plans = [] if plan_dyn is None else [plan_dyn]
    dyn_progs = [compile_plan(p) for p in dyn_plans]
    build = _FusedBuild(None, power, overhead, names,
                        [(plan_dyn, plan_static)], [plan_static],
                        [prog_static], prog_static,
                        [0] if dyn_plans else [], dyn_plans, dyn_progs,
                        dyn_progs[0] if dyn_progs else None)
    matrix = prog_static.realization_matrix(batch)
    groups, path_keys = prog_static.executed_paths(batch.choices, n)
    return _evaluate(build, [batch], matrix, groups, None,
                     np.array([0, n])) + (path_keys,)


def _compute_fused(build: _FusedBuild, configs: Sequence[RunConfig],
                   run_range: Optional[Tuple[int, int]] = None):
    """Sample and execute a fused sweep over one run-range.

    ``run_range=None`` covers every run (the monolithic pass); a
    ``(lo, hi)`` range samples each point's *full* batch from its seed
    and slices rows ``[lo, hi)`` — seed alignment — so a shard computes
    bit-for-bit the rows the monolithic pass holds at those positions.
    Returns ``(offsets, npm_energy, absolute, changes, path_keys)``
    over the covered rows, or ``None`` when a scheme's shape punts the
    sweep to per-point evaluation.
    """
    # per-point sampling from each config's own generator: the exact
    # stream evaluate_application draws, so fused results (and the cache
    # entries they fill) are interchangeable with per-point ones
    batches = []
    for (pd, ps), cfg in zip(build.plans, configs):
        rng = np.random.default_rng(cfg.seed)
        batch = sample_realization_batch(
            ps.structure, rng, cfg.n_runs,
            sigma_fraction=cfg.sigma_fraction)
        if run_range is not None:
            batch = batch[run_range[0]:run_range[1]]
        batches.append(batch)
    counts = [len(b) for b in batches]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    point_of = np.repeat(np.arange(len(configs)), counts)
    matrix = np.vstack([prog.realization_matrix(b)
                        for prog, b in zip(build.static_progs, batches)])
    choices = {name: np.concatenate([b.choices[name] for b in batches])
               for name in batches[0].choices}
    groups, path_keys = build.stacked_static.executed_paths(choices, total)
    out = _evaluate(build, batches, matrix, groups, point_of, offsets)
    if out is None:
        return None
    npm_energy, _npm_finish, absolute, _finish, changes = out
    return offsets, npm_energy, absolute, changes, path_keys


# ---------------------------------------------------------------------------
# sharded execution
# ---------------------------------------------------------------------------

class ShardTask:
    """One run-range of a fused sweep, shipped to a worker whole.

    Picklable and self-contained: carries the applications and configs
    so the worker rebuilds the stacked program deterministically (the
    per-process plan/program caches make the rebuild nearly free) and
    samples its rows seed-aligned.  :func:`run_shard` executes it
    through :meth:`~repro.experiments.engine.ExecutionContext.map`, so
    shards inherit the pool's retry and degrade semantics.
    """

    __slots__ = ("index", "n_shards", "lo", "hi", "apps", "configs",
                 "allow_shm")

    def __init__(self, index: int, n_shards: int, lo: int, hi: int,
                 apps: Tuple[Application, ...],
                 configs: Tuple[RunConfig, ...], allow_shm: bool):
        self.index = index
        self.n_shards = n_shards
        self.lo = lo
        self.hi = hi
        self.apps = apps
        self.configs = configs
        self.allow_shm = allow_shm

    @property
    def name(self) -> str:
        return (f"shard {self.index + 1}/{self.n_shards} "
                f"runs[{self.lo}:{self.hi})")

    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state):
        for s, v in state.items():
            setattr(self, s, v)


class ShardResult:
    """One shard's result block: a packed matrix, inline or via shm.

    The matrix stacks, over the shard's point-major row axis,
    ``[npm, absolute per scheme..., speed changes per scheme...]``; the
    path keys ride as an ordinary pickled list (shared key strings
    memoize well).  ``block`` is an
    :class:`~repro.experiments.engine.ShardBlock` descriptor when the
    worker published the matrix through shared memory.
    """

    __slots__ = ("matrix", "block", "path_keys", "schemes", "n_points")

    def __init__(self, matrix, block, path_keys, schemes, n_points):
        self.matrix = matrix
        self.block = block
        self.path_keys = path_keys
        self.schemes = schemes
        self.n_points = n_points

    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state):
        for s, v in state.items():
            setattr(self, s, v)


def _pack_shard(scheme_names, npm, absolute, changes) -> np.ndarray:
    rows = [np.asarray(npm, dtype=float)]
    rows += [np.asarray(absolute[n], dtype=float) for n in scheme_names]
    rows += [np.asarray(changes[n], dtype=float) for n in scheme_names]
    return np.vstack(rows)


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard (worker side): rebuild, sample, run, pack.

    Fires the ``shard-exec`` fault site first, so the chaos tier can
    crash/hang/fail a shard mid-sweep and prove the pool's
    retry/degrade recovery bit-identical.
    """
    if faults.fire("shard-exec", key=task.index) == "raise":
        raise FaultInjected(f"injected shard-exec fault on {task.name}")
    build = _build_fused(task.apps, task.configs)
    if build is None:
        raise ParallelError(
            task.name, RuntimeError("shard is no longer fusable"))
    out = _compute_fused(build, task.configs, run_range=(task.lo, task.hi))
    if out is None:
        raise ParallelError(
            task.name,
            RuntimeError("shard punted to per-point evaluation"))
    _offsets, npm, absolute, changes, path_keys = out
    matrix = _pack_shard(build.scheme_names, npm, absolute, changes)
    if task.allow_shm and matrix.nbytes >= SHARD_SHM_MIN_BYTES:
        block = publish_shard_block(matrix)
        if block is not None:
            return ShardResult(None, block, list(path_keys),
                               build.scheme_names, len(task.apps))
    return ShardResult(matrix, None, list(path_keys),
                       build.scheme_names, len(task.apps))


def _stateful_scalar_schemes(build: _FusedBuild) -> Optional[List[str]]:
    """Schemes whose scalar-path runs declare themselves stateful.

    Sharding splits the run sequence across processes; a policy whose
    ``PolicyRun`` declares ``stateless=False`` on the scalar-fallback
    path may legitimately carry state across its ``start_run`` sequence
    (that is what the declaration reserves the right to do), so such
    sweeps refuse to shard and run monolithically instead.  Schemes
    covered by the batch kernels never consult run state per row, and
    ``needs_realization`` schemes construct every run independently
    from its realization — both shard freely.

    Returns ``None`` when the sweep mixes fixed and dynamic shapes for
    one scheme — the monolithic pass would punt those to per-point
    evaluation anyway.
    """
    stateful: List[str] = []
    for name in build.scheme_names:
        policy = get_policy(name)
        if name == "NPM" or (policy.requires_reserve
                             and not build.dyn_points):
            continue
        plans = (build.dyn_plans if policy.requires_reserve
                 else build.static_plans)
        how = _plan_scheme(policy, name, plans, build.power, build.overhead)
        if how is None:
            return None
        kind, probes = how
        if kind == "scalar" and probes is not None \
                and not all(pr.stateless for pr in probes):
            stateful.append(name)
    return stateful


def _resolve_shard_count(build: _FusedBuild, configs: Sequence[RunConfig],
                         shards: Optional[int]) -> int:
    """The effective shard count: explicit request, config, or auto.

    Resolution order: the ``shards`` argument, then the base config's
    ``shards`` field, then the ``REPRO_SHARDS`` session default; absent
    everywhere means 1 (monolithic).  ``0`` selects automatically:
    :func:`~repro.experiments.engine.effective_cores`, raised further
    when ``shard_mem_mb`` caps the per-shard working set below the
    sweep's estimated fused footprint.  Always clamped to the run count,
    and to 1 when the points disagree on ``n_runs`` (run ranges must
    mean the same rows at every point).
    """
    base = configs[0]
    request = shards
    if request is None:
        request = base.shards
    if request is None:
        request = default_shards()
    if request is None:
        return 1
    n_runs = base.n_runs
    if any(cfg.n_runs != n_runs for cfg in configs):
        return 1
    if request == 0:
        k = effective_cores()
        budget_mb = base.shard_mem_mb
        if budget_mb:
            est = fused_bytes_estimate(build.stacked_static,
                                       len(configs) * n_runs)
            need = -(-est // (budget_mb * 1024 * 1024))
            k = max(k, int(need))
    else:
        k = request
    return max(1, min(k, n_runs))


def _run_sharded(build: _FusedBuild, apps: Sequence[Application],
                 configs: Sequence[RunConfig], ranges,
                 context: Optional[ExecutionContext]):
    """Fan shards out over a local pool; the shard results, in order.

    Routes through the provided context when it has two or more
    workers; otherwise spins up an ephemeral pool sized to the shards
    and the schedulable cores.  Returns ``None`` when fewer than two
    workers resolve — the caller then runs the monolithic pass, which
    is always correct.
    """
    owned = context is None or context.jobs() < 2
    ctx = ExecutionContext(n_jobs=min(len(ranges), effective_cores())) \
        if owned else context
    try:
        if ctx.jobs(n_items=len(ranges)) < 2:
            return None
        n_points = len(apps)
        tasks = [ShardTask(s, len(ranges), lo, hi, tuple(apps),
                           tuple(configs), ctx.shared_memory)
                 for s, (lo, hi) in enumerate(ranges)]
        return ctx.map(run_shard, [(t,) for t in tasks],
                       labels=[f"{t.name} x {n_points} point(s)"
                               for t in tasks],
                       policy=build.base.retry_policy())
    finally:
        if owned:
            ctx.close()


def _reduce_shards(build: _FusedBuild, configs: Sequence[RunConfig],
                   ranges, shard_results, context):
    """Merge shard blocks into full sweep arrays, in shard-index order.

    The reduction is pure placement — each shard's rows are copied into
    their monolithic positions (concat, never summation), so float
    accumulation order is fixed by construction.  A shard whose shm
    block cannot be attached is recomputed inline in the parent (warned
    and counted as an shm fallback): slower, still bit-identical.
    """
    scheme_names = build.scheme_names
    n_points = len(configs)
    n_runs = configs[0].n_runs
    n_schemes = len(scheme_names)
    total = n_points * n_runs
    npm = np.empty(total)
    absolute = {n: np.empty(total) for n in scheme_names}
    changes = {n: np.empty(total) for n in scheme_names}
    path_keys: List = [None] * total
    for (lo, hi), res in zip(ranges, shard_results):
        span = hi - lo
        matrix = None
        keys = None
        if res is not None:
            keys = res.path_keys
            if res.matrix is not None:
                matrix = res.matrix
            else:
                try:
                    matrix = res.block.take()
                except TransportError as exc:
                    if context is not None:
                        context.resilience["shm_fallbacks"] += 1
                    warnings.warn(
                        f"could not attach shard result block for "
                        f"runs[{lo}:{hi}) ({exc}); recomputing the shard "
                        "in the parent", RuntimeWarning, stacklevel=3)
        if matrix is None:
            out = _compute_fused(build, configs, run_range=(lo, hi))
            if out is None:  # pragma: no cover - parent pre-checked
                raise ParallelError(
                    f"shard runs[{lo}:{hi})",
                    RuntimeError("shard recompute punted"))
            _off, s_npm, s_abs, s_chg, keys = out
            matrix = _pack_shard(scheme_names, s_npm, s_abs, s_chg)
        expected = (1 + 2 * n_schemes, n_points * span)
        if matrix.shape != expected:
            raise ParallelError(
                f"shard runs[{lo}:{hi})",
                RuntimeError(f"shard block shape {matrix.shape} != "
                             f"expected {expected}"))
        for p in range(n_points):
            src = slice(p * span, (p + 1) * span)
            dst = slice(p * n_runs + lo, p * n_runs + hi)
            npm[dst] = matrix[0, src]
            for j, name in enumerate(scheme_names):
                absolute[name][dst] = matrix[1 + j, src]
                changes[name][dst] = matrix[1 + n_schemes + j, src]
            path_keys[p * n_runs + lo:p * n_runs + hi] = \
                keys[p * span:(p + 1) * span]
    offsets = np.arange(n_points + 1) * n_runs
    return offsets, npm, absolute, changes, path_keys


def evaluate_points_fused(apps: Sequence[Application],
                          configs: Sequence[RunConfig],
                          context: Optional[ExecutionContext] = None,
                          shards: Optional[int] = None
                          ) -> Optional[List[EvaluationResult]]:
    """Evaluate a homogeneous sweep as one fused array program.

    Returns per-point :class:`EvaluationResult`\\ s — bit-identical to
    calling :func:`~repro.experiments.runner.evaluate_application` per
    point — or ``None`` when the points cannot fuse (the caller then
    falls back to per-point evaluation).

    ``shards`` overrides the sharding request (``None`` defers to the
    base config and the ``REPRO_SHARDS`` session default; ``0`` selects
    automatically from cores and the memory budget; ``N >= 2`` fans the
    run axis out over ``context``'s pool).  ``context`` supplies the
    pool for sharded execution; without one, an ephemeral pool is used
    and closed again.
    """
    n_points = len(apps)
    if n_points == 0:
        return []
    if not _configs_fusable(configs):
        return None
    build = _build_fused(apps, configs)
    if build is None:
        return None

    n_shards = _resolve_shard_count(build, configs, shards)
    if n_shards > 1:
        stateful = _stateful_scalar_schemes(build)
        if stateful is None:
            return None  # mixed shapes: per-point fallback either way
        if stateful:
            warnings.warn(
                f"scheme(s) {', '.join(sorted(stateful))} declare stateful "
                "runs (PolicyRun.stateless=False) on the scalar path; "
                "sharding would split their run sequence across processes "
                "— running the sweep unsharded", RuntimeWarning,
                stacklevel=2)
            n_shards = 1

    transport = "inline"
    shard_runs: List[int] = []
    out = None
    if n_shards > 1:
        ranges = plan_shards(configs[0].n_runs, n_shards)
        if len(ranges) > 1:
            shard_results = _run_sharded(build, apps, configs, ranges,
                                         context)
            if shard_results is not None:
                transport = "pool"
                out = _reduce_shards(build, configs, ranges,
                                     shard_results, context)
                shard_runs = [hi - lo for lo, hi in ranges]
    if out is None:
        transport = "inline"
        shard_runs = []
        out = _compute_fused(build, configs)
        if out is None:
            return None
    offsets, npm_energy, absolute, changes, path_keys = out

    scheme_names = build.scheme_names
    results = []
    for i, (app, cfg) in enumerate(zip(apps, configs)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        res = EvaluationResult(app_name=app.name, config=cfg,
                               npm_energy=npm_energy[lo:hi].copy(),
                               path_keys=list(path_keys[lo:hi]))
        for name in scheme_names:
            res.absolute[name] = absolute[name][lo:hi].copy()
            res.normalized[name] = res.absolute[name] / res.npm_energy
            res.speed_changes[name] = changes[name][lo:hi].copy()
        results.append(res)

    global _LAST_FUSED
    meta: Dict[str, object] = {
        "points": n_points,
        "shards": len(shard_runs) if shard_runs else 1,
        "transport": transport,
    }
    if shard_runs:
        meta["shard_runs"] = shard_runs
    _LAST_FUSED = meta
    return results
