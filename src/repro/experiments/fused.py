"""Fused sweep evaluation: one array program over ``points × runs``.

With the compiled kernels a Monte-Carlo run costs tens of
microseconds, so splitting the runs of one point over a process pool
loses to serial execution (measured ~7× slower) — the pool's transport
and scheduling dominate.  The profitable axis is the opposite one:
amortize the *per-point* kernel invocations.

:func:`evaluate_points_fused` takes a whole sweep (several applications,
one config each), stacks their compiled section programs into one
:class:`~repro.sim.sweepc.StackedProgram` (when the points are
structurally homogeneous — load and α sweeps are), gives every point
the realization batch
:func:`~repro.experiments.runner.evaluate_application` would draw from
its seed, and runs the batch kernels once over the fused run axis with
a ``point_of`` gather index.  The result list is sliced back per point,
so callers — and the per-point evaluation cache — see ordinary
:class:`~repro.experiments.runner.EvaluationResult`\\ s.

**Sample once, decode once.**  The evaluation is paired, and a load
sweep changes only the deadline, so its points draw identical batches.
A fused pass samples each distinct draw once (points are grouped by
what the draw depends on — seed, run count, sigma fraction, task
times and OR branches — never by object identity), keeps one
realization matrix that the kernels read through a ``row_of``
run→row map instead of a stacked copy per point, and decodes each
distinct set of OR choices into path groups once, tiling the groups
by point offset.  A ``figure5`` power model samples and decodes once;
a ``figure6`` one samples per α (the ACETs differ) and decodes once
(the choices coincide).  The pass counts its ``experiments.fused.points``,
``.draws`` and ``.decodes`` in the open :mod:`repro.obs` recordings
(``series.meta["obs"]``).  Every kernel row depends on its own
realization row only, so the sharing changes no float.

**One pass, in the calling process.**  A fused sweep never leaves
the process that asked for it: there is no pool, worker or transport
on this path.  The batch kernels spread a large call's independent
row blocks over threads of the same process instead
(:data:`~repro.sim.kernels.interp.THREAD_ROWS`).

Returns ``None`` whenever fusion does not apply (heterogeneous configs,
incompatible graph structure, a non-"compiled" engine); the caller
falls back to per-point evaluation, pooled at the point level.  Every
fused output is bit-identical to the per-point path — and therefore to
the serial dict engine — which ``tests/property/test_fused_equivalence``
pins exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.registry import get_policy
from ..graph.andor import Application
from ..power.overhead import NO_OVERHEAD
from ..sim.compiled import (CompiledKernel, compile_plan, path_index,
                            run_dynamic_batch, run_fixed_batch,
                            supports_dynamic_batch)
from ..sim.realization import sample_realization_batch
from ..sim.sweepc import (StackedProgram, _stack_values, programs_compatible,
                          stack_programs)
from .runner import EvaluationResult, RunConfig, build_plans

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
    its runs.

    The static view covers every run; the dynamic view may cover a
    subset (points whose dynamic plan exists).  ``spans`` holds each
    view point's ``[lo, hi)`` range of the sweep's run axis, and
    ``out_row`` maps view run ``i`` to its sweep run (``None``: ``i``).
    Run ``i`` reads ``matrix[row_of[i]]`` (``row_of=None``: row ``i``),
    so views share one realization matrix instead of copying its rows.
    """

    __slots__ = ("prog", "plans", "progs", "batches", "matrix", "row_of",
                 "groups", "point_of", "offsets", "spans", "out_row")

    def __init__(self, prog, plans, progs, batches, matrix, row_of, groups,
                 point_of, offsets, spans, out_row):
        self.prog = prog
        self.plans = plans
        self.progs = progs
        self.batches = batches
        self.matrix = matrix
        self.row_of = row_of
        self.groups = groups
        self.point_of = point_of
        self.offsets = offsets
        self.spans = spans
        self.out_row = out_row


class _FusedBuild:
    """The structural half of a fused sweep: plans, programs, stacks.

    Holds everything that does not depend on sampled runs.  A one-point
    build (:func:`evaluate_batch`) holds the plain compiled
    programs in place of the stacks.
    """

    __slots__ = ("power", "overhead", "scheme_names", "plans", "static_plans",
                 "static_progs", "stacked_static", "dyn_points", "dyn_plans",
                 "dyn_progs", "stacked_dyn")

    def __init__(self, power, overhead, scheme_names, plans, static_plans,
                 static_progs, stacked_static, dyn_points, dyn_plans,
                 dyn_progs, stacked_dyn):
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
    fingerprint.  A warm sweep walks its static programs once, here:
    :func:`stack_programs` finds the stack in its cache before walking.
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
    return _FusedBuild(power, overhead, scheme_names, plans,
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


def _scalar_fallback(policy, probes, view: _View, power, overhead,
                     energy, finish, changes) -> None:
    """Per-point scalar-kernel loop for schemes the batch kernels skip
    (the oracle's per-realization probing, or a custom scheme outside
    the declared protocol), writing each view run's energy, finish
    (``finish`` may be ``None``) and switch count at its sweep run.

    A point's probe serves all of its runs when it *declares* that it
    mutates nothing during a simulation (``stateless``); any other run
    object is started afresh per run.
    """
    needs_rl = policy.needs_realization
    for p, plan in enumerate(view.plans):
        lo, hi = int(view.offsets[p]), int(view.offsets[p + 1])
        at = view.spans[p][0]
        batch = view.batches[p]
        kernel = CompiledKernel(view.progs[p], power, overhead)
        if view.row_of is None:
            rows = view.matrix[lo:hi].tolist()
        else:
            rows = view.matrix.take(view.row_of[lo:hi], axis=0).tolist()
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
            energy[at + i] = res.total_energy
            if finish is not None:
                finish[at + i] = res.finish_time
            changes[at + i] = res.n_speed_changes


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


def _dyn_view(build: _FusedBuild, static: _View) -> _View:
    """The dynamic programs' view of a sampled batch."""
    if len(build.dyn_points) == len(build.plans):
        # the common case: every point has a dynamic plan, and the
        # dynamic program's section topology equals the static one's
        # (same structure object), so the grouping carries over
        return _View(build.stacked_dyn, build.dyn_plans, build.dyn_progs,
                     static.batches, static.matrix, static.row_of,
                     static.groups, static.point_of, static.offsets,
                     static.spans, None)
    dyn_points = build.dyn_points
    spans = [static.spans[i] for i in dyn_points]
    sel, sub_groups = _sub_grouping(static.groups, spans,
                                    int(static.offsets[-1]))
    row_of = static.row_of.take(sel) if static.row_of is not None else sel
    sub_counts = [len(static.batches[i]) for i in dyn_points]
    return _View(build.stacked_dyn, build.dyn_plans, build.dyn_progs,
                 [static.batches[i] for i in dyn_points], static.matrix,
                 row_of, sub_groups,
                 np.repeat(np.arange(len(dyn_points)), sub_counts),
                 np.concatenate(([0], np.cumsum(sub_counts))), spans, sel)


def _evaluate(build: _FusedBuild, batches, matrix, groups, point_of,
              offsets, row_of=None, finish: bool = False):
    """Every scheme of a sampled batch — the one evaluator behind fused
    sweeps, :func:`evaluate_batch` and through it
    ``evaluate_application`` and the online stream.

    Run ``i`` reads its actual times from ``matrix[row_of[i]]``
    (``row_of=None``: row ``i``); ``offsets`` delimits each point's runs.

    NPM runs first (the fixed kernel without overhead): it is every
    normalized energy's denominator, and what a scheme degrades to at a
    point without a dynamic plan.  Every other scheme runs as
    :func:`_plan_scheme` decides — one fixed-kernel call per fixed
    speed, the scalar kernel per run — except the batchable dynamic
    schemes, which are gathered per view into one stacked
    :func:`~repro.sim.compiled.run_dynamic_batch` call.  The kernels
    write into each scheme's arrays over the full run axis, allocated
    once here; the runs a view skips (points without a dynamic plan)
    hold NPM's energy and zero switches.  Returns ``(npm_energy,
    absolute, finishes, changes)``, the last three keyed by scheme in
    ``build.scheme_names`` order (a finish array is ``None`` unless
    ``finish``), or ``None`` when a scheme's shape punts the sweep to
    per-point evaluation.
    """
    power, overhead = build.power, build.overhead
    total = int(offsets[-1])
    npm_energy = np.empty(total)
    npm_finish = np.empty(total) if finish else None
    base = run_fixed_batch(build.stacked_static, power, NO_OVERHEAD, matrix,
                           groups, power.s_max, "NPM", point_of=point_of,
                           row_of=row_of, out=(npm_energy, npm_finish))
    spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    static_view = _View(build.stacked_static, build.static_plans,
                        build.static_progs, batches, matrix, row_of, groups,
                        point_of, offsets, spans, None)
    npm_spans = [sp for p, sp in enumerate(spans)
                 if p not in build.dyn_points]
    dyn_view: Optional[_View] = None
    stacked: Dict[int, tuple] = {}  # id(view) -> (view, names, specs, outs)
    absolute: Dict[str, np.ndarray] = {}
    finishes: Dict[str, Optional[np.ndarray]] = {}
    changes: Dict[str, np.ndarray] = {}
    for name in build.scheme_names:
        policy = get_policy(name)
        if name == "NPM":
            # a view, not the baseline object: it pickles as its own floats
            absolute[name] = npm_energy[:]
            finishes[name] = npm_finish
            changes[name] = np.full(total, float(base.n_speed_changes))
            continue
        e = absolute[name] = np.empty(total)
        f = finishes[name] = np.empty(total) if finish else None
        c = changes[name] = np.empty(total)
        if policy.requires_reserve:
            # DVS disabled at a point: the scheme runs like NPM there
            for lo, hi in npm_spans:
                e[lo:hi] = npm_energy[lo:hi]
                if f is not None:
                    f[lo:hi] = npm_finish[lo:hi]
                c[lo:hi] = 0.0
            if not build.dyn_points:
                continue
            if dyn_view is None:
                dyn_view = _dyn_view(build, static_view)
            view = dyn_view
        else:
            view = static_view
        how = _plan_scheme(policy, name, view.plans, power, overhead)
        if how is None:
            return None
        kind, arg = how
        if kind == "dynamic":
            entry = stacked.setdefault(id(view), (view, [], [], []))
            entry[1].append(name)
            entry[2].append(arg)
            entry[3].append((e, f, c))
        elif kind == "fixed":
            res = run_fixed_batch(view.prog, power, overhead, view.matrix,
                                  view.groups, arg, name,
                                  point_of=view.point_of,
                                  row_of=view.row_of, out=(e, f),
                                  out_row=view.out_row)
            per_point = np.broadcast_to(
                np.asarray(res.n_speed_changes, dtype=float),
                (len(view.spans),))
            for (lo, hi), value in zip(view.spans, per_point):
                c[lo:hi] = value
        else:
            _scalar_fallback(policy, arg, view, power, overhead, e, f, c)
    for view, names, specs, outs in stacked.values():
        run_dynamic_batch(view.prog, power, overhead, view.matrix,
                          view.groups, specs, names, point_of=view.point_of,
                          row_of=view.row_of, out=outs,
                          out_row=view.out_row)
    return npm_energy, absolute, finishes, changes


def evaluate_batch(plan_dyn, plan_static, scheme_names: Sequence[str],
                   power, overhead, batch, finish: bool = False):
    """Every scheme on one point's sampled realization batch.

    The compiled path of ``runner.evaluate_application`` and of the
    online stream (``runner._simulate_runs`` is its dict-engine
    counterpart, with the same arguments and result): a one-point :func:`_evaluate` on the plain compiled programs, no
    point axis.  Returns ``(npm_energy, absolute, finishes, changes,
    path_keys)``, keyed by canonical scheme name; only ``finish=True``
    stores the per-run makespans the online stream's ledger reads.
    """
    names = tuple(dict.fromkeys(get_policy(n).name for n in scheme_names))
    n = len(batch)
    prog_static = compile_plan(plan_static)
    dyn_plans = [] if plan_dyn is None else [plan_dyn]
    dyn_progs = [compile_plan(p) for p in dyn_plans]
    build = _FusedBuild(power, overhead, names,
                        [(plan_dyn, plan_static)], [plan_static],
                        [prog_static], prog_static,
                        [0] if dyn_plans else [], dyn_plans, dyn_progs,
                        dyn_progs[0] if dyn_progs else None)
    matrix = prog_static.realization_matrix(batch)
    groups, path_keys = prog_static.executed_paths(batch.choices, n)
    return _evaluate(build, [batch], matrix, groups, None,
                     np.array([0, n]), finish=finish) + (path_keys,)


def _draw_key(structure, cfg: RunConfig) -> tuple:
    """Everything a point's realization batch depends on.

    :func:`~repro.sim.realization.sample_realization_batch` reads the
    seed, the run count, the sigma fraction, each computation task's
    ``(name, wcet, acet)`` in column order and each OR node's
    ``(target, probability)`` branches; two points with equal keys draw
    equal batches.  A load sweep's points differ only in the deadline,
    so they share one key; an α sweep's ACETs differ per point.
    """
    graph = structure.graph
    tasks = tuple((n.name, n.wcet, n.acet)
                  for n in graph.computation_nodes())
    ors = tuple((n.name, tuple(structure.branches(n.name)))
                for n in graph.or_nodes())
    return (cfg.seed, cfg.n_runs, cfg.sigma_fraction, tasks, ors)


def _same_choices(a, b) -> bool:
    """Whether two batches' OR choices are equal, array by array."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k])
                                        for k in a)


def _compute_fused(build: _FusedBuild, configs: Sequence[RunConfig]):
    """Sample and execute a fused sweep.

    Each point's batch is the one ``evaluate_application`` draws from
    ``default_rng(cfg.seed)``, but points with equal :func:`_draw_key`\\ s
    share a single draw, the fused run axis reads one realization
    matrix through a ``row_of`` map instead of a stacked copy per
    point, and each distinct set of OR choices is decoded once, its
    path groups tiled by point offset.  Every kernel row depends on its
    own realization row only, so sharing changes no float.

    Returns ``(offsets, npm_energy, absolute, changes, paths)``, where
    ``paths[p]`` is point ``p``'s ``(int32 path ids, path table)`` pair
    (shared by the points of one decode), or ``None`` when a scheme's
    shape punts the sweep to per-point evaluation; a completed pass
    counts its points and distinct draws and decodes.
    """
    draw_index: Dict[tuple, int] = {}
    drawn = []    # the distinct batches, in first-use order
    draw_of = []  # point -> index into drawn
    for (_pd, ps), cfg in zip(build.plans, configs):
        key = _draw_key(ps.structure, cfg)
        d = draw_index.get(key)
        if d is None:
            batch = sample_realization_batch(
                ps.structure, np.random.default_rng(cfg.seed), cfg.n_runs,
                sigma_fraction=cfg.sigma_fraction)
            d = draw_index[key] = len(drawn)
            drawn.append(batch)
        draw_of.append(d)
    batches = [drawn[d] for d in draw_of]
    counts = [len(b) for b in batches]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    point_of = np.repeat(np.arange(len(configs)), counts)

    # one matrix block per distinct draw: stacked programs share their
    # column order (programs_compatible), so a block serves every point
    # that drew it
    prog = build.stacked_static
    blocks = [prog.realization_matrix(b) for b in drawn]
    matrix = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    row_of = None  # every point drawing its own batch: the identity
    if len(drawn) < len(configs):
        starts = np.cumsum([0] + [len(b) for b in drawn])
        row_of = np.concatenate([np.arange(starts[d], starts[d] + n)
                                 for d, n in zip(draw_of, counts)])

    # one decode per distinct choice set
    decoded = []    # (choices, groups, (ids, table)) per distinct choice set
    decode_of = []  # draw -> index into decoded
    for batch in drawn:
        for c, (choices, _groups, _paths) in enumerate(decoded):
            if _same_choices(batch.choices, choices):
                break
        else:
            c = len(decoded)
            groups_c, _ = prog.executed_paths(batch.choices, len(batch),
                                              keys=False)
            decoded.append((batch.choices, groups_c,
                            path_index(groups_c, len(batch))))
        decode_of.append(c)
    # each point's groups shifted to its offset: points run in order and
    # each point's groups come in first-occurrence order with ascending
    # indices, so the merged groups are a fresh decode's of the fused axis
    by_path: Dict[Tuple[int, ...], List[np.ndarray]] = {}
    paths = []
    for p, d in enumerate(draw_of):
        _choices, groups_p, paths_p = decoded[decode_of[d]]
        off = int(offsets[p])
        for path, idx in groups_p:
            by_path.setdefault(path, []).append(idx + off)
        paths.append(paths_p)
    groups = [(path, np.concatenate(parts))
              for path, parts in by_path.items()]

    out = _evaluate(build, batches, matrix, groups, point_of, offsets,
                    row_of)
    if out is None:
        return None
    npm_energy, absolute, _finishes, changes = out
    obs.count("experiments.fused.points", len(configs))
    obs.count("experiments.fused.draws", len(drawn))
    obs.count("experiments.fused.decodes", len(decoded))
    return offsets, npm_energy, absolute, changes, paths


@obs.span("experiments.fused")
def evaluate_points_fused(apps: Sequence[Application],
                          configs: Sequence[RunConfig]
                          ) -> Optional[List[EvaluationResult]]:
    """Evaluate a homogeneous sweep as one fused array program.

    Returns per-point :class:`EvaluationResult`\\ s — bit-identical to
    calling :func:`~repro.experiments.runner.evaluate_application` per
    point — or ``None`` when the points cannot fuse (the caller then
    falls back to per-point evaluation).
    """
    if not apps:
        return []
    if not _configs_fusable(configs):
        return None
    build = _build_fused(apps, configs)
    if build is None:
        return None
    out = _compute_fused(build, configs)
    if out is None:
        return None
    offsets, npm_energy, absolute, changes, paths = out

    # each point's arrays are views of the sweep's (a view pickles and
    # caches as its own floats)
    scheme_names = build.scheme_names
    results = []
    for i, (app, cfg) in enumerate(zip(apps, configs)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        path_ids, path_table = paths[i]
        res = EvaluationResult(app_name=app.name, config=cfg,
                               npm_energy=npm_energy[lo:hi],
                               path_ids=path_ids, path_table=path_table)
        for name in scheme_names:
            res.absolute[name] = absolute[name][lo:hi]
            res.normalized[name] = res.absolute[name] / res.npm_energy
            res.speed_changes[name] = changes[name][lo:hi]
        results.append(res)
    return results
