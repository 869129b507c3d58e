"""Fan-out of independent sweep points over an execution context.

Each sweep point (one x-value of one figure) is an independent
Monte-Carlo evaluation.  :func:`map_evaluations` runs a sweep's points
by the cheapest route that applies: one fused array program when the
points share a structure, else one point per worker over the pool of
the caller's :class:`~repro.experiments.engine.ExecutionContext` when it
has two or more workers, else a serial loop.  The context is the only
source of a pool; without one, a sweep never starts one.  Results come
back in submission order, keeping sweeps deterministic regardless of
worker scheduling.

Failure semantics: a worker exception fails fast — the outstanding
futures are cancelled and the error is re-raised as
:class:`~repro.errors.ParallelError` carrying the failing point's
label, with the original exception chained as ``__cause__``.  A worker
that dies instead breaks the pool, which the execution context rebuilds
under the configs' :class:`~repro.experiments.engine.RetryPolicy`
(``max_retries``/``degrade``), degrading to serial execution in the
parent as the last resort — results are bit-identical either way.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ParallelError
from ..graph.andor import Application
# perfbench/tracer.py still wraps this name here
from ..workloads.scaling import application_with_load  # noqa: F401
from .engine import ExecutionContext, resolve_jobs
from .runner import EvaluationResult, RunConfig, evaluate_application

__all__ = [
    "resolve_jobs", "map_evaluations", "map_custom",
]


def map_evaluations(apps: Sequence[Application], config,
                    context: Optional[ExecutionContext] = None,
                    labels: Optional[Sequence[str]] = None
                    ) -> List[EvaluationResult]:
    """Evaluate several applications on one shared execution context.

    The engine-aware core of every point mapper: consults the context's
    evaluation cache point by point (only misses are computed), then
    evaluates the misses by the cheapest applicable strategy —

    1. **fused**: structurally homogeneous points are stacked into one
       array program and executed in a single batch-kernel pass in the
       calling process
       (:func:`~repro.experiments.fused.evaluate_points_fused`);
    2. **point-level pool**: heterogeneous points fan out one point per
       worker over the context's pool when it has two or more workers;
    3. **serial loop**: otherwise, including when no context is given.

    Fresh results are stored back into the cache per point regardless
    of strategy, results keep submission order, and every strategy is
    bit-identical to a serial loop.

    ``config`` is one :class:`RunConfig` shared by every point, or a
    sequence of per-point configs (same length as ``apps``) for sweeps
    whose x-axis is a config field (processor count, overhead, …).
    An empty ``apps`` returns ``[]``.
    """
    if isinstance(config, RunConfig):
        configs: List[RunConfig] = [config] * len(apps)
    else:
        configs = list(config)
        if len(configs) != len(apps):
            raise ParallelError(
                f"{len(configs)} configs for {len(apps)} applications",
                ValueError("apps/configs length mismatch"))
    if not apps:
        return []
    if labels is None:
        labels = [f"app={app.name!r}" for app in apps]
    cache = context.cache if context is not None else None
    results: List[Optional[EvaluationResult]] = [None] * len(apps)
    pending = list(range(len(apps)))
    keys: List[str] = []
    if cache is not None:
        # cache lookups happen here in the parent — workers stay
        # cache-blind, so concurrent sweeps never race on entries
        from .evalcache import evaluation_key
        keys = [evaluation_key(app, cfg) for app, cfg in zip(apps, configs)]
        pending = []
        for i, app in enumerate(apps):
            hit = cache.get(keys[i], app.name, configs[i])
            if hit is not None:
                results[i] = hit
            else:
                pending.append(i)
    if not pending:
        return results

    computed = None
    if len(pending) > 1:
        from .fused import evaluate_points_fused
        try:
            computed = evaluate_points_fused([apps[i] for i in pending],
                                             [configs[i] for i in pending])
        except Exception as exc:
            raise ParallelError(
                f"fused sweep over {len(pending)} point(s)", exc) from exc
    if computed is None:  # one point, or not fusable: per-point evaluation
        if context is None or context.jobs(n_items=len(pending)) == 1:
            # serial point loop, cache-blind like the workers (the
            # misses were probed above); lazy, so each point is stored
            # below before the next one runs
            computed = (evaluate_application(apps[i], configs[i])
                        for i in pending)
        else:
            computed = context.map(evaluate_application,
                                   [(apps[i], configs[i]) for i in pending],
                                   [labels[i] for i in pending],
                                   policy=configs[0].retry_policy())
    for i, res in zip(pending, computed):
        results[i] = res
        if cache is not None:
            cache.put(keys[i], res)
    return results


def map_custom(fn: Callable, args_list: Sequence[Tuple],
               context: Optional[ExecutionContext] = None) -> List:
    """Generic fan-out for ablation sweeps (fn must be picklable).

    Runs over ``context``'s pool when it has two or more workers, and
    serially in the caller otherwise.
    """
    if context is None or context.jobs(n_items=len(args_list)) == 1:
        return [fn(*args) for args in args_list]
    return context.map(fn, args_list)
