"""Process-pool fan-out of independent sweep points.

Each sweep point (one x-value of one figure) is an independent
Monte-Carlo evaluation, so the natural parallel decomposition is one
point per worker process — the same owner-computes pattern as an MPI
scatter/gather, implemented with the standard library so the package
stays dependency-light.  Results come back in submission order, keeping
sweeps deterministic regardless of worker scheduling.

``n_jobs=1`` (the default, with no context supplied) bypasses the pool
entirely — on single-core boxes the pickling round-trip costs more than
it buys.

Since PR 4 the pool itself lives in an
:class:`~repro.experiments.engine.ExecutionContext`: pass one
``context`` to share a single persistent pool (and optionally an
evaluation cache) across every map call of a sweep, figure or suite,
instead of paying pool spin-up per call.  Without a context, each call
creates and disposes its own — the pre-PR-4 behaviour.

Failure semantics: deterministic worker exceptions fail fast — the
outstanding futures are cancelled and the error is re-raised as
:class:`~repro.errors.ParallelError` carrying the failing point's
arguments, with the original exception chained as ``__cause__``.
*Partial* failures (a crashed worker, a hung point, an injected
fault) are instead retried/re-dispatched by the execution context
according to the configs'
:class:`~repro.experiments.engine.RetryPolicy` knobs
(``max_retries``/``chunk_timeout``/``degrade``), degrading to serial
execution in the parent as the last resort — results are bit-identical
under every recovery path.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ParallelError
from ..graph.andor import AndOrGraph, Application
from ..workloads.scaling import application_with_load
from .engine import ExecutionContext, resolve_jobs
from .runner import EvaluationResult, RunConfig, evaluate_application

__all__ = [
    "resolve_jobs", "collect_in_order", "map_evaluations",
    "map_load_points", "map_applications", "map_custom",
]


def collect_in_order(pool: ProcessPoolExecutor, futures: Sequence,
                     labels: Sequence[str]) -> List:
    """Gather futures in submission order, failing fast with context.

    On the first worker exception the remaining futures are cancelled
    and the pool is shut down without waiting, then the error is
    re-raised as :class:`ParallelError` naming the failing work item.
    """
    results = []
    for future, label in zip(futures, labels):
        try:
            results.append(future.result())
        except Exception as exc:
            pool.shutdown(wait=False, cancel_futures=True)
            raise ParallelError(label, exc) from exc
    return results


def _evaluate_app_point(index: int, app: Application,
                        config: RunConfig) -> EvaluationResult:
    from ..errors import FaultInjected
    from . import faults
    if faults.fire("worker-chunk", key=index) == "raise":
        raise FaultInjected(f"injected worker fault at point {index}")
    return evaluate_application(app, config)


def map_evaluations(apps: Sequence[Application],
                    config, n_jobs: int = 1,
                    context: Optional[ExecutionContext] = None,
                    labels: Optional[Sequence[str]] = None,
                    fused: bool = True) -> List[EvaluationResult]:
    """Evaluate several applications on one shared execution context.

    The engine-aware core of every point mapper: consults the context's
    evaluation cache point by point (only misses are computed), then
    evaluates the misses by the cheapest applicable strategy —

    1. **fused** (the default): structurally homogeneous points are
       stacked into one array program and executed in a single batch-
       kernel pass in the parent, or sharded over the local pool when
       a shard request is set
       (:func:`~repro.experiments.fused.evaluate_points_fused`);
    2. **point-level pool**: heterogeneous points (or ``fused=False``)
       fan out one point per worker over the persistent pool;
    3. **serial loop**: when the resolved worker count is 1.

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
    owned = context is None
    ctx = context if context is not None else ExecutionContext(
        n_jobs=resolve_jobs(n_jobs, n_items=len(apps)))
    try:
        results: List[Optional[EvaluationResult]] = [None] * len(apps)
        pending = list(range(len(apps)))
        keys: List[str] = []
        if ctx.cache is not None:
            # cache lookups happen here in the parent — workers stay
            # cache-blind, so concurrent sweeps never race on entries
            from .evalcache import evaluation_key
            keys = [evaluation_key(app, cfg)
                    for app, cfg in zip(apps, configs)]
            pending = []
            for i, app in enumerate(apps):
                hit = ctx.cache.get(keys[i], app.name, configs[i])
                if hit is not None:
                    results[i] = hit
                else:
                    pending.append(i)
        if not pending:
            return results

        if fused and len(pending) > 1:
            from .fused import evaluate_points_fused
            try:
                computed = evaluate_points_fused(
                    [apps[i] for i in pending],
                    [configs[i] for i in pending],
                    context=ctx)
            except Exception as exc:
                raise ParallelError(
                    f"fused sweep over {len(pending)} point(s)",
                    exc) from exc
            if computed is not None:
                for i, res in zip(pending, computed):
                    results[i] = res
                    if ctx.cache is not None:
                        ctx.cache.put(keys[i], res)
                return results
            # not fusable: fall through to per-point evaluation

        if ctx.jobs(n_items=len(pending)) == 1:
            # serial point loop; each point stores itself in the
            # context's cache, if it has one
            for i in pending:
                results[i] = evaluate_application(apps[i], configs[i],
                                                  context=ctx)
            return results
        computed = ctx.map(
            _evaluate_app_point,
            [(i, apps[i], configs[i]) for i in pending],
            [labels[i] for i in pending],
            policy=configs[0].retry_policy())
        for i, res in zip(pending, computed):
            results[i] = res
            if ctx.cache is not None:
                ctx.cache.put(keys[i], res)
        return results
    finally:
        if owned:
            ctx.close()


def map_load_points(graph: AndOrGraph, loads: Sequence[float],
                    config: RunConfig, n_jobs: int = 1,
                    context: Optional[ExecutionContext] = None,
                    fused: bool = True) -> List[EvaluationResult]:
    """Evaluate one application at several loads.

    Load points share the graph shape, so by default the whole sweep
    fuses into one array program — even the plain serial call with no
    context goes through the fused path now, which is what makes
    ``sweep_load`` fast without any pool at all.
    """
    apps = []
    for ld in loads:
        try:
            apps.append(application_with_load(graph, ld, config.n_processors))
        except Exception as exc:
            raise ParallelError(f"load={ld!r}", exc) from exc
    return map_evaluations(apps, config, n_jobs=n_jobs, context=context,
                           labels=[f"load={ld!r}" for ld in loads],
                           fused=fused)


def map_applications(apps: Sequence[Application], config: RunConfig,
                     n_jobs: int = 1,
                     context: Optional[ExecutionContext] = None,
                     fused: bool = True) -> List[EvaluationResult]:
    """Evaluate several pre-built applications (e.g. an α sweep)."""
    return map_evaluations(apps, config, n_jobs=n_jobs, context=context,
                           fused=fused)


def map_custom(fn: Callable, args_list: Sequence[Tuple],
               n_jobs: int = 1,
               context: Optional[ExecutionContext] = None) -> List:
    """Generic fan-out for ablation sweeps (fn must be picklable)."""
    if context is None:
        jobs = resolve_jobs(n_jobs, n_items=len(args_list))
        if jobs == 1:
            return [fn(*args) for args in args_list]
        with ExecutionContext(n_jobs=jobs) as ctx:
            return ctx.map(fn, args_list)
    if context.jobs(n_items=len(args_list)) == 1:
        return [fn(*args) for args in args_list]
    return context.map(fn, args_list)
