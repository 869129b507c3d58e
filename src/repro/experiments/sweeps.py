"""Parameter sweeps: load, α, processor count, overhead, speed levels.

Each sweep returns a :class:`~repro.types.SeriesResult` — the exact
rows/series a paper figure plots — plus, where useful, the per-point
speed-change counts that back the paper's *explanations*.

Each sweep takes what to compute (a graph, a :class:`RunConfig` and
its x-values) and where to run it: an optional
:class:`~repro.experiments.engine.ExecutionContext`, the only source of
parallelism.  Pass one to share a persistent worker pool (and
optionally an on-disk evaluation cache) across several sweeps instead
of paying pool spin-up per sweep.  When a cache is attached, the
sweep's hit/miss counts land in ``series.meta["cache"]``.

Load and α sweeps always fuse into one array program
(:mod:`repro.experiments.fused`).  Processor-count and overhead sweeps
cannot fuse; their points fan out over the context's pool when it has
two or more workers, and otherwise run in a serial loop.

Every sweep also records the compile-side cache counters (program /
tape / stacked caches) in ``series.meta["kernel"]`` so a regenerated
figure states how it was computed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ParallelError
from ..graph.andor import AndOrGraph
from ..sim.kernels import kernel_meta
from ..types import SeriesResult
from ..workloads.scaling import application_with_load
from .engine import ExecutionContext
from .parallel import map_evaluations
from .runner import EvaluationResult, RunConfig
from .stats import summarize

#: the paper's sweep grid (figures plot 0.1 … 1.0)
DEFAULT_LOADS = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_ALPHAS = tuple(round(0.1 * i, 1) for i in range(1, 11))


def _series_from(name: str, x_label: str, xs: Sequence[float],
                 results: Sequence[EvaluationResult],
                 meta: Optional[Dict[str, object]] = None) -> SeriesResult:
    series = SeriesResult(name=name, x_label=x_label, meta=dict(meta or {}))
    for x, res in zip(xs, results):
        for scheme, arr in res.normalized.items():
            series.points.append(summarize(x, scheme, arr))
        # aligned [x, per-scheme-mean] pairs: duplicate x values stay
        # distinct and the floats round-trip JSON (read both formats
        # back with repro.types.speed_change_items)
        series.meta.setdefault("speed_changes", [])
        series.meta["speed_changes"].append(  # type: ignore[union-attr]
            [float(x), res.mean_speed_changes()])
    return series


def _cache_before(context: Optional[ExecutionContext]):
    """Snapshot of the context's cache/resilience counters."""
    if context is None:
        return None
    return context.cache_stats(), context.resilience_stats()


def _cache_meta(context: Optional[ExecutionContext], before,
                meta: Dict[str, object]) -> Dict[str, object]:
    """Add this sweep's cache hit/miss and recovery deltas to the meta.

    ``meta["cache"]`` carries the hit/miss/error/quarantine delta of
    the attached evaluation cache; ``meta["resilience"]`` the
    retry/rebuild/degradation/timeout/fallback delta of the execution
    context.  A regenerated figure thus records every recovery that
    happened while computing it.
    """
    if context is None or before is None:
        return meta
    cache_b, res_b = before
    cache_a = context.cache_stats()
    if cache_b is not None and cache_a is not None:
        meta["cache"] = {k: cache_a[k] - cache_b[k] for k in cache_a}
    res_a = context.resilience_stats()
    meta["resilience"] = {k: res_a[k] - res_b[k] for k in res_a}
    return meta


def _fused_meta(meta: Dict[str, object]) -> Dict[str, object]:
    """Record how the sweep's fused pass executed, if one ran.

    ``meta["fused"]`` carries the shard count, per-shard run counts,
    the transport (``inline``/``pool``) and the distinct ``draws`` and
    ``decodes`` of the most recent fused pass — popped, so one pass is
    never attributed to two sweeps.
    """
    from .fused import take_fused_meta
    fused = take_fused_meta()
    if fused is not None:
        meta["fused"] = fused
    return meta


def sweep_load(graph: AndOrGraph, config: RunConfig,
               loads: Sequence[float] = DEFAULT_LOADS,
               name: str = "load-sweep",
               context: Optional[ExecutionContext] = None) -> SeriesResult:
    """Normalized energy vs load (the Figure 4/5 x-axis).

    Load points share the graph shape, so the whole sweep compiles into
    one fused array program and runs in the parent with no pool at all,
    or sharded over ``context``'s pool when a shard request is set.  An
    invalid load raises :class:`~repro.errors.ParallelError` naming
    that ``load=``.
    """
    apps = []
    for ld in loads:
        try:
            apps.append(application_with_load(graph, ld, config.n_processors))
        except Exception as exc:
            raise ParallelError(f"load={ld!r}", exc) from exc
    before = _cache_before(context)
    results = map_evaluations(apps, config, context=context,
                              labels=[f"load={ld!r}" for ld in loads])
    return _series_from(name, "load", loads, results,
                        meta=_cache_meta(context, before, _fused_meta(
                                         {"app": graph.name,
                                          "power_model": config.power_model,
                                          "n_processors": config.n_processors,
                                          "n_runs": config.n_runs,
                                          "kernel": kernel_meta()})))


def sweep_alpha(graph_factory: Callable[[float], AndOrGraph],
                config: RunConfig, load: float,
                alphas: Sequence[float] = DEFAULT_ALPHAS,
                name: str = "alpha-sweep",
                context: Optional[ExecutionContext] = None) -> SeriesResult:
    """Normalized energy vs α at fixed load (the Figure 6 x-axis).

    ``graph_factory(alpha)`` must rebuild the application with every
    task's ACET set to ``α · WCET`` (WCETs unchanged, so the deadline —
    hence the load — is identical at every α).  α only rescales ACETs,
    so the points share section-program structure and the sweep fuses
    end-to-end.
    """
    apps = [application_with_load(graph_factory(a), load,
                                  config.n_processors)
            for a in alphas]
    before = _cache_before(context)
    results = map_evaluations(apps, config, context=context)
    return _series_from(name, "alpha", alphas, results,
                        meta=_cache_meta(context, before, _fused_meta(
                                         {"app": apps[0].name if apps else "?",
                                          "load": load,
                                          "power_model": config.power_model,
                                          "n_processors": config.n_processors,
                                          "n_runs": config.n_runs,
                                          "kernel": kernel_meta()})))


def sweep_processors(graph_builder: Callable[[], AndOrGraph],
                     config: RunConfig, load: float,
                     processor_counts: Sequence[int] = (2, 4, 6),
                     name: str = "processor-sweep",
                     context: Optional[ExecutionContext] = None
                     ) -> SeriesResult:
    """Normalized energy vs processor count at fixed load.

    Backs the paper's observation that "when the number of processors
    increases, the performance of the dynamic schemes decreases".
    Points differ in ``n_processors`` so they cannot fuse; they fan out
    over ``context``'s pool when it has two or more workers.
    """
    apps = []
    configs: List[RunConfig] = []
    for m in processor_counts:
        apps.append(application_with_load(graph_builder(), load, m))
        configs.append(config.with_(n_processors=m))
    before = _cache_before(context)
    results = map_evaluations(apps, configs, context=context,
                              labels=[f"n_processors={m}"
                                      for m in processor_counts])
    return _series_from(name, "processors",
                        [float(m) for m in processor_counts], results,
                        meta=_cache_meta(context, before,
                                         {"load": load,
                                          "power_model": config.power_model,
                                          "n_runs": config.n_runs,
                                          "kernel": kernel_meta()}))


def sweep_overhead(graph: AndOrGraph, config: RunConfig, load: float,
                   adjust_times: Sequence[float],
                   name: str = "overhead-sweep",
                   context: Optional[ExecutionContext] = None
                   ) -> SeriesResult:
    """Normalized energy vs voltage-switch overhead (ablation).

    The paper's future-work question: how sensitive are the schemes to
    the speed-adjustment cost?  Points differ in their overhead model so
    they cannot fuse; they fan out over ``context``'s pool when it has
    two or more workers.
    """
    apps = []
    configs = []
    for t_adj in adjust_times:
        configs.append(config.with_(
            overhead=config.overhead.with_(adjust_time=t_adj)))
        apps.append(application_with_load(graph, load, config.n_processors))
    before = _cache_before(context)
    results = map_evaluations(apps, configs, context=context,
                              labels=[f"adjust_time={t!r}"
                                      for t in adjust_times])
    return _series_from(name, "adjust_time",
                        [float(t) for t in adjust_times], results,
                        meta=_cache_meta(context, before,
                                         {"load": load, "app": graph.name,
                                          "power_model": config.power_model,
                                          "n_runs": config.n_runs,
                                          "kernel": kernel_meta()}))
