"""Regeneration of every figure in the paper's evaluation (Section 5).

Each ``figureN`` function reproduces the corresponding experiment and
returns one :class:`~repro.types.SeriesResult` per sub-figure (a =
Transmeta, b = Intel XScale):

* **Figure 4** — normalized energy vs load; ATR on 2 processors,
  α = 0.9 (the measured "little run-time slack" regime);
* **Figure 5** — same sweep on 6 processors, switch overhead 5 µs;
* **Figure 6** — normalized energy vs α; the Figure 3 synthetic
  application on 2 processors at load 0.9.

``fig_online`` extends the family beyond the paper: normalized energy
*and* deadline-miss ratio vs sporadic arrival rate, through the online
streaming simulator (:mod:`repro.experiments.online`).

``n_runs`` defaults to the paper's 1000; benches pass a smaller count.
The schemes plotted are the paper's five (SPM, GSS, SS1, SS2, AS); the
clairvoyant oracle can be appended for the extension benches.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.registry import PAPER_SCHEMES
from ..types import SeriesResult
from ..workloads.atr import AtrConfig, atr_graph
from ..workloads.synthetic import figure3_graph
from .online import DEFAULT_RATES, ONLINE_LOAD, OnlineConfig, \
    sweep_arrival_rate
from .runner import RunConfig
from .sweeps import DEFAULT_ALPHAS, DEFAULT_LOADS, sweep_alpha, sweep_load

#: the two power configurations of Section 2.3
PAPER_POWER_MODELS = ("transmeta", "xscale")

#: α the paper measured for ATR ("little slack from run-time behaviour")
ATR_ALPHA = 0.9

#: load used for the Figure 6 α sweep (the paper's text discusses SPM's
#: behaviour "with load = 0.9" on the XScale model)
FIG6_LOAD = 0.9


def _fig_config(n_runs: int, n_processors: int, power_model: str,
                schemes: Sequence[str], seed: int, *,
                engine: str = "compiled", max_retries: int = 2,
                chunk_timeout: float = 0.0,
                degrade: bool = True,
                shards: Optional[int] = None,
                shard_mem_mb: int = 0) -> RunConfig:
    return RunConfig(schemes=tuple(schemes), power_model=power_model,
                     n_processors=n_processors, n_runs=n_runs, seed=seed,
                     engine=engine, max_retries=max_retries,
                     chunk_timeout=chunk_timeout, degrade=degrade,
                     shards=shards, shard_mem_mb=shard_mem_mb)


def figure4(n_runs: int = 1000,
            loads: Sequence[float] = DEFAULT_LOADS,
            schemes: Sequence[str] = PAPER_SCHEMES,
            n_jobs: int = 1, seed: int = 2002,
            alpha: float = ATR_ALPHA,
            engine: str = "compiled",
            max_retries: int = 2,
            chunk_timeout: float = 0.0,
            degrade: bool = True,
            shards: Optional[int] = None,
            shard_mem_mb: int = 0,
            context=None, fused: bool = True) -> Dict[str, SeriesResult]:
    """Energy vs load, ATR, dual-processor (Figure 4a/4b).

    The default execution fuses each sub-figure's whole load sweep into
    one array program (``fused=True``).  ``n_jobs`` parallelizes across
    sweep points when fusion is off.  ``context`` (an
    :class:`~repro.experiments.engine.ExecutionContext`) shares one
    worker pool and evaluation cache across both sub-figures — and
    across figures, if the caller passes the same context to each.
    """
    out: Dict[str, SeriesResult] = {}
    graph = atr_graph(AtrConfig(alpha=alpha))
    for model in PAPER_POWER_MODELS:
        cfg = _fig_config(n_runs, 2, model, schemes, seed,
                          engine=engine, max_retries=max_retries,
                          chunk_timeout=chunk_timeout, degrade=degrade,
                          shards=shards, shard_mem_mb=shard_mem_mb)
        out[model] = sweep_load(graph, cfg, loads, n_jobs=n_jobs,
                                name=f"figure4-{model}", context=context,
                                fused=fused)
    return out


def figure5(n_runs: int = 1000,
            loads: Sequence[float] = DEFAULT_LOADS,
            schemes: Sequence[str] = PAPER_SCHEMES,
            n_jobs: int = 1, seed: int = 2002,
            alpha: float = ATR_ALPHA,
            engine: str = "compiled",
            max_retries: int = 2,
            chunk_timeout: float = 0.0,
            degrade: bool = True,
            shards: Optional[int] = None,
            shard_mem_mb: int = 0,
            context=None, fused: bool = True) -> Dict[str, SeriesResult]:
    """Energy vs load, ATR, 6 processors, overhead 5 µs (Figure 5a/5b).

    The ATR graph is widened (more simultaneous ROIs) so that six
    processors have parallelism to exploit; the paper notes that with
    more processors the scheduler forces idle time between tasks "for
    the sake of synchronization", which this configuration exhibits.
    """
    out: Dict[str, SeriesResult] = {}
    cfg_atr = AtrConfig(alpha=alpha, max_rois=6,
                        roi_probs=(0.05, 0.15, 0.20, 0.20, 0.15, 0.15, 0.10))
    graph = atr_graph(cfg_atr)
    for model in PAPER_POWER_MODELS:
        cfg = _fig_config(n_runs, 6, model, schemes, seed,
                          engine=engine, max_retries=max_retries,
                          chunk_timeout=chunk_timeout, degrade=degrade,
                          shards=shards, shard_mem_mb=shard_mem_mb)
        out[model] = sweep_load(graph, cfg, loads, n_jobs=n_jobs,
                                name=f"figure5-{model}", context=context,
                                fused=fused)
    return out


def figure6(n_runs: int = 1000,
            alphas: Sequence[float] = DEFAULT_ALPHAS,
            schemes: Sequence[str] = PAPER_SCHEMES,
            n_jobs: int = 1, seed: int = 2002,
            load: float = FIG6_LOAD,
            engine: str = "compiled",
            max_retries: int = 2,
            chunk_timeout: float = 0.0,
            degrade: bool = True,
            shards: Optional[int] = None,
            shard_mem_mb: int = 0,
            context=None, fused: bool = True) -> Dict[str, SeriesResult]:
    """Energy vs α, synthetic application, dual-processor (Figure 6a/6b).

    ``context`` (an :class:`~repro.experiments.engine.ExecutionContext`)
    shares one worker pool and evaluation cache across both sub-figures.
    """
    out: Dict[str, SeriesResult] = {}
    for model in PAPER_POWER_MODELS:
        cfg = _fig_config(n_runs, 2, model, schemes, seed,
                          engine=engine, max_retries=max_retries,
                          chunk_timeout=chunk_timeout, degrade=degrade,
                          shards=shards, shard_mem_mb=shard_mem_mb)
        out[model] = sweep_alpha(figure3_graph, cfg, load, alphas,
                                 n_jobs=n_jobs, name=f"figure6-{model}",
                                 context=context, fused=fused)
    return out


def fig_online(n_runs: int = 1000,
               rates: Sequence[float] = DEFAULT_RATES,
               schemes: Sequence[str] = PAPER_SCHEMES,
               n_jobs: int = 1, seed: int = 2002,
               load: float = ONLINE_LOAD,
               arrival: str = "poisson",
               engine: str = "compiled",
               max_retries: int = 2,
               chunk_timeout: float = 0.0,
               degrade: bool = True,
               shards: Optional[int] = None,
               shard_mem_mb: int = 0,
               context=None, fused: bool = True) -> Dict[str, SeriesResult]:
    """Energy and deadline-miss ratio vs sporadic arrival rate (online).

    One independent stream per rate point (Figure 3's synthetic
    application, 2 processors, per-job relative deadline fixed by
    ``load``), all fanned out through ``context`` like any other sweep.
    ``n_runs`` sets the *expected arrivals per point*
    (``OnlineConfig.target_arrivals``), so every rate sees comparable
    statistics; the miss/admit/reject ledger lands in
    ``series.meta["online"]``.  ``fused`` is accepted for signature
    compatibility — streams are sequential by nature and never fuse.
    """
    del fused  # accepted for uniform figure signature, not meaningful
    out: Dict[str, SeriesResult] = {}
    online = OnlineConfig(arrival=arrival, load=load,
                          target_arrivals=n_runs)
    for model in PAPER_POWER_MODELS:
        cfg = _fig_config(n_runs, 2, model, schemes, seed,
                          engine=engine, max_retries=max_retries,
                          chunk_timeout=chunk_timeout, degrade=degrade,
                          shards=shards, shard_mem_mb=shard_mem_mb)
        out[model] = sweep_arrival_rate(figure3_graph(), cfg, online,
                                        rates, n_jobs=n_jobs,
                                        name=f"fig-online-{model}",
                                        context=context)
    return out


ALL_FIGURES = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig_online": fig_online,
}
