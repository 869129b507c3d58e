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

from typing import Dict, Mapping, Sequence

from ..errors import ConfigError
from ..types import SeriesResult
from ..workloads.atr import AtrConfig, atr_graph
from ..workloads.synthetic import figure3_graph
from .online import DEFAULT_RATES, ONLINE_LOAD, OnlineConfig, \
    sweep_arrival_rate
from .runner import RunConfig
from .sweeps import sweep_alpha, sweep_load

#: the two power configurations of Section 2.3
PAPER_POWER_MODELS = ("transmeta", "xscale")

#: α the paper measured for ATR ("little slack from run-time behaviour")
ATR_ALPHA = 0.9

#: load used for the Figure 6 α sweep (the paper's text discusses SPM's
#: behaviour "with load = 0.9" on the XScale model)
FIG6_LOAD = 0.9


#: RunConfig fields that define every figure and cannot be overridden
_FIXED = frozenset({"power_model", "n_processors"})


def _model_configs(n_processors: int, n_runs: int, seed: int,
                   overrides: Mapping[str, object],
                   fixed_fields: frozenset = _FIXED) -> Dict[str, RunConfig]:
    """One config per sub-figure: the figure's base plus ``overrides``.

    Overriding one of ``fixed_fields`` (by default the power model and
    processor count, which define the figure) raises
    :class:`~repro.errors.ConfigError`, as does a name that is not a
    :class:`RunConfig` field.
    """
    fixed = sorted(fixed_fields & set(overrides))
    if fixed:
        raise ConfigError(
            f"the figure fixes {', '.join(fixed)}; it cannot be overridden")
    return {model: RunConfig(power_model=model, n_processors=n_processors,
                             n_runs=n_runs, seed=seed).with_(**overrides)
            for model in PAPER_POWER_MODELS}


def figure4(n_runs: int = 1000, seed: int = 2002, context=None,
            **overrides) -> Dict[str, SeriesResult]:
    """Energy vs load, ATR, dual-processor (Figure 4a/4b).

    ``overrides`` are :class:`RunConfig` fields (``schemes``,
    ``engine``, ``shards``, ...) applied to both sub-figures' configs.
    ``context`` (an :class:`~repro.experiments.engine.ExecutionContext`)
    says where the sweeps run: it shares one worker pool and evaluation
    cache across both sub-figures, and across figures if the caller
    passes the same context to each.  Each sub-figure's load sweep
    fuses into one array program.
    """
    graph = atr_graph(AtrConfig(alpha=ATR_ALPHA))
    return {model: sweep_load(graph, cfg, name=f"figure4-{model}",
                              context=context)
            for model, cfg in _model_configs(2, n_runs, seed,
                                             overrides).items()}


def figure5(n_runs: int = 1000, seed: int = 2002, context=None,
            **overrides) -> Dict[str, SeriesResult]:
    """Energy vs load, ATR, 6 processors, overhead 5 µs (Figure 5a/5b).

    The ATR graph is widened (more simultaneous ROIs) so that six
    processors have parallelism to exploit; the paper notes that with
    more processors the scheduler forces idle time between tasks "for
    the sake of synchronization", which this configuration exhibits.
    Parameters as for :func:`figure4`.
    """
    graph = atr_graph(AtrConfig(
        alpha=ATR_ALPHA, max_rois=6,
        roi_probs=(0.05, 0.15, 0.20, 0.20, 0.15, 0.15, 0.10)))
    return {model: sweep_load(graph, cfg, name=f"figure5-{model}",
                              context=context)
            for model, cfg in _model_configs(6, n_runs, seed,
                                             overrides).items()}


def figure6(n_runs: int = 1000, seed: int = 2002, context=None,
            **overrides) -> Dict[str, SeriesResult]:
    """Energy vs α, synthetic application, dual-processor (Figure 6a/6b).

    Swept at load :data:`FIG6_LOAD`; parameters as for :func:`figure4`.
    """
    return {model: sweep_alpha(figure3_graph, cfg, FIG6_LOAD,
                               name=f"figure6-{model}", context=context)
            for model, cfg in _model_configs(2, n_runs, seed,
                                             overrides).items()}


def fig_online(n_runs: int = 1000, seed: int = 2002,
               rates: Sequence[float] = DEFAULT_RATES,
               arrival: str = "poisson", load: float = ONLINE_LOAD,
               context=None, **overrides) -> Dict[str, SeriesResult]:
    """Energy and deadline-miss ratio vs sporadic arrival rate (online).

    One independent stream per rate point (Figure 3's synthetic
    application, 2 processors, per-job relative deadline fixed by
    ``load``), fanned out through ``context`` like any other sweep.
    ``n_runs`` sets the *expected arrivals per point*
    (``OnlineConfig.target_arrivals``), so every rate sees comparable
    statistics; the miss/admit/reject ledger lands in
    ``series.meta["online"]``.  ``overrides`` as for :func:`figure4`,
    except ``shards``/``shard_mem_mb``: streams never fuse, so they are
    rejected.
    """
    online = OnlineConfig(arrival=arrival, load=load,
                          target_arrivals=n_runs)
    return {model: sweep_arrival_rate(figure3_graph(), cfg, online, rates,
                                      name=f"fig-online-{model}",
                                      context=context)
            for model, cfg in _model_configs(
                2, n_runs, seed, overrides,
                _FIXED | {"shards", "shard_mem_mb"}).items()}


ALL_FIGURES = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig_online": fig_online,
}
