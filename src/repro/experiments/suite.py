"""The comprehensive evaluation suite.

One entry point that runs *every* workload (the paper's two plus the
library families) under every scheme on both processor models, with
paired statistics — the "does the conclusion generalize?" experiment
the paper's conclusion invites.  Powers ``python -m repro suite``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.registry import PAPER_SCHEMES
from ..errors import ConfigError
from ..graph.andor import AndOrGraph
from ..workloads.atr import atr_graph
from ..workloads.library import LIBRARY
from ..workloads.scaling import application_with_load
from ..workloads.synthetic import figure3_graph
from .compare import compare_all, win_matrix
from .parallel import map_evaluations
from .runner import EvaluationResult, RunConfig

#: default workload set: the paper's two + the library zoo
def default_workloads() -> Dict[str, Callable[[], AndOrGraph]]:
    zoo: Dict[str, Callable[[], AndOrGraph]] = {
        "atr": atr_graph,
        "fig3": figure3_graph,
    }
    zoo.update(LIBRARY)
    return zoo


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of one suite run."""

    schemes: Tuple[str, ...] = PAPER_SCHEMES
    models: Tuple[str, ...] = ("transmeta", "xscale")
    loads: Tuple[float, ...] = (0.4, 0.7)
    n_processors: int = 2
    n_runs: int = 300
    seed: int = 2002
    #: resilience knobs forwarded into every cell's RunConfig (see
    #: :class:`~repro.experiments.engine.RetryPolicy`)
    max_retries: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if not self.schemes or not self.models or not self.loads:
            raise ConfigError("schemes, models and loads must be non-empty")


@dataclass
class SuiteResult:
    """All evaluations of one suite run, keyed (workload, model, load)."""

    config: SuiteConfig
    cells: Dict[Tuple[str, str, float], EvaluationResult] = \
        field(default_factory=dict)

    def mean(self, workload: str, model: str, load: float,
             scheme: str) -> float:
        return float(
            self.cells[(workload, model, load)].normalized[scheme].mean())

    def overall_wins(self) -> Dict[str, int]:
        """Significant pairwise wins per scheme, summed over all cells."""
        total: Dict[str, int] = {}
        for res in self.cells.values():
            for scheme, wins in win_matrix(compare_all(res)).items():
                total[scheme] = total.get(scheme, 0) + wins
        return total


def run_suite(config: Optional[SuiteConfig] = None,
              workloads: Optional[Dict[str, Callable[[], AndOrGraph]]]
              = None, context=None) -> SuiteResult:
    """Evaluate every (workload, model, load) cell.

    ``context`` (an :class:`~repro.experiments.engine.ExecutionContext`)
    fans the cells out over its worker pool and, when one is attached,
    shares the on-disk evaluation cache across all cells.  Cell values
    are bit-identical for every worker count and cache state.
    """
    cfg = config or SuiteConfig()
    zoo = workloads if workloads is not None else default_workloads()
    if not zoo:
        raise ConfigError("no workloads to evaluate")
    out = SuiteResult(config=cfg)
    keys = []
    apps = []
    configs = []
    for name, graph_fn in zoo.items():
        graph = graph_fn()
        for model in cfg.models:
            for load in cfg.loads:
                keys.append((name, model, load))
                apps.append(application_with_load(graph, load,
                                                  cfg.n_processors))
                configs.append(RunConfig(schemes=cfg.schemes,
                                         power_model=model,
                                         n_processors=cfg.n_processors,
                                         n_runs=cfg.n_runs, seed=cfg.seed,
                                         max_retries=cfg.max_retries,
                                         degrade=cfg.degrade))
    labels = [f"workload={wl!r} model={model} load={load!r}"
              for wl, model, load in keys]
    results = map_evaluations(apps, configs, context=context, labels=labels)
    out.cells.update(zip(keys, results))
    return out


def render_suite(result: SuiteResult) -> str:
    """One row per (workload, model, load); one column per scheme."""
    cfg = result.config
    schemes = list(cfg.schemes)
    lines: List[str] = []
    header = (f"{'workload':>9} {'model':>10} {'load':>5} | "
              + " ".join(f"{s:>6}" for s in schemes))
    lines.append(header)
    lines.append("-" * len(header))
    for (wl, model, load), res in sorted(result.cells.items()):
        means = res.mean_normalized()
        row = " ".join(f"{means[s]:6.3f}" for s in schemes)
        lines.append(f"{wl:>9} {model:>10} {load:>5.2f} | {row}")
    wins = result.overall_wins()
    ranked = sorted(wins.items(), key=lambda kv: -kv[1])
    lines.append("")
    lines.append("significant pairwise wins (paired t-test, p<0.05): "
                 + ", ".join(f"{s}={w}" for s, w in ranked))
    return "\n".join(lines) + "\n"
