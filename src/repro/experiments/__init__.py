"""The Monte-Carlo experiment harness (Section 5 of the paper).

* :class:`RunConfig` / :func:`evaluate_application` — one evaluation,
* :mod:`~repro.experiments.sweeps` — load/α/processor/overhead sweeps,
* :mod:`~repro.experiments.figures` — Figure 4/5/6 regeneration,
* :mod:`~repro.experiments.tables` — Table 1/2 regeneration,
* :mod:`~repro.experiments.report` — text/CSV rendering,
* :mod:`~repro.experiments.parallel` — process-pool fan-out,
* :mod:`~repro.experiments.engine` — persistent sweep-scale execution
  (one worker pool + evaluation cache),
* :mod:`~repro.experiments.evalcache` — content-addressed on-disk
  cache of evaluation points (with corrupt-entry quarantine),
* :mod:`~repro.experiments.faults` — deterministic fault injection
  for the chaos test suite (:class:`FaultPlan`/:class:`FaultSpec`),
* :mod:`~repro.experiments.online` — the sporadic-arrival streaming
  simulator with admission control (:func:`simulate_online`,
  :func:`sweep_arrival_rate`, the ``fig_online`` figure family).

Resilience: :class:`RetryPolicy` (surfaced as the ``max_retries`` /
``degrade`` fields of :class:`RunConfig`) governs how often the
execution engine rebuilds a pool whose worker died before degrading to
serial execution in the parent; every recovery is counted in the
sweep's :mod:`repro.obs` recording, ``series.meta["obs"]``.
"""

from .chart import render_chart, render_charts
from .compare import (
    PairedComparison,
    compare_all,
    paired_comparison,
    render_comparison,
    win_matrix,
)
from .distribution import (
    DistributionSummary,
    render_distributions,
    render_histogram,
    result_distributions,
    summarize_distribution,
)
from .engine import ExecutionContext, RetryPolicy
from .evalcache import EvaluationCache, evaluation_key
from .faults import FaultPlan, FaultSpec
from .exact import ExactResult, exact_evaluation, render_exact
from .figures import (
    ALL_FIGURES,
    ATR_ALPHA,
    FIG6_LOAD,
    PAPER_POWER_MODELS,
    fig_online,
    figure4,
    figure5,
    figure6,
)
from .online import (
    DEFAULT_RATES,
    ONLINE_LOAD,
    OnlineConfig,
    OnlineResult,
    StreamStats,
    render_online_report,
    simulate_online,
    sweep_arrival_rate,
)
from .persist import (
    load_evaluation,
    load_series,
    merge_series,
    save_evaluation,
    save_series,
)
from .misprofile import (
    MisprofileResult,
    misprofile_evaluation,
    render_misprofile,
)
from .parallel import map_custom, map_evaluations, resolve_jobs
from .report import (
    render_online_meta,
    render_series,
    render_speed_changes,
    series_to_csv,
)
from .runner import EvaluationResult, RunConfig, build_plans, evaluate_application
from .stats import paired_ratio, summarize, summarize_all
from .suite import SuiteConfig, SuiteResult, default_workloads, render_suite, run_suite
from .sweeps import (
    DEFAULT_ALPHAS,
    DEFAULT_LOADS,
    sweep_alpha,
    sweep_load,
    sweep_overhead,
    sweep_processors,
)
from .tables import all_tables, table1, table2

__all__ = [
    "RunConfig",
    "EvaluationResult",
    "evaluate_application",
    "build_plans",
    "sweep_load",
    "sweep_alpha",
    "sweep_processors",
    "sweep_overhead",
    "DEFAULT_LOADS",
    "DEFAULT_ALPHAS",
    "figure4",
    "figure5",
    "figure6",
    "fig_online",
    "ALL_FIGURES",
    "OnlineConfig",
    "OnlineResult",
    "StreamStats",
    "simulate_online",
    "sweep_arrival_rate",
    "render_online_report",
    "render_online_meta",
    "DEFAULT_RATES",
    "ONLINE_LOAD",
    "PAPER_POWER_MODELS",
    "ATR_ALPHA",
    "FIG6_LOAD",
    "table1",
    "table2",
    "all_tables",
    "render_series",
    "render_chart",
    "render_charts",
    "render_speed_changes",
    "series_to_csv",
    "summarize",
    "summarize_all",
    "paired_ratio",
    "PairedComparison",
    "paired_comparison",
    "compare_all",
    "render_comparison",
    "win_matrix",
    "SuiteConfig",
    "SuiteResult",
    "run_suite",
    "render_suite",
    "default_workloads",
    "DistributionSummary",
    "summarize_distribution",
    "result_distributions",
    "render_distributions",
    "render_histogram",
    "ExactResult",
    "exact_evaluation",
    "render_exact",
    "MisprofileResult",
    "misprofile_evaluation",
    "render_misprofile",
    "map_custom",
    "map_evaluations",
    "resolve_jobs",
    "ExecutionContext",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "EvaluationCache",
    "evaluation_key",
    "save_series",
    "load_series",
    "merge_series",
    "save_evaluation",
    "load_evaluation",
]
