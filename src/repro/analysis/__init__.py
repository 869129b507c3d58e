"""Analysis tools: trace verification, critical paths, slack, bounds.

* :func:`verify_trace` / :func:`assert_valid_trace` — an independent
  oracle for simulated schedules (used heavily by the test suite);
* :func:`graph_metrics` / :func:`all_path_metrics` — work, span and
  parallelism per execution path;
* :func:`slack_profile` / :func:`realized_runtime_slack` — static vs
  dynamic slack decomposition;
* :func:`continuous_uniform_bound` / :func:`static_bound` — idealized
  uniform-speed reference energies (estimates, not lower bounds) the
  schemes can be calibrated against.
"""

from .bounds import continuous_uniform_bound, npm_energy, static_bound
from .critical import (
    GraphMetrics,
    PathMetrics,
    all_path_metrics,
    graph_metrics,
    path_metrics,
    section_span,
    section_work,
)
from .slack import (
    SlackProfile,
    lst_headroom,
    realized_runtime_slack,
    slack_profile,
)
from .verify import assert_valid_trace, executed_sections, verify_trace

__all__ = [
    "verify_trace",
    "assert_valid_trace",
    "executed_sections",
    "GraphMetrics",
    "PathMetrics",
    "graph_metrics",
    "path_metrics",
    "all_path_metrics",
    "section_span",
    "section_work",
    "SlackProfile",
    "slack_profile",
    "realized_runtime_slack",
    "lst_headroom",
    "continuous_uniform_bound",
    "static_bound",
    "npm_energy",
]
