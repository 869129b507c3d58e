"""Load parameterization of applications.

The paper defines *load* as "the length of the canonical schedule for
the longest path over the deadline", so sweeping load means solving for
the deadline: ``D = T_worst / load``.  ``T_worst`` depends on the number
of processors (it is a list-schedule length), so an application instance
is tied to the processor count it was scaled for.
"""

from __future__ import annotations

from .. import obs
from ..errors import ConfigError
from ..graph.andor import AndOrGraph, Application
from ..graph.validate import validate_graph
from ..offline.plan import build_plan


def worst_case_length(graph: AndOrGraph, n_processors: int,
                      reserve: float = 0.0) -> float:
    """Canonical worst-case finish time of the longest path.

    Memoized on the graph per ``(n_processors, reserve)`` until the
    graph changes: a load sweep plans the graph once, not per load.
    """
    def plan_t_worst() -> float:
        probe = Application(graph=graph, deadline=1.0, name=graph.name)
        return build_plan(probe, n_processors, reserve=reserve,
                          require_feasible=False).t_worst
    return graph.memo(("t_worst", n_processors, float(reserve)),
                      plan_t_worst)


def average_case_length(graph: AndOrGraph, n_processors: int) -> float:
    """Probability-weighted average-case finish time (the profile's a)."""
    probe = Application(graph=graph, deadline=1.0, name=graph.name)
    plan = build_plan(probe, n_processors, reserve=0.0,
                      require_feasible=False)
    return plan.t_avg


@obs.span("workloads.app_with_load")
def application_with_load(graph: AndOrGraph, load: float,
                          n_processors: int,
                          name: str = "") -> Application:
    """Attach the deadline that yields the requested load.

    ``load`` must be in (0, 1]: load 1 leaves zero static slack, smaller
    loads stretch the deadline proportionally.
    """
    if not (0 < load <= 1.0):
        raise ConfigError(f"load must be in (0, 1], got {load}")
    validate_graph(graph)
    t_worst = worst_case_length(graph, n_processors)
    deadline = t_worst / load
    return Application(graph=graph, deadline=deadline,
                       name=name or graph.name,
                       meta={"load": load, "n_processors": n_processors,
                             "t_worst": t_worst})
