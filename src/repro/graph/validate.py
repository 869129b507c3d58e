"""Whole-graph validation.

:func:`validate_graph` is the single entry point; it checks everything the
rest of the library assumes so that downstream code (offline phase,
simulator) can operate without re-checking:

* the graph is non-empty and acyclic;
* computation nodes carry timing statistics, sync nodes do not (enforced
  at construction, re-checked here for graphs built by deserialization);
* AND nodes have at least one predecessor and one successor *or* are
  explicitly allowed as pass-throughs at graph boundaries;
* the OR structure obeys the section rules (delegated to
  :class:`~repro.graph.sections.SectionStructure`);
* branch probabilities of every branching OR node sum to one.
"""

from __future__ import annotations

from typing import List

from ..errors import ValidationError, GraphError
from .andor import AndOrGraph, Application
from .sections import SectionStructure


def validate_graph(graph: AndOrGraph) -> SectionStructure:
    """Validate ``graph``; returns its section structure on success.

    Raises :class:`ValidationError` with an explanatory message on the
    first violated rule.  A valid graph is validated once per graph
    state: the structure is memoized on the graph until it changes
    (:meth:`~repro.graph.andor.AndOrGraph.memo`), and an invalid graph
    raises on every call.  Callers share the returned structure and
    must not modify it.
    """
    return graph.memo("validate_graph", lambda: _validate(graph))


def _validate(graph: AndOrGraph) -> SectionStructure:
    problems = basic_problems(graph)
    if problems:
        raise ValidationError("; ".join(problems))
    try:
        graph.topological_order()
    except GraphError as exc:
        raise ValidationError(str(exc)) from exc
    try:
        structure = SectionStructure(graph)
    except GraphError as exc:
        raise ValidationError(str(exc)) from exc
    return structure


def basic_problems(graph: AndOrGraph) -> List[str]:
    """Cheap structural checks; returns a list of problems (empty = OK)."""
    problems: List[str] = []
    if len(graph) == 0:
        problems.append("graph is empty")
        return problems
    if not graph.computation_nodes():
        problems.append("graph has no computation nodes")
    for node in graph:
        if node.is_computation and node.stats is None:  # pragma: no cover
            problems.append(f"computation node {node.name!r} lacks stats")
        if node.is_and and not graph.predecessors(node.name) \
                and not graph.successors(node.name):
            problems.append(f"AND node {node.name!r} is isolated")
    return problems


def validate_application(app: Application) -> SectionStructure:
    """Validate an application's graph and its deadline."""
    if app.deadline <= 0:
        raise ValidationError(f"deadline must be positive, got {app.deadline}")
    return validate_graph(app.graph)
