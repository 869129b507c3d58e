"""The per-graph planning memo: results that depend only on the graph.

``graph_fingerprint``, ``validate_graph`` (the section structure) and
``worst_case_length`` (``T_worst``) are memoized on the graph until it
changes.  Every mutator and a rename must drop them, a failing check
must fail again on the next call, and neither a copy nor a pickle may
carry the memo along.
"""

import copy
import pickle

import pytest

import repro.workloads.scaling as scaling
from repro.errors import ValidationError
from repro.graph import AndOrGraph, Application, validate_graph
from repro.graph.nodes import computation
from repro.offline import graph_fingerprint
from repro.workloads import application_with_load, worst_case_length

#: the pickled state of a graph: its content, never the memo or stamp
GRAPH_STATE = {"name", "_nodes", "_succs", "_preds", "_branch_probs"}


def small_graph(name="g"):
    """A → J ← B (AND join), then OR O picks C (0.4) or D (0.6)."""
    g = AndOrGraph(name)
    g.add_computation("A", 4.0, 2.0)
    g.add_computation("B", 3.0, 1.0)
    g.add_and("J")
    g.add_or("O")
    g.add_computation("C", 5.0, 2.0)
    g.add_computation("D", 2.0, 1.0)
    for u, v in (("A", "J"), ("B", "J"), ("J", "O"), ("O", "C"),
                 ("O", "D")):
        g.add_edge(u, v)
    g.set_branch_probability("O", "C", 0.4)
    g.set_branch_probability("O", "D", 0.6)
    return g


@pytest.fixture()
def plan_calls(monkeypatch):
    """Counts the offline plans ``worst_case_length`` builds."""
    calls = []
    orig = scaling.build_plan

    def spy(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(scaling, "build_plan", spy)
    return calls


def _structure_or_none(graph):
    try:
        return validate_graph(graph)
    except ValidationError:
        return None


def _t_worst_or_none(graph):
    try:
        return worst_case_length(graph, 2)
    except ValidationError:
        return None


MUTATIONS = {
    "add_node": lambda g: g.add_node(computation("E", 1.0, 1.0)),
    "add_computation": lambda g: g.add_computation("E", 1.0, 1.0),
    "add_and": lambda g: g.add_and("X"),
    "add_or": lambda g: g.add_or("Y"),
    "add_edge": lambda g: g.add_edge("A", "B"),
    "set_branch_probability":
        lambda g: g.set_branch_probability("O", "C", 0.3),
    "rename": lambda g: setattr(g, "name", "renamed"),
}


class TestInvalidation:
    def test_repeated_calls_are_served_by_the_memo(self, plan_calls):
        g = small_graph()
        s = validate_graph(g)
        assert validate_graph(g) is s
        assert graph_fingerprint(g) == graph_fingerprint(g)
        assert worst_case_length(g, 2) == worst_case_length(g, 2) == 9.0
        assert plan_calls == [2]
        worst_case_length(g, 3)  # another processor count: its own entry
        worst_case_length(g, 2, reserve=0.5)  # another reserve too
        worst_case_length(g, 3)
        assert plan_calls == [2, 3, 2]

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_change_drops_the_memo(self, mutation, plan_calls):
        g = small_graph()
        fp = graph_fingerprint(g)
        structure = validate_graph(g)
        worst_case_length(g, 2)
        assert len(plan_calls) == 1

        MUTATIONS[mutation](g)

        assert graph_fingerprint(g) != fp
        assert _structure_or_none(g) is not structure
        _t_worst_or_none(g)
        assert len(plan_calls) == 2  # T_worst was planned again
        # whatever is memoized now equals a fresh computation
        fresh = g.copy()
        assert graph_fingerprint(g) == graph_fingerprint(fresh)
        assert _t_worst_or_none(g) == _t_worst_or_none(fresh)

    def test_changed_t_worst_is_recomputed(self):
        g = small_graph()
        assert worst_case_length(g, 2) == 9.0  # max(A, B) + C
        g.add_edge("A", "B")
        assert worst_case_length(g, 2) == 12.0  # A + B + C

    def test_load_deadline_follows_the_changed_graph(self):
        g = small_graph()
        assert application_with_load(g, 0.5, 2).deadline == 18.0
        g.add_edge("A", "B")
        assert application_with_load(g, 0.5, 2).deadline == 24.0


class TestInvalidGraph:
    def test_raises_on_every_call_and_after_each_break(self):
        g = small_graph()
        g.set_branch_probability("O", "C", 0.5)  # sums to 1.1
        for _ in range(2):
            with pytest.raises(ValidationError, match="sum to"):
                validate_graph(g)
        g.set_branch_probability("O", "C", 0.4)  # fixed
        structure = validate_graph(g)
        assert validate_graph(g) is structure
        g.set_branch_probability("O", "C", 0.5)  # broken again
        for _ in range(2):
            with pytest.raises(ValidationError, match="sum to"):
                validate_graph(g)
            with pytest.raises(ValidationError, match="sum to"):
                application_with_load(g, 0.5, 2)

    def test_cycle_raises_every_time(self):
        g = small_graph()
        g.add_edge("C", "A")  # A → J → O → C → A
        for _ in range(2):
            with pytest.raises(ValidationError):
                validate_graph(g)


def _warm(graph):
    graph_fingerprint(graph)
    validate_graph(graph)
    worst_case_length(graph, 2)
    assert graph._memo


class TestCopyAndPickle:
    def test_copy_starts_empty(self, plan_calls):
        g = small_graph()
        _warm(g)
        c = g.copy()
        assert not c._memo
        assert validate_graph(c).graph is c
        assert graph_fingerprint(c) == graph_fingerprint(g)
        worst_case_length(c, 2)
        assert len(plan_calls) == 2

    @pytest.mark.parametrize("clone", [
        lambda g: pickle.loads(pickle.dumps(g)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_round_trip_starts_empty(self, clone, plan_calls):
        g = small_graph()
        _warm(g)
        c = clone(g)
        assert not c._memo
        assert validate_graph(c).graph is c
        worst_case_length(c, 2)
        assert len(plan_calls) == 2
        # the copy's memo follows its own changes, not the original's
        c.add_edge("A", "B")
        assert worst_case_length(c, 2) == 12.0
        assert worst_case_length(g, 2) == 9.0

    def test_pickled_state_is_the_graph_content(self):
        g = small_graph()
        _warm(g)
        assert set(g.__getstate__()) == GRAPH_STATE

    def test_pickled_application_does_not_grow(self):
        cold = Application(graph=small_graph(), deadline=20.0)
        warm = Application(graph=small_graph(), deadline=20.0)
        _warm(warm.graph)
        assert pickle.dumps(warm) == pickle.dumps(cold)
