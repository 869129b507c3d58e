"""Shared fixtures: small canonical graphs, power models, plans.

Also registers the hypothesis profiles: ``repro`` (the default) disables
the per-example deadline — equivalence fuzzing simulates whole
applications per example, and a deadline would turn slow-but-correct
examples into flaky failures — while ``ci`` inherits it with a smaller
example budget for the time-boxed coverage job.  Select with
``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile(
    "repro", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
hypothesis_settings.register_profile(
    "ci", parent=hypothesis_settings.get_profile("repro"), max_examples=25)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "repro"))

from repro.graph import GraphBuilder, validate_graph
from repro.power import (
    NO_OVERHEAD,
    PAPER_OVERHEAD,
    ContinuousPowerModel,
    transmeta_model,
    xscale_model,
)


def _backend_params():
    """The execution backends the chaos/equivalence tiers run against.

    ``REPRO_TEST_BACKENDS`` (comma-separated) restricts the matrix —
    CI pins one job to ``local`` and one to ``dispatch`` so a dispatch
    hang cannot mask a local regression (and vice versa).  The default
    runs both, which is the acceptance bar: every parametrized test
    must pass bit-identically under each backend.
    """
    names = os.environ.get("REPRO_TEST_BACKENDS", "local,dispatch")
    return [n.strip() for n in names.split(",") if n.strip()]


@pytest.fixture(params=_backend_params())
def backend(request, monkeypatch):
    """Route owned execution contexts through one backend per param.

    Patches the session defaults (``engine.DEFAULT_BACKEND`` /
    ``engine.DEFAULT_EXECUTORS``) rather than each call site, so tests
    that build sweeps through any API — contextless ``sweep_load``,
    explicit contexts with ``n_jobs>1``, figure functions — pick the
    backend up with no per-test edits.  Contexts constructed with an
    explicit ``n_jobs=1`` keep resolving to one executor and therefore
    stay on the local path by design (the dispatcher only engages at
    two or more executors).
    """
    from repro.experiments import engine
    monkeypatch.setattr(engine, "DEFAULT_BACKEND", request.param)
    if request.param == "dispatch":
        monkeypatch.setattr(engine, "DEFAULT_EXECUTORS", 2)
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def transmeta():
    return transmeta_model()


@pytest.fixture
def xscale():
    return xscale_model()


@pytest.fixture
def continuous():
    return ContinuousPowerModel(s_min=0.1)


@pytest.fixture
def paper_overhead():
    return PAPER_OVERHEAD


@pytest.fixture
def no_overhead():
    return NO_OVERHEAD


def build_chain_graph(n: int = 3, wcet: float = 10.0, acet: float = 5.0):
    """A linear chain T0 -> T1 -> ... (single section, no OR nodes)."""
    b = GraphBuilder("chain")
    prev = None
    for i in range(n):
        b.task(f"T{i}", wcet, acet, after=[prev] if prev else None)
        prev = f"T{i}"
    return b.build_graph()


def build_fork_graph():
    """One AND fork/join: A -> A1 -> (B, C) -> A2 -> D."""
    b = GraphBuilder("fork")
    b.task("A", 8, 5)
    b.and_split("A1", after="A", branches=[("B", 5, 3), ("C", 4, 2)])
    b.and_join("A2", ["B", "C"])
    b.task("D", 5, 3, after=["A2"])
    return b.build_graph()


def build_or_graph():
    """One OR branch/merge: A -> O1 -> (B 30% | C 70%) -> O2 -> D."""
    b = GraphBuilder("orapp")
    b.task("A", 8, 5)
    b.or_branch("O1", after="A", paths={"B": ((8, 6), 0.3),
                                        "C": ((5, 3), 0.7)})
    b.or_merge("O2", ["B", "C"])
    b.task("D", 5, 3, after=["O2"])
    return b.build_graph()


def build_nested_or_graph():
    """Two chained OR branches (nested speculation opportunities)."""
    b = GraphBuilder("nested")
    b.task("A", 6, 3)
    b.or_branch("O1", after="A", paths={"B": ((10, 5), 0.4),
                                        "C": ((4, 2), 0.6)})
    b.or_merge("O2", ["B", "C"])
    b.task("D", 5, 2, after=["O2"])
    b.or_branch("O3", after="D", paths={"E": ((8, 4), 0.5),
                                        "F": ((2, 1), 0.5)})
    b.or_merge("O4", ["E", "F"])
    b.task("G", 3, 1.5, after=["O4"])
    return b.build_graph()


@pytest.fixture
def chain_graph():
    return build_chain_graph()


@pytest.fixture
def fork_graph():
    return build_fork_graph()


@pytest.fixture
def or_graph():
    return build_or_graph()


@pytest.fixture
def nested_or_graph():
    return build_nested_or_graph()


@pytest.fixture
def or_structure(or_graph):
    return validate_graph(or_graph)
