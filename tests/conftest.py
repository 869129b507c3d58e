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
from pathlib import Path

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


def _cache_files(root: Path):
    """Every file under ``root``, or ``None`` when it does not exist."""
    if not root.exists():
        return None
    return {p for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="session", autouse=True)
def no_default_cache_writes():
    """Fail the session if it wrote the default evaluation cache.

    Figure and suite commands cache evaluations in ``.repro-cache/``
    under the working directory unless given ``--cache-dir`` or
    ``--no-cache``; a test that forgets both leaves the checkout dirty
    and reads entries a previous run left behind.
    """
    root = Path(".repro-cache")
    before = _cache_files(root)
    yield
    after = _cache_files(root)
    if after is not None and after != before:
        changed = sorted(str(p) for p in after ^ (before or set()))
        pytest.fail(f"the test session wrote {root}/ in the working "
                    f"directory ({len(changed)} file(s) added or removed, "
                    f"e.g. {changed[:3]}); give the command a --cache-dir "
                    f"under tmp_path or --no-cache", pytrace=False)


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
