"""Randomized chaos: seed-derived fault plans never change results.

Each case builds a :meth:`FaultPlan.random` schedule from a small
integer seed and runs the same cached sweep twice under it — once
against a cold cache (faults land in the dispatch path) and once warm
(faults land in the cache-read path).  Whatever the plan injected, both
sweeps must equal the fault-free serial reference exactly.  On failure
the assertion message carries ``plan.describe()``; rebuilding the plan
from the printed seed (with a fresh scratch directory) replays the
exact fault schedule.
"""

import warnings

import pytest

from repro.experiments import EvaluationCache, ExecutionContext, RunConfig
from repro.experiments.faults import FaultPlan
from repro.experiments.sweeps import sweep_load, sweep_overhead
from tests.conftest import build_nested_or_graph

SEEDS = (0, 1, 2, 3, 4, 5)
LOADS = (0.3, 0.6, 0.9)
#: ten switch overheads: an overhead sweep cannot fuse, so its points
#: go out on the pool dispatch path the worker-chunk faults target
ADJUST_TIMES = [round(0.001 * i, 3) for i in range(10)]
OVERHEAD_LOAD = 0.6


@pytest.fixture(scope="module")
def graph():
    return build_nested_or_graph()


@pytest.fixture(scope="module")
def cfg():
    # no chunk_timeout: random plans may hang, and a hang is transparent
    # (sleep, then continue) — the sweep just runs a little longer
    return RunConfig(schemes=("GSS", "NPM"), n_runs=30, seed=11,
                     max_retries=3)


@pytest.fixture(scope="module")
def reference(graph, cfg):
    return sweep_load(graph, cfg, LOADS)


@pytest.fixture(scope="module")
def overhead_reference(graph, cfg):
    return sweep_overhead(graph, cfg, OVERHEAD_LOAD, ADJUST_TIMES)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_fault_plan_is_invisible_in_results(tmp_path, graph, cfg,
                                                   reference, seed):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    plan = FaultPlan.random(seed, scratch=str(scratch), n_faults=2,
                            hang_seconds=0.3)
    detail = f"replay with:\n{plan.describe()}"
    cache = EvaluationCache(tmp_path / "cache")
    with ExecutionContext(n_jobs=2, cache=cache, fault_plan=plan) as ctx:
        with warnings.catch_warnings():
            # recovery warnings are the point here, not a failure
            warnings.simplefilter("ignore", RuntimeWarning)
            cold = sweep_load(graph, cfg, LOADS, context=ctx)
            warm = sweep_load(graph, cfg, LOADS, context=ctx)
    assert cold.points == reference.points, detail
    assert warm.points == reference.points, detail
    assert cold.meta["speed_changes"] == reference.meta["speed_changes"], \
        detail
    assert cold.meta["resilience"]["degradations"] + \
        warm.meta["resilience"]["degradations"] <= 1, detail


def test_replayed_plan_injects_identically(tmp_path, graph, cfg,
                                           overhead_reference):
    """Same seed + fresh scratch = same recovery counters, same results."""
    metas = []
    for attempt in ("first", "second"):
        scratch = tmp_path / f"scratch-{attempt}"
        scratch.mkdir()
        # seed 1 injects a worker-chunk raise on each pool's first
        # dispatch — a fault that actually fires at point level
        plan = FaultPlan.random(1, scratch=str(scratch), n_faults=2,
                                hang_seconds=0.3)
        # the overhead sweep keeps the points on the pool dispatch path
        # the plan targets (a fused sweep never dispatches to workers)
        with ExecutionContext(n_jobs=2, fault_plan=plan) as ctx:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                series = sweep_overhead(graph, cfg, OVERHEAD_LOAD,
                                        ADJUST_TIMES, context=ctx)
        assert series.points == overhead_reference.points, plan.describe()
        metas.append(series.meta["resilience"])
    assert metas[0] == metas[1]
    assert metas[0]["retries"] >= 1  # the plan really injected something
