"""Randomized chaos: seed-derived fault plans never change results.

Each case builds a :meth:`FaultPlan.random` schedule from a small
integer seed and runs the same cached sweep twice under it — once
against a cold cache (faults land in the worker pool's dispatch path)
and once warm (faults land in the cache-read path).  Whatever the plan
injected, both sweeps must equal the fault-free serial reference
exactly.  On failure the assertion message carries
``plan.describe()``; rebuilding the plan from the printed seed (with a
fresh scratch directory) replays the exact fault schedule.
"""

import warnings

import pytest

from repro.experiments import EvaluationCache, ExecutionContext, RunConfig
from repro.experiments.faults import FaultPlan
from repro.experiments.sweeps import sweep_overhead
from tests.conftest import build_nested_or_graph

SEEDS = (0, 1, 2, 3, 4, 5)
#: ten switch overheads: an overhead sweep cannot fuse, so its points
#: go out on the pool dispatch path the worker-chunk faults target
ADJUST_TIMES = [round(0.001 * i, 3) for i in range(10)]
OVERHEAD_LOAD = 0.6


@pytest.fixture(scope="module")
def graph():
    return build_nested_or_graph()


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(schemes=("GSS", "NPM"), n_runs=30, seed=11,
                     max_retries=3)


@pytest.fixture(scope="module")
def overhead_reference(graph, cfg):
    return sweep_overhead(graph, cfg, OVERHEAD_LOAD, ADJUST_TIMES)


def _degradations(counters):
    return counters.get("experiments.engine.degradations", 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_fault_plan_is_invisible_in_results(tmp_path, graph, cfg,
                                                   overhead_reference,
                                                   seed):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    plan = FaultPlan.random(seed, scratch=str(scratch), n_faults=2)
    detail = f"replay with:\n{plan.describe()}"
    cache = EvaluationCache(tmp_path / "cache")
    with ExecutionContext(n_jobs=2, cache=cache, fault_plan=plan) as ctx:
        with warnings.catch_warnings():
            # recovery warnings are the point here, not a failure
            warnings.simplefilter("ignore", RuntimeWarning)
            # an overhead sweep cannot fuse: the cold pass puts its
            # points on the pool, where worker-chunk crashes land, and
            # the warm pass reads them back, where cache-read lands
            cold = sweep_overhead(graph, cfg, OVERHEAD_LOAD, ADJUST_TIMES,
                                  context=ctx)
            warm = sweep_overhead(graph, cfg, OVERHEAD_LOAD, ADJUST_TIMES,
                                  context=ctx)
        assert ctx.pools_created >= 1, detail
    assert cold.points == overhead_reference.points, detail
    assert warm.points == overhead_reference.points, detail
    assert cold.meta["speed_changes"] == \
        overhead_reference.meta["speed_changes"], detail
    cold_counts = cold.meta["obs"]["counters"]
    warm_counts = warm.meta["obs"]["counters"]
    assert warm_counts["experiments.evalcache.hits"] >= \
        len(ADJUST_TIMES) - 2, detail
    assert _degradations(cold_counts) + _degradations(warm_counts) <= 1, \
        detail


def test_replayed_plan_injects_identically(tmp_path, graph, cfg,
                                           overhead_reference):
    """Same seed + fresh scratch = same recovery counters, same results."""
    metas = []
    for attempt in ("first", "second"):
        scratch = tmp_path / f"scratch-{attempt}"
        scratch.mkdir()
        # seed 2 crashes the first worker to start a task (its
        # cache-read corruption has no cache to land in)
        plan = FaultPlan.random(2, scratch=str(scratch), n_faults=2)
        # the overhead sweep keeps the points on the pool dispatch path
        # the plan targets (a fused sweep never dispatches to workers)
        with ExecutionContext(n_jobs=2, fault_plan=plan) as ctx:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                series = sweep_overhead(graph, cfg, OVERHEAD_LOAD,
                                        ADJUST_TIMES, context=ctx)
        assert series.points == overhead_reference.points, plan.describe()
        counters = series.meta["obs"]["counters"]
        metas.append({name: counters.get(f"experiments.engine.{name}", 0)
                      for name in ("rebuilds", "degradations")})
    assert metas[0] == metas[1]
    assert metas[0]["rebuilds"] == 1  # the plan really injected something
