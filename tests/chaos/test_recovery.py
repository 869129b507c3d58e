"""Recovery paths of the resilient executor, proven bit-identical.

Two layers:

* ``TestResilientMap`` drives :meth:`ExecutionContext.map` directly
  with tiny tasks — injected raises, worker crashes (``os._exit`` in a
  pool worker), hangs vs ``chunk_timeout``, transport errors, and both
  degradation modes (serial in the parent vs ``ParallelError``).
* ``TestChaosAcceptance`` is the headline contract: a 10-point load
  sweep on the point-level pool that survives a worker crash, a hung
  point and a corrupt cache entry — and still equals the fault-free
  serial reference *exactly*, with every recovery recorded in
  ``series.meta``.  The shared-memory attach failure of a shard result
  block is driven in ``tests/chaos/test_shards.py``.
"""

import pytest

from repro.errors import FaultInjected, ParallelError, TransportError
from repro.experiments import (
    EvaluationCache,
    ExecutionContext,
    RetryPolicy,
    RunConfig,
    evaluate_application,
    evaluation_key,
)
from repro.experiments import faults
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.sweeps import sweep_load
from repro.workloads import application_with_load, figure3_graph

LOADS = [round(0.1 * i, 1) for i in range(1, 11)]  # the 10-point grid


def _square(x):
    """Worker task that honours the worker-chunk fault site."""
    if faults.fire("worker-chunk", key=x) == "raise":
        raise FaultInjected(f"injected at item {x}")
    return x * x


def _flaky_transport(x, fail):
    """Worker task standing in for an item whose transport fails."""
    if fail:
        raise TransportError(f"no segment for item {x}")
    return x + 100


class TestResilientMap:
    def test_injected_raise_is_retried(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="raise", key=2),),
            scratch=str(tmp_path))
        with ExecutionContext(n_jobs=2, fault_plan=plan) as ctx:
            assert ctx.map(_square, [(i,) for i in range(5)]) == \
                [i * i for i in range(5)]
            stats = ctx.resilience_stats()
        assert stats["retries"] == 1
        assert stats["degradations"] == 0

    def test_worker_crash_rebuilds_pool_once(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", key=1),),
            scratch=str(tmp_path))
        with ExecutionContext(n_jobs=2, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
                results = ctx.map(_square, [(i,) for i in range(6)])
            assert results == [i * i for i in range(6)]
            assert ctx.resilience["rebuilds"] == 1
            assert ctx.resilience["degradations"] == 0
            assert ctx.pools_created == 2

    def test_hung_item_redispatched_within_timeout(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="hang", key=0),),
            scratch=str(tmp_path), hang_seconds=2.0)
        policy = RetryPolicy(max_retries=6, chunk_timeout=0.4)
        with ExecutionContext(n_jobs=2, fault_plan=plan) as ctx:
            results = ctx.map(_square, [(i,) for i in range(4)],
                              policy=policy)
            assert results == [i * i for i in range(4)]
            stats = ctx.resilience_stats()
        assert stats["timeouts"] >= 1
        assert stats["degradations"] == 0

    def test_persistent_transport_error_is_retried_then_fails(self):
        policy = RetryPolicy(max_retries=1)
        with ExecutionContext(n_jobs=2) as ctx:
            with pytest.raises(ParallelError), \
                    pytest.warns(RuntimeWarning, match="serially"):
                ctx.map(_flaky_transport, [(0, True)], policy=policy)
            assert ctx.resilience["retries"] == 2
            assert ctx.resilience["shm_fallbacks"] == 0

    def test_no_degrade_raises_parallel_error(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", key=1),),
            scratch=str(tmp_path))
        policy = RetryPolicy(max_retries=0, degrade=False,
                             max_pool_rebuilds=0)
        with ExecutionContext(n_jobs=2, fault_plan=plan) as ctx:
            with pytest.raises(ParallelError):
                ctx.map(_square, [(i,) for i in range(4)], policy=policy)

    def test_second_pool_break_degrades_to_serial(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", key=1),
            FaultSpec(site="worker-chunk", action="crash", key=3),),
            scratch=str(tmp_path))
        policy = RetryPolicy(max_retries=8)
        # one worker serializes the items, so the two crashes land in
        # separate pool generations (a 2-worker pool could hit both
        # before the parent notices the first break)
        with ExecutionContext(n_jobs=1, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning,
                              match="degrading the remaining"):
                results = ctx.map(_square, [(i,) for i in range(6)],
                                  policy=policy)
            assert results == [i * i for i in range(6)]
            stats = ctx.resilience_stats()
        assert stats["rebuilds"] == 1
        assert stats["degradations"] >= 1

    def test_deterministic_exception_still_fails_fast(self):
        # an ordinary worker exception is not retryable: it names a bug
        with ExecutionContext(n_jobs=2) as ctx:
            with pytest.raises(ParallelError, match="item 1"):
                ctx.map(_flaky_transport, [(0, False), (1,)],
                        labels=["item 0", "item 1"])
            assert ctx.resilience["retries"] == 0


class TestChaosAcceptance:
    def test_sweep_survives_all_fault_classes_bit_identically(self, tmp_path):
        """The headline scenario, end to end.

        ``fused=False`` on a two-worker context sends the ten points
        out one per pool task, keyed by point index.  The plan crashes
        the worker running point 1, hangs point 8 past the timeout and
        corrupts the one cache entry that exists (pre-populated for
        point 0).  The hang may claim two firings: if it first lands in
        the pool generation the crash tears down, it still hangs once
        in the rebuilt pool.  The sweep must equal the fault-free serial
        reference exactly and record every recovery in ``series.meta``.
        """
        graph = figure3_graph()
        cfg = RunConfig(schemes=("GSS", "SPM"), n_runs=50, seed=5,
                        max_retries=6, chunk_timeout=1.0)
        reference = sweep_load(graph, cfg, LOADS)

        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cache = EvaluationCache(tmp_path / "cache")
        app0 = application_with_load(graph, LOADS[0], cfg.n_processors)
        cache.put(evaluation_key(app0, cfg), evaluate_application(app0, cfg))

        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", key=1),
            FaultSpec(site="worker-chunk", action="hang", key=8, times=2),
            FaultSpec(site="cache-read", action="corrupt", occurrence=1),
        ), scratch=str(scratch), hang_seconds=2.2)

        with ExecutionContext(n_jobs=2, cache=cache, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning) as caught:
                series = sweep_load(graph, cfg, LOADS, context=ctx,
                                    fused=False)

        # --- bit-identical to the fault-free serial reference -----------
        assert series.points == reference.points
        assert series.meta["speed_changes"] == \
            reference.meta["speed_changes"]

        # --- every recovery recorded ------------------------------------
        res = series.meta["resilience"]
        assert res["timeouts"] >= 1        # point 8 hung past the timeout
        assert res["rebuilds"] == 1        # point 1 crashed the pool
        assert res["retries"] >= 2
        assert res["degradations"] == 0    # recovery never went serial
        cache_meta = series.meta["cache"]
        assert cache_meta["quarantined"] == 1
        assert cache_meta["errors"] == 1

        # the corrupt entry was moved aside, not destroyed
        quarantined = list(cache.quarantine_dir().iterdir())
        assert len(quarantined) == 1
        messages = [str(w.message) for w in caught]
        assert any("quarantined" in m for m in messages)
        assert any("rebuilding the pool" in m for m in messages)

    def test_fused_sweep_still_exercises_cache_faults(self, tmp_path):
        """Parent-side fault sites keep firing under the fused shape.

        A fused sweep never dispatches to workers, but the cache-read
        path still runs in the parent — a corrupt entry must be
        quarantined and recomputed (by the fused kernel) bit-identically
        to the fault-free reference.
        """
        graph = figure3_graph()
        cfg = RunConfig(schemes=("GSS", "SPM"), n_runs=50, seed=5)
        reference = sweep_load(graph, cfg, LOADS)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        cache = EvaluationCache(tmp_path / "cache")
        app0 = application_with_load(graph, LOADS[0], cfg.n_processors)
        cache.put(evaluation_key(app0, cfg),
                  evaluate_application(app0, cfg))
        plan = FaultPlan(specs=(
            FaultSpec(site="cache-read", action="corrupt", occurrence=1),
        ), scratch=str(scratch))
        with ExecutionContext(n_jobs=1, cache=cache, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                series = sweep_load(graph, cfg, LOADS, context=ctx)
            assert ctx.pools_created == 0  # everything ran fused
        assert series.points == reference.points
        assert series.meta["speed_changes"] == \
            reference.meta["speed_changes"]
        assert series.meta["cache"]["quarantined"] == 1
        assert len(list(cache.quarantine_dir().iterdir())) == 1

    def test_rerun_after_chaos_hits_clean_cache(self, tmp_path):
        """Entries written during a chaotic sweep are trustworthy."""
        graph = figure3_graph()
        cfg = RunConfig(schemes=("GSS",), n_runs=40, seed=9,
                        max_retries=6)
        loads = LOADS[:4]
        reference = sweep_load(graph, cfg, loads)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", key=2),),
            scratch=str(scratch))
        cache = EvaluationCache(tmp_path / "cache")
        with ExecutionContext(n_jobs=2, cache=cache, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
                chaotic = sweep_load(graph, cfg, loads, context=ctx,
                                     fused=False)
        with ExecutionContext(n_jobs=1, cache=cache) as ctx:
            replay = sweep_load(graph, cfg, loads, context=ctx)
        assert chaotic.points == reference.points
        assert replay.points == reference.points
        assert replay.meta["cache"]["hits"] == len(loads)
        assert replay.meta["resilience"]["retries"] == 0
