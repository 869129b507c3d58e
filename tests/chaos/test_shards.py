"""Chaos for the sharded fused sweep: kill a shard, get exact floats.

``run_shard`` runs under the same resilient ``ExecutionContext.map``
as sweep points, so the ``worker-chunk`` site fires at the start of
each shard's task, keyed by the shard index.  Each scenario injects a
failure into shard 1 of 3 mid-sweep and asserts the recovered sweep
equals the monolithic fused reference bit for bit, with the fan-out
still crossing process boundaries (the recovery must not silently
degrade the whole sweep to the inline pass): a crashed pool worker's
shard is re-dispatched after a pool rebuild.  The ``shm-attach`` site
fires in the parent as it takes a shard's result block out of shared
memory; that shard is recomputed inline.
"""

import pytest

from repro.experiments import ExecutionContext, RunConfig, fused
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.fused import evaluate_points_fused, take_fused_meta
from repro.experiments.sweeps import sweep_load
from repro.workloads import application_with_load, figure3_graph

LOADS = (0.3, 0.5, 0.8)


@pytest.fixture(scope="module")
def graph():
    return figure3_graph()


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(schemes=("GSS", "SPM", "AS"), n_runs=30, seed=11)


@pytest.fixture(scope="module")
def apps(graph, cfg):
    return [application_with_load(graph, ld, cfg.n_processors)
            for ld in LOADS]


@pytest.fixture(scope="module")
def reference(apps, cfg):
    # monolithic fused pass in this process: the fault-free reference
    results = evaluate_points_fused(apps, [cfg] * len(apps))
    take_fused_meta()
    return results


def _assert_identical(a, b):
    import numpy as np
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert a.path_keys == b.path_keys
    for scheme in a.normalized:
        assert np.array_equal(a.absolute[scheme], b.absolute[scheme])
        assert np.array_equal(a.speed_changes[scheme],
                              b.speed_changes[scheme])


class TestShardWorkerCrash:
    def test_shard_worker_crash_mid_sweep_recovers(
            self, tmp_path, apps, cfg, reference):
        """The headline scenario: the process running shard 1 dies.

        The pool breaks and is rebuilt (with a warning), the unfinished
        shards are re-dispatched to the new pool, and the reduced sweep
        must equal the monolithic reference exactly.
        """
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(specs=(
            FaultSpec(site="worker-chunk", action="crash", key=1),),
            scratch=str(scratch))
        with ExecutionContext(n_jobs=3, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning, match="rebuilding the pool"):
                sharded = evaluate_points_fused(apps, [cfg] * len(apps),
                                                context=ctx, shards=3)
            assert ctx.resilience["rebuilds"] == 1
            assert ctx.resilience["degradations"] == 0
            assert ctx.pools_created == 2
        meta = take_fused_meta()
        assert meta["shards"] == 3
        assert meta["transport"] == "pool"  # recovery stayed sharded
        for res, ref in zip(sharded, reference):
            _assert_identical(res, ref)


class TestShmAttachFaults:
    def test_failed_block_attach_recomputes_the_shard_inline(
            self, tmp_path, monkeypatch, graph, cfg):
        # every shard result travels through a shared-memory block; the
        # parent fails to attach shard 1's (runs [10, 20)) and must
        # recompute exactly that shard in-process
        monkeypatch.setattr(fused, "SHARD_SHM_MIN_BYTES", 0)
        reference = sweep_load(graph, cfg, LOADS)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        plan = FaultPlan(specs=(
            FaultSpec(site="shm-attach", action="raise", key=10),),
            scratch=str(scratch))
        with ExecutionContext(n_jobs=3, fault_plan=plan) as ctx:
            with pytest.warns(RuntimeWarning, match="recomputing the shard"):
                series = sweep_load(graph, cfg.with_(shards=3), LOADS,
                                    context=ctx)
        assert series.meta["fused"]["shards"] == 3
        assert series.meta["fused"]["transport"] == "pool"
        assert series.meta["resilience"]["shm_fallbacks"] == 1
        assert series.points == reference.points
        assert series.meta["speed_changes"] == \
            reference.meta["speed_changes"]
