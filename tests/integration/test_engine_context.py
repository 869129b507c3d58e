"""Persistent execution context: pool reuse and cached sweeps.

The contract: a sweep handed an :class:`ExecutionContext` must create
exactly **one** worker pool no matter how many points it fans out, and
every execution variant — persistent pool, cache hits from disk — must
be bit-identical to the serial reference.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.experiments import (EvaluationCache, ExecutionContext, RunConfig,
                               evaluate_application, evaluation_key)
from repro.experiments.sweeps import sweep_load, sweep_overhead
from repro.workloads import application_with_load, figure3_graph

LOADS = [round(0.1 * i, 1) for i in range(1, 11)]  # the paper's 10-point grid
#: ten switch overheads: an overhead sweep cannot fuse, so its points
#: reach the context's pool one per task
ADJUST_TIMES = [round(0.001 * i, 3) for i in range(10)]


@pytest.fixture(scope="module")
def graph():
    return figure3_graph()


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(n_runs=20, seed=5)


@pytest.fixture(scope="module")
def serial_series(graph, cfg):
    return sweep_load(graph, cfg, LOADS)


@pytest.fixture(scope="module")
def serial_overhead(graph, cfg):
    return sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES)


def _spy_pool(monkeypatch):
    # every worker pool is created here
    import repro.experiments.engine as engine_mod
    calls = []
    orig = engine_mod.ProcessPoolExecutor

    def spy(*args, **kwargs):
        calls.append(kwargs.get("max_workers"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", spy)
    return calls


def _assert_series_equal(a, b):
    assert a.points == b.points
    assert a.meta.get("speed_changes") == b.meta.get("speed_changes")


def _counters(series):
    return series.meta["obs"]["counters"]


def _assert_identical(a, b):
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert a.path_keys == b.path_keys
    assert set(a.normalized) == set(b.normalized)
    for scheme in a.normalized:
        assert np.array_equal(a.normalized[scheme], b.normalized[scheme])
        assert np.array_equal(a.absolute[scheme], b.absolute[scheme])


class TestPoolReuse:
    def test_serial_sweep_creates_no_pool(self, graph, cfg, monkeypatch):
        calls = _spy_pool(monkeypatch)
        sweep_load(graph, cfg, LOADS)
        assert calls == []

    def test_fused_sweep_creates_no_pool_even_with_context(self, graph,
                                                           cfg,
                                                           serial_series,
                                                           monkeypatch):
        # the sweep compiler's contract: a homogeneous sweep fuses in
        # the parent and never touches the context's pool
        calls = _spy_pool(monkeypatch)
        with ExecutionContext(n_jobs=4) as ctx:
            series = sweep_load(graph, cfg, LOADS, context=ctx)
            assert ctx.pools_created == 0
        assert calls == []
        _assert_series_equal(serial_series, series)

    def test_shared_context_creates_exactly_one_pool(self, graph, cfg,
                                                     serial_overhead,
                                                     monkeypatch):
        # a sweep that cannot fuse fans its points out over one pool
        calls = _spy_pool(monkeypatch)
        with ExecutionContext(n_jobs=2) as ctx:
            series = sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES,
                                    context=ctx)
            assert ctx.pools_created == 1
        assert calls == [2]
        _assert_series_equal(serial_overhead, series)

    def test_pool_survives_repeated_sweeps(self, graph, cfg,
                                           serial_overhead):
        with ExecutionContext(n_jobs=2) as ctx:
            first = sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES,
                                   context=ctx)
            second = sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES,
                                    context=ctx)
            assert ctx.pools_created == 1
        _assert_series_equal(serial_overhead, first)
        _assert_series_equal(serial_overhead, second)

    def test_closed_context_rejects_work(self, graph, cfg):
        from repro.errors import ParallelError
        ctx = ExecutionContext(n_jobs=2)
        ctx.close()
        with pytest.raises(ParallelError):
            ctx.pool()

    def test_empty_map_returns_empty(self):
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.map(sorted, []) == []
            assert ctx.pools_created == 0  # no work, no pool


class _CountingPool(ProcessPoolExecutor):
    """A worker pool that records every task submitted to it."""

    submitted: list = []

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(fn)
        return super().submit(fn, *args, **kwargs)


class TestPooledCounts:
    """A pooled task's counts come back with its result."""

    def test_worker_compiles_reach_the_sweep(self, graph, cfg,
                                             serial_overhead, monkeypatch):
        import repro.experiments.engine as engine_mod
        from repro.sim.compiled import clear_program_cache
        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                            _CountingPool)
        monkeypatch.setattr(_CountingPool, "submitted", [])
        # the workers start with no compiled program, so every program
        # compiles in a worker; an overhead sweep never fuses, so the
        # parent compiles nothing
        clear_program_cache()
        with ExecutionContext(n_jobs=2) as ctx:
            series = sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES,
                                    context=ctx)
        _assert_series_equal(serial_overhead, series)
        block = series.meta["obs"]
        counters = block["counters"]
        assert counters["sim.compiled.program_cache.misses"] > 0
        assert counters["experiments.engine.tasks"] == len(ADJUST_TIMES)
        # the points' kernels ran in the workers, and their spans came
        # back: at least one fixed-kernel call (NPM) per point
        assert block["spans"]["sim.kernels.fixed"]["calls"] >= \
            len(ADJUST_TIMES)
        # one task per point, nothing else: no probe tasks
        assert _CountingPool.submitted == \
            [engine_mod._run_item] * len(ADJUST_TIMES)


class TestCachedSweep:
    def test_cache_hit_sweep_is_bit_identical(self, graph, cfg,
                                              serial_series, tmp_path):
        cache = EvaluationCache(tmp_path)
        with ExecutionContext(n_jobs=4, cache=cache) as ctx:
            first = sweep_load(graph, cfg, LOADS, context=ctx)
            second = sweep_load(graph, cfg, LOADS, context=ctx)
        _assert_series_equal(serial_series, first)
        _assert_series_equal(serial_series, second)
        stats = cache.stats()
        assert stats["misses"] == len(LOADS)
        assert stats["hits"] == len(LOADS)
        # the per-sweep delta lands in the series meta
        assert _counters(first)["experiments.evalcache.misses"] == len(LOADS)
        assert _counters(second)["experiments.evalcache.hits"] == len(LOADS)

    def test_cache_entry_serves_serial_rerun(self, graph, cfg, tmp_path):
        # an entry computed by the pooled sweep must satisfy a later
        # serial evaluation of the same point
        cache = EvaluationCache(tmp_path)
        with ExecutionContext(n_jobs=4, cache=cache) as ctx:
            sweep_load(graph, cfg, LOADS, context=ctx)
        app = application_with_load(graph, LOADS[3], cfg.n_processors)
        direct = evaluate_application(app, cfg)
        hit = cache.get(evaluation_key(app, cfg), app.name, cfg)
        assert hit is not None
        _assert_identical(direct, hit)

    def test_one_broken_entry_is_one_miss(self, graph, cfg, serial_series,
                                          tmp_path):
        # the lone miss is probed once: the point computed in the
        # serial branch does not consult the cache a second time
        cache = EvaluationCache(tmp_path)
        with ExecutionContext(cache=cache) as ctx:
            sweep_load(graph, cfg, LOADS, context=ctx)
            app = application_with_load(graph, LOADS[3], cfg.n_processors)
            cache.path_for(evaluation_key(app, cfg)).write_bytes(b"torn")
            with pytest.warns(RuntimeWarning, match="quarantined"):
                series = sweep_load(graph, cfg, LOADS, context=ctx)
        _assert_series_equal(serial_series, series)
        delta = _counters(series)
        assert (delta["experiments.evalcache.hits"],
                delta["experiments.evalcache.misses"],
                delta["experiments.evalcache.quarantined"]) \
            == (len(LOADS) - 1, 1, 1)

    def test_serial_unfused_sweep_counts_each_miss_once(self, graph, cfg,
                                                        serial_overhead,
                                                        tmp_path):
        cache = EvaluationCache(tmp_path)
        with ExecutionContext(n_jobs=1, cache=cache) as ctx:
            first = sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES,
                                   context=ctx)
            second = sweep_overhead(graph, cfg, 0.6, ADJUST_TIMES,
                                    context=ctx)
        _assert_series_equal(serial_overhead, first)
        _assert_series_equal(serial_overhead, second)
        assert _counters(first)["experiments.evalcache.misses"] == \
            len(ADJUST_TIMES)
        assert _counters(second)["experiments.evalcache.hits"] == \
            len(ADJUST_TIMES)
        assert cache.stats()["misses"] == len(ADJUST_TIMES)
