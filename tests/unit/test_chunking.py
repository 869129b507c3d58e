"""Edge cases of work partitioning: chunking, job resolution, fallbacks.

The contract under test: chunk boundaries and worker counts are pure
execution shape — every run lands in exactly one chunk, degenerate
sizes (one run, chunk bigger than the batch, more jobs than work) fall
back to the serial path without ever paying for a pool, and none of the
resilience knobs leak into the evaluation cache key.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.experiments import (ExecutionContext, RunConfig,
                               evaluate_application, evaluation_key)
from repro.experiments.engine import resolve_jobs
from repro.sim.realization import batch_in_chunks
from repro.workloads import application_with_load, figure3_graph


class TestBatchInChunks:
    @pytest.mark.parametrize("n,size", [(10, 1), (10, 3), (10, 10),
                                        (10, 17), (1, 4), (7, 7)])
    def test_every_run_in_exactly_one_chunk(self, n, size):
        chunks = list(batch_in_chunks(list(range(n)), size))
        assert all(block for _, block in chunks)  # no empty chunks
        covered = [x for _, block in chunks for x in block]
        assert covered == list(range(n))
        for start, block in chunks:
            assert block[0] == start  # offsets merge back into position

    def test_zero_runs_yield_no_chunks(self):
        assert list(batch_in_chunks([], 5)) == []

    @pytest.mark.parametrize("size", [0, -1])
    def test_nonpositive_chunk_size_rejected(self, size):
        with pytest.raises(SimulationError, match=">= 1"):
            list(batch_in_chunks([1, 2, 3], size))


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self):
        import os
        cores = os.cpu_count() or 1
        assert resolve_jobs(None) == cores
        assert resolve_jobs(0) == cores

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            resolve_jobs(-2)

    def test_clamped_to_available_work(self):
        assert resolve_jobs(32, n_items=3) == 3
        assert resolve_jobs(2, n_items=10) == 2

    def test_never_below_one(self):
        assert resolve_jobs(4, n_items=0) == 1


@pytest.fixture(scope="module")
def app():
    return application_with_load(figure3_graph(), 0.6, 2)


@pytest.fixture(scope="module")
def serial_result(app):
    return evaluate_application(app, RunConfig(schemes=("GSS",), n_runs=20,
                                               seed=3))


class _NoPoolAllowed:
    def __init__(self, *a, **kw):  # pragma: no cover - failure path
        raise AssertionError("a worker pool was created for serial work")


class TestSerialFallbacks:
    """Degenerate shapes must take the serial path — proven by a pool spy."""

    @pytest.fixture(autouse=True)
    def _forbid_pools(self, monkeypatch):
        import repro.experiments.engine as engine
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _NoPoolAllowed)

    def test_single_run_with_many_jobs_is_serial(self, app):
        cfg = RunConfig(schemes=("GSS",), n_runs=1, seed=3,
                        parallel_min_runs=0, run_level_pool=True)
        result = evaluate_application(app, cfg, n_jobs=8)
        assert result.npm_energy.shape == (1,)

    def test_below_parallel_min_runs_is_serial(self, app, serial_result):
        # 20 runs sit below the default threshold, so n_jobs=2 (and the
        # resilience knobs riding along) must not start a pool — and the
        # result must be bit-identical to the plain serial evaluation
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3, n_jobs=2,
                        max_retries=5, chunk_timeout=1.0,
                        run_level_pool=True)
        assert cfg.n_runs < cfg.parallel_min_runs
        result = evaluate_application(app, cfg)
        assert np.array_equal(result.npm_energy, serial_result.npm_energy)
        assert np.array_equal(result.normalized["GSS"],
                              serial_result.normalized["GSS"])

    def test_pool_request_without_opt_in_is_demoted(self, app,
                                                    serial_result):
        # the regression fix itself: n_jobs=2 with every threshold open
        # but no run_level_pool opt-in must stay serial (and identical)
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3, n_jobs=2,
                        parallel_min_runs=0)
        result = evaluate_application(app, cfg)
        assert np.array_equal(result.npm_energy, serial_result.npm_energy)


class TestParallelBoundary:
    def test_min_runs_zero_uses_the_pool_bit_identically(self, app,
                                                         serial_result):
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3, n_jobs=2,
                        runs_per_chunk=3, parallel_min_runs=0,
                        max_retries=5, run_level_pool=True)
        with ExecutionContext(n_jobs=2) as ctx:
            result = evaluate_application(app, cfg, context=ctx)
            assert ctx.pools_created == 1  # the threshold really crossed
        assert np.array_equal(result.npm_energy, serial_result.npm_energy)
        assert np.array_equal(result.normalized["GSS"],
                              serial_result.normalized["GSS"])
        assert result.path_keys == serial_result.path_keys

    def test_chunk_larger_than_batch_collapses_to_one_chunk(self, app,
                                                            serial_result):
        # the config itself refuses an oversized chunk outright...
        with pytest.raises(ConfigError, match="exceeds n_runs"):
            RunConfig(schemes=("GSS",), n_runs=20, runs_per_chunk=500)
        # ...while the call-site override clamps it to the batch size
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3, n_jobs=2,
                        parallel_min_runs=0, run_level_pool=True)
        with ExecutionContext(n_jobs=2) as ctx:
            result = evaluate_application(app, cfg, runs_per_chunk=500,
                                          context=ctx)
        assert np.array_equal(result.npm_energy, serial_result.npm_energy)

    def test_empty_map_returns_empty(self):
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.map(sorted, []) == []
            assert ctx.pools_created == 0  # no work, no pool


class TestKeyInsulation:
    @pytest.mark.parametrize("change", [
        {"max_retries": 9},
        {"chunk_timeout": 2.5},
        {"degrade": False},
        {"run_level_pool": True},
    ])
    def test_resilience_knobs_do_not_change_evaluation_key(self, app,
                                                           change):
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3)
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))

