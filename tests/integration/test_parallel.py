"""Integration tests for the process-pool experiment fan-out.

The pool path must produce bit-identical results to the serial path
(same seeds, same submission order), otherwise parallel sweeps would not
be reproducible.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, ParallelError
from repro.experiments import ExecutionContext, RunConfig, resolve_jobs
from repro.experiments.parallel import map_custom, map_evaluations
from repro.experiments.sweeps import sweep_load
from repro.workloads import application_with_load, figure3_graph


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(schemes=("GSS", "SPM"), n_runs=15, seed=5)


class TestResolveJobs:
    def test_defaults_to_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_clamped_to_available_work(self):
        assert resolve_jobs(32, n_items=3) == 3
        assert resolve_jobs(None, n_items=2) <= 2
        assert resolve_jobs(2, n_items=100) == 2

    def test_clamp_never_below_one(self):
        assert resolve_jobs(4, n_items=0) == 1
        assert resolve_jobs(None, n_items=0) == 1

    def test_all_cores_means_the_schedulable_ones(self, monkeypatch):
        # pinned to one core of an eight-core machine (taskset, cgroup
        # CI runners): "all cores" must start one worker, not eight
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == resolve_jobs(None) == 1


def _load_apps(loads):
    return [application_with_load(figure3_graph(), ld, 2) for ld in loads]


class TestSerialParallelEquivalence:
    def test_load_points_identical(self, cfg):
        apps = _load_apps([0.4, 0.7])
        serial = map_evaluations(apps, cfg)
        with ExecutionContext(n_jobs=2) as ctx:
            pooled = map_evaluations(apps, cfg, context=ctx)
        for a, b in zip(serial, pooled):
            for scheme in a.normalized:
                assert np.array_equal(a.normalized[scheme],
                                      b.normalized[scheme])

    def test_applications_identical(self, cfg):
        apps = [application_with_load(figure3_graph(alpha=a), 0.6, 2)
                for a in (0.4, 0.8)]
        serial = map_evaluations(apps, cfg)
        with ExecutionContext(n_jobs=2) as ctx:
            pooled = map_evaluations(apps, cfg, context=ctx)
        for a, b in zip(serial, pooled):
            assert a.mean_normalized() == b.mean_normalized()

    def test_results_in_submission_order(self, cfg):
        with ExecutionContext(n_jobs=2) as ctx:
            results = map_evaluations(_load_apps([0.3, 0.9]), cfg,
                                      context=ctx)
        # higher load -> bigger deadline pressure -> SPM saves less
        assert results[0].mean_normalized()["SPM"] != \
            results[1].mean_normalized()["SPM"]


class TestEmptySweeps:
    """An empty sweep returns no results, like ``map_custom`` does."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_map_evaluations_of_nothing_is_empty(self, cfg, n_jobs):
        with ExecutionContext(n_jobs=n_jobs) as ctx:
            assert map_evaluations([], cfg, context=ctx) == []

    def test_sweep_load_over_no_loads_has_no_points(self, cfg):
        series = sweep_load(figure3_graph(), cfg, loads=[])
        assert series.points == []


class TestMapCustom:
    def test_custom_function(self):
        out = map_custom(divmod, [(7, 3), (9, 4)])
        assert out == [(2, 1), (2, 1)]

    def test_custom_parallel(self):
        with ExecutionContext(n_jobs=2) as ctx:
            out = map_custom(divmod, [(7, 3), (9, 4)], context=ctx)
        assert out == [(2, 1), (2, 1)]


def _fail_on(x):
    if x == "bad":
        raise RuntimeError("worker exploded")
    return x


class TestWorkerFailures:
    def test_custom_pool_failure_has_context(self):
        with pytest.raises(ParallelError, match="args=\\('bad',\\)") as ei:
            with ExecutionContext(n_jobs=2) as ctx:
                map_custom(_fail_on, [("ok",), ("bad",), ("ok",)],
                           context=ctx)
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "worker exploded" in str(ei.value)

    def test_load_point_failure_names_the_point(self):
        cfg = RunConfig(schemes=("GSS",), n_runs=5, seed=1)
        # load > 1 is rejected while the sweep builds its points
        with pytest.raises(ParallelError, match="load=1.5"):
            with ExecutionContext(n_jobs=2) as ctx:
                sweep_load(figure3_graph(), cfg, [0.5, 1.5], context=ctx)

    def test_failure_surfaces_promptly(self):
        import time
        start = time.monotonic()
        with pytest.raises(ParallelError):
            with ExecutionContext(n_jobs=2) as ctx:
                map_custom(_fail_on, [("bad",)] + [("ok",)] * 3,
                           context=ctx)
        # fail-fast: nowhere near the time 4 sequential retries would take
        assert time.monotonic() - start < 30.0
