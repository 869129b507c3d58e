"""Integration tests for the process-pool experiment fan-out.

The pool path must produce bit-identical results to the serial path
(same seeds, same submission order), otherwise parallel sweeps would not
be reproducible.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, ParallelError
from repro.experiments import RunConfig, resolve_jobs
from repro.experiments.parallel import (map_applications, map_custom,
                                       map_evaluations, map_load_points)
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


class TestSerialParallelEquivalence:
    def test_load_points_identical(self, cfg):
        g = figure3_graph()
        serial = map_load_points(g, [0.4, 0.7], cfg, n_jobs=1)
        pooled = map_load_points(g, [0.4, 0.7], cfg, n_jobs=2)
        for a, b in zip(serial, pooled):
            for scheme in a.normalized:
                assert np.array_equal(a.normalized[scheme],
                                      b.normalized[scheme])

    def test_applications_identical(self, cfg):
        apps = [application_with_load(figure3_graph(alpha=a), 0.6, 2)
                for a in (0.4, 0.8)]
        serial = map_applications(apps, cfg, n_jobs=1)
        pooled = map_applications(apps, cfg, n_jobs=2)
        for a, b in zip(serial, pooled):
            assert a.mean_normalized() == b.mean_normalized()

    def test_results_in_submission_order(self, cfg):
        g = figure3_graph()
        results = map_load_points(g, [0.3, 0.9], cfg, n_jobs=2)
        # higher load -> bigger deadline pressure -> SPM saves less
        assert results[0].mean_normalized()["SPM"] != \
            results[1].mean_normalized()["SPM"]


class TestEmptySweeps:
    """An empty sweep returns no results, like ``map_custom`` does."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_map_evaluations_of_nothing_is_empty(self, cfg, n_jobs):
        assert map_evaluations([], cfg, n_jobs=n_jobs) == []

    def test_sweep_load_over_no_loads_has_no_points(self, cfg):
        series = sweep_load(figure3_graph(), cfg, loads=[])
        assert series.points == []


class TestMapCustom:
    def test_custom_function(self):
        out = map_custom(divmod, [(7, 3), (9, 4)], n_jobs=1)
        assert out == [(2, 1), (2, 1)]

    def test_custom_parallel(self):
        out = map_custom(divmod, [(7, 3), (9, 4)], n_jobs=2)
        assert out == [(2, 1), (2, 1)]


def _fail_on(x):
    if x == "bad":
        raise RuntimeError("worker exploded")
    return x


class TestWorkerFailures:
    def test_custom_pool_failure_has_context(self):
        with pytest.raises(ParallelError, match="args=\\('bad',\\)") as ei:
            map_custom(_fail_on, [("ok",), ("bad",), ("ok",)], n_jobs=2)
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "worker exploded" in str(ei.value)

    def test_load_point_failure_names_the_point(self):
        cfg = RunConfig(schemes=("GSS",), n_runs=5, seed=1)
        # load > 1 is rejected inside the worker process
        with pytest.raises(ParallelError, match="load=1.5"):
            map_load_points(figure3_graph(), [0.5, 1.5], cfg, n_jobs=2)

    def test_failure_surfaces_promptly(self):
        import time
        start = time.monotonic()
        with pytest.raises(ParallelError):
            map_custom(_fail_on, [("bad",)] + [("ok",)] * 3, n_jobs=2)
        # fail-fast: nowhere near the time 4 sequential retries would take
        assert time.monotonic() - start < 30.0
