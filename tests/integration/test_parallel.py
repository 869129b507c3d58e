"""Integration tests for the process-pool experiment fan-out.

The pool path must produce bit-identical results to the serial path
(same seeds, same submission order), otherwise parallel sweeps would not
be reproducible.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
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

    def test_pool_disables_nested_run_parallelism(self, cfg):
        # a config asking for run-level workers must not nest pools
        # inside point-level workers — and must still match serial
        g = figure3_graph()
        serial = map_load_points(g, [0.4, 0.7], cfg, n_jobs=1)
        pooled = map_load_points(g, [0.4, 0.7], cfg.with_(n_jobs=2),
                                 n_jobs=2)
        for a, b in zip(serial, pooled):
            for scheme in a.normalized:
                assert np.array_equal(a.normalized[scheme],
                                      b.normalized[scheme])

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
