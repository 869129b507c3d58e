"""Edge cases of work partitioning: job resolution and key insulation.

The contract under test: worker counts are pure execution shape — a
request for more jobs than work is clamped, never below one — and none
of the resilience knobs leak into the evaluation cache key.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments import RunConfig, evaluation_key
from repro.experiments.engine import resolve_jobs
from repro.workloads import application_with_load, figure3_graph


class TestResolveJobs:
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


class TestKeyInsulation:
    @pytest.mark.parametrize("change", [
        {"max_retries": 9},
        {"max_retries": 0},
        {"degrade": False},
    ])
    def test_resilience_knobs_do_not_change_evaluation_key(self, app,
                                                           change):
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3)
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))
