"""The ``online-admit`` fault site: admission survives injected chaos.

The admission probe runs in the driver, once per arrival (keyed by the
arrival index), before the ledger decision is computed.  The contract
pinned here: a ``raise`` is retried under the config's RetryPolicy and
counted in ``OnlineResult.admit_retries``, and in every recovered case
the stream — the full admit/reject ledger *and* every scheme's realized
metrics — is bit-identical to the fault-free run.  Only an exhausted retry budget with ``degrade=False``
may surface the fault.

The plans install parent-side through
``ExecutionContext(fault_plan=...)``, which must keep ``online-admit``
in its parent-side site filter.
"""

import numpy as np
import pytest

from repro.errors import FaultInjected
from repro.experiments import (
    ExecutionContext,
    OnlineConfig,
    RunConfig,
    simulate_online,
)
from repro.experiments import faults
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.workloads import figure3_graph

GRAPH = figure3_graph()
ONLINE = OnlineConfig(rate=1.0, load=0.7, target_arrivals=20)


@pytest.fixture(autouse=True)
def _clean_slate():
    """No fault plan may leak into (or out of) any scenario."""
    faults.uninstall()
    yield
    faults.uninstall()


def _config(**kwargs):
    return RunConfig(schemes=("NPM", "SPM", "GSS"), n_processors=2,
                     seed=2002, **kwargs)


def _assert_same_stream(a, b):
    """The recovered stream must equal the fault-free one bit for bit."""
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.admitted, b.admitted)
    assert np.array_equal(a.windows, b.windows)
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert a.path_keys == b.path_keys
    for name, st in a.per_scheme.items():
        other = b.per_scheme[name]
        for attr in ("job_energy", "job_normalized", "job_finish",
                     "job_miss", "job_changes"):
            assert np.array_equal(getattr(st, attr),
                                  getattr(other, attr)), (name, attr)


@pytest.fixture(scope="module")
def fault_free():
    faults.uninstall()  # module-scoped: runs before the autouse slate
    return simulate_online(GRAPH, _config(), ONLINE)


class TestAdmitRaise:
    def test_single_raise_is_retried(self, fault_free, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=3),),
            scratch=str(tmp_path))
        with ExecutionContext(fault_plan=plan):
            res = simulate_online(GRAPH, _config(), ONLINE)
        assert res.admit_retries == 1
        _assert_same_stream(res, fault_free)

    def test_raises_at_several_arrivals(self, fault_free, tmp_path):
        plan = FaultPlan(specs=tuple(
            FaultSpec(site="online-admit", action="raise", key=k)
            for k in (0, 4, 9)), scratch=str(tmp_path))
        with ExecutionContext(fault_plan=plan):
            res = simulate_online(GRAPH, _config(), ONLINE)
        assert res.admit_retries == 3
        _assert_same_stream(res, fault_free)

    def test_exhausted_budget_degrades_probe_free(self, fault_free,
                                                  tmp_path):
        # the same arrival keeps raising past max_retries: with
        # degrade=True the decision is computed probe-free and the
        # ledger still matches the fault-free stream exactly
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=2,
                      times=10),), scratch=str(tmp_path))
        cfg = _config(max_retries=2, degrade=True)
        with ExecutionContext(fault_plan=plan):
            res = simulate_online(GRAPH, cfg, ONLINE)
        assert res.admit_retries == 3  # max_retries + the first attempt
        _assert_same_stream(res, fault_free)

    def test_exhausted_budget_without_degrade_raises(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", key=2,
                      times=10),), scratch=str(tmp_path))
        cfg = _config(max_retries=1, degrade=False)
        with ExecutionContext(fault_plan=plan):
            with pytest.raises(FaultInjected, match="arrival 2"):
                simulate_online(GRAPH, cfg, ONLINE)


class TestDirectInstall:
    def test_fire_without_plan_is_inert(self, fault_free):
        # the hot path: no plan installed, every probe is one None check
        res = simulate_online(GRAPH, _config(), ONLINE)
        assert res.admit_retries == 0
        _assert_same_stream(res, fault_free)

    def test_occurrence_matching_without_context(self, fault_free,
                                                 tmp_path):
        # the site also works through a bare install() (no context):
        # occurrence counts admission probes within the process
        faults.install(FaultPlan(specs=(
            FaultSpec(site="online-admit", action="raise", occurrence=5),),
            scratch=str(tmp_path)))
        res = simulate_online(GRAPH, _config(), ONLINE)
        assert res.admit_retries == 1
        _assert_same_stream(res, fault_free)
