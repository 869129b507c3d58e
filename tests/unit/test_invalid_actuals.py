"""Actual execution times outside ``[0, WCET]`` are rejected by every
engine with an error that names the task.

A NaN actual used to flow through the fixed-speed kernels into a NaN
energy, and a negative one was scored like any other run; the dynamic
paths failed later with a misleading "required speed inf".  The dict
engine, the event engine, the scalar compiled kernel and both batch
kernels share one check, so the differential oracles keep agreeing.
"""

import numpy as np
import pytest

from repro.core import get_policy
from repro.errors import SimulationError
from repro.offline import build_plan
from repro.power import PAPER_OVERHEAD, transmeta_model
from repro.sim import (
    Realization,
    sample_realization_batch,
    simulate_compiled,
    simulate_events,
)
from repro.sim.compiled import compile_plan, run_dynamic_batch, run_fixed_batch
from repro.sim.engine import simulate
from repro.workloads import application_with_load
from tests.conftest import build_chain_graph

BAD = (float("nan"), -5.0)
SCHEMES = ("NPM", "GSS")


def _setup(scheme):
    app = application_with_load(build_chain_graph(3, wcet=10, acet=5),
                                0.5, 2)
    power = transmeta_model()
    policy = get_policy(scheme)
    reserve = (PAPER_OVERHEAD.per_task_reserve(power)
               if policy.requires_reserve else 0.0)
    plan = build_plan(app, 2, reserve=reserve)
    return plan, power, policy


def _message(bad):
    return rf"invalid actual time {bad} of 'T1'"


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("engine", [simulate, simulate_events,
                                    simulate_compiled],
                         ids=["dict", "event", "compiled"])
def test_scalar_engines_reject(engine, bad, scheme):
    plan, power, policy = _setup(scheme)
    rl = Realization(actuals={"T0": 5.0, "T1": bad, "T2": 5.0}, choices={})
    run = policy.start_run(plan, power, PAPER_OVERHEAD, realization=rl)
    with pytest.raises(SimulationError, match=_message(bad)):
        engine(plan, run, power, PAPER_OVERHEAD, rl)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bad", BAD)
def test_batch_kernels_reject(bad, scheme):
    plan, power, policy = _setup(scheme)
    prog = compile_plan(plan)
    batch = sample_realization_batch(plan.structure,
                                     np.random.default_rng(1), 6)
    matrix = prog.realization_matrix(batch).copy()
    matrix[3, prog.comp_names.index("T1")] = bad
    groups, _keys = prog.executed_paths(batch.choices, len(batch))
    with pytest.raises(SimulationError, match=_message(bad)):
        if scheme == "NPM":
            run_fixed_batch(prog, power, PAPER_OVERHEAD, matrix, groups,
                            power.s_max, scheme)
        else:
            run = policy.start_run(plan, power, PAPER_OVERHEAD)
            run_dynamic_batch(prog, power, PAPER_OVERHEAD, matrix, groups,
                              [run], [scheme])


def test_over_wcet_keeps_its_message():
    plan, power, policy = _setup("NPM")
    rl = Realization(actuals={"T0": 5.0, "T1": 11.0, "T2": 5.0},
                     choices={})
    run = policy.start_run(plan, power, PAPER_OVERHEAD)
    for engine in (simulate, simulate_events, simulate_compiled):
        with pytest.raises(SimulationError,
                           match="actual time 11.0 of 'T1' exceeds WCET"):
            engine(plan, run, power, PAPER_OVERHEAD, rl)
