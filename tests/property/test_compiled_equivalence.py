"""Golden equivalence: the compiled kernels equal the dict engine bit for bit.

The compiled engine (:mod:`repro.sim.compiled`) promises *exact* float
equality with the reference dict engine — same energies, same finish
times, same traces, same path keys — because it performs the same float
operations in the same order.  These tests hold it to that promise with
``==`` (never ``approx``) across every registered scheme, AND-only and
multi-OR graphs, multiple seeds, both discrete power tables, the
worst-case realization and the batch evaluation paths (scalar kernel,
vectorized fixed-speed batch, vectorized dynamic batch).

The fixed graphs are complemented by hypothesis fuzzing over
:func:`repro.graph.random_gen.random_graph`: any graph the generator can
produce, at any feasible load, must agree bit for bit too.  A failing
example shrinks to (and prints) the small integer seed that rebuilds the
offending graph exactly.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALL_SCHEMES, get_policy
from repro.experiments import (
    ExecutionContext,
    RunConfig,
    evaluate_application,
    map_evaluations,
)
from repro.graph import GraphGenConfig, random_graph
from repro.power import NO_OVERHEAD, PAPER_OVERHEAD, transmeta_model, xscale_model
from repro.sim import (
    sample_realization,
    simulate,
    simulate_compiled,
    worst_case_realization,
)
from repro.offline import build_plan
from repro.workloads import application_with_load, atr_graph
from tests.conftest import (
    build_chain_graph,
    build_fork_graph,
    build_nested_or_graph,
    build_or_graph,
)

SEEDS = (7, 2002, 31337)

GRAPHS = {
    "chain": build_chain_graph(6),        # AND-only, single section
    "fork": build_fork_graph(),           # AND fork/join, no OR choice
    "or": build_or_graph(),               # one branching OR
    "nested": build_nested_or_graph(),    # two chained ORs (multi-OR)
}


def _both(plan, scheme, power, overhead, rl):
    policy = get_policy(scheme)
    run_a = policy.start_run(plan, power, overhead, realization=rl)
    res_a = simulate(plan, run_a, power, overhead, rl, collect_trace=True)
    run_b = policy.start_run(plan, power, overhead, realization=rl)
    res_b = simulate_compiled(plan, run_b, power, overhead, rl,
                              collect_trace=True)
    return res_a, res_b


def _assert_bit_identical(res_a, res_b):
    """Exact equality — no approx anywhere."""
    assert res_a.scheme == res_b.scheme
    assert res_a.finish_time == res_b.finish_time
    assert res_a.energy.busy == res_b.energy.busy
    assert res_a.energy.idle == res_b.energy.idle
    assert res_a.energy.overhead == res_b.energy.overhead
    assert res_a.total_energy == res_b.total_energy
    assert res_a.n_speed_changes == res_b.n_speed_changes
    assert res_a.n_tasks_run == res_b.n_tasks_run
    assert res_a.path_choices == res_b.path_choices
    assert len(res_a.trace) == len(res_b.trace)
    for a, b in zip(res_a.trace, res_b.trace):
        assert a.name == b.name
        assert a.processor == b.processor
        assert a.start == b.start
        assert a.finish == b.finish
        assert a.speed == b.speed
        assert a.actual_cycles == b.actual_cycles
        assert a.energy == b.energy
        assert a.speed_changed == b.speed_changed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_single_run_equivalence(gname, scheme, seed):
    """Scalar compiled kernel == dict engine, with traces, exactly."""
    power = transmeta_model()
    app = application_with_load(GRAPHS[gname], 0.7, 2)
    overhead = NO_OVERHEAD if scheme == "NPM" else PAPER_OVERHEAD
    policy = get_policy(scheme)
    reserve = overhead.per_task_reserve(power) if policy.requires_reserve \
        else 0.0
    plan = build_plan(app, 2, reserve=reserve)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        rl = sample_realization(plan.structure, rng)
        _assert_bit_identical(*_both(plan, scheme, power, overhead, rl))


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_worst_case_realization_equivalence(scheme):
    """Zero-slack runs (every task at WCET) agree exactly too."""
    power = xscale_model()
    app = application_with_load(build_nested_or_graph(), 0.8, 2)
    overhead = NO_OVERHEAD if scheme == "NPM" else PAPER_OVERHEAD
    policy = get_policy(scheme)
    reserve = overhead.per_task_reserve(power) if policy.requires_reserve \
        else 0.0
    plan = build_plan(app, 2, reserve=reserve)
    rl = worst_case_realization(plan.structure, plan)
    _assert_bit_identical(*_both(plan, scheme, power, overhead, rl))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gname", ["fork", "nested"])
def test_evaluation_equivalence(gname, seed):
    """evaluate_application(engine=...) arrays are equal bit for bit.

    Exercises the batch machinery the single-run test cannot: the
    vectorized fixed-speed path (NPM/SPM), the vectorized dynamic path
    (GSS/SS1/SS2/AS/PS), path grouping and the oracle's per-run
    realization materialization.
    """
    app = application_with_load(GRAPHS[gname], 0.8, 2)
    base = RunConfig(schemes=ALL_SCHEMES, n_runs=40, n_processors=2,
                     seed=seed)
    r_dict = evaluate_application(app, base.with_(engine="dict"))
    r_comp = evaluate_application(app, base.with_(engine="compiled"))
    assert r_dict.path_keys == r_comp.path_keys
    assert np.array_equal(r_dict.npm_energy, r_comp.npm_energy)
    for scheme in ALL_SCHEMES:
        assert np.array_equal(r_dict.absolute[scheme],
                              r_comp.absolute[scheme]), scheme
        assert np.array_equal(r_dict.normalized[scheme],
                              r_comp.normalized[scheme]), scheme
        assert np.array_equal(r_dict.speed_changes[scheme],
                              r_comp.speed_changes[scheme]), scheme


def test_evaluation_equivalence_infeasible_dynamic():
    """At load 1.0 the dynamic plan is infeasible; both engines must
    degrade the dynamic schemes to NPM identically."""
    app = application_with_load(atr_graph(), 1.0, 2)
    base = RunConfig(schemes=ALL_SCHEMES, n_runs=25, n_processors=2,
                     seed=11)
    r_dict = evaluate_application(app, base.with_(engine="dict"))
    r_comp = evaluate_application(app, base.with_(engine="compiled"))
    for scheme in ALL_SCHEMES:
        assert np.array_equal(r_dict.normalized[scheme],
                              r_comp.normalized[scheme]), scheme


@pytest.mark.parametrize("model", ["transmeta", "xscale"])
def test_evaluation_equivalence_power_models(model):
    """Both discrete power tables agree (different level grids)."""
    app = application_with_load(atr_graph(), 0.6, 4)
    base = RunConfig(schemes=ALL_SCHEMES, n_runs=30, n_processors=4,
                     power_model=model, seed=5)
    r_dict = evaluate_application(app, base.with_(engine="dict"))
    r_comp = evaluate_application(app, base.with_(engine="compiled"))
    for scheme in ALL_SCHEMES:
        assert np.array_equal(r_dict.absolute[scheme],
                              r_comp.absolute[scheme]), scheme


# small graphs keep each fuzz example fast; or_depth still spans
# AND-only through nested multi-OR shapes
def _fuzz_graph(seed, or_depth):
    return random_graph(
        random.Random(seed),
        GraphGenConfig(or_depth=or_depth, max_tasks=4, max_width=2))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 2),
       load=st.floats(0.3, 0.95),
       scheme=st.sampled_from(ALL_SCHEMES))
def test_fuzzed_single_run_equivalence(seed, or_depth, load, scheme):
    """Random graph, random load, any scheme: traces agree exactly."""
    app = application_with_load(_fuzz_graph(seed, or_depth), load, 2)
    power = transmeta_model()
    overhead = NO_OVERHEAD if scheme == "NPM" else PAPER_OVERHEAD
    policy = get_policy(scheme)
    reserve = overhead.per_task_reserve(power) if policy.requires_reserve \
        else 0.0
    plan = build_plan(app, 2, reserve=reserve)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        rl = sample_realization(plan.structure, rng)
        _assert_bit_identical(*_both(plan, scheme, power, overhead, rl))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1),
       or_depth=st.integers(0, 2),
       load=st.floats(0.3, 0.95))
def test_fuzzed_evaluation_equivalence(seed, or_depth, load):
    """Batch engines agree on random graphs (dynamic + fixed-speed paths)."""
    app = application_with_load(_fuzz_graph(seed, or_depth), load, 2)
    base = RunConfig(schemes=("GSS", "SPM"), n_runs=8, n_processors=2,
                     seed=seed % 100_000)
    r_dict = evaluate_application(app, base.with_(engine="dict"))
    r_comp = evaluate_application(app, base.with_(engine="compiled"))
    assert r_dict.path_keys == r_comp.path_keys
    assert np.array_equal(r_dict.npm_energy, r_comp.npm_energy)
    for scheme in base.schemes:
        assert np.array_equal(r_dict.absolute[scheme],
                              r_comp.absolute[scheme]), scheme
        assert np.array_equal(r_dict.normalized[scheme],
                              r_comp.normalized[scheme]), scheme
        assert np.array_equal(r_dict.speed_changes[scheme],
                              r_comp.speed_changes[scheme]), scheme


def test_pooled_compiled_equals_serial_dict():
    """The point-level pool with the compiled engine equals serial dict."""
    graph = build_nested_or_graph()
    apps = [application_with_load(graph, load, 2) for load in (0.6, 0.8)]
    base = RunConfig(schemes=ALL_SCHEMES, n_runs=30, n_processors=2,
                     seed=13)
    # distinct overhead models keep the two points from fusing, so they
    # fan out over the pool
    configs = [base.with_(overhead=base.overhead.with_(adjust_time=t))
               for t in (5e-6, 2e-5)]
    with ExecutionContext(n_jobs=2) as ctx:
        pooled = map_evaluations(
            apps, [c.with_(engine="compiled") for c in configs],
            context=ctx)
        assert ctx.pools_created == 1
    for app, cfg, r_comp in zip(apps, configs, pooled):
        r_dict = evaluate_application(app, cfg.with_(engine="dict"))
        assert r_dict.path_keys == r_comp.path_keys
        for scheme in ALL_SCHEMES:
            assert np.array_equal(r_dict.normalized[scheme],
                                  r_comp.normalized[scheme]), scheme
