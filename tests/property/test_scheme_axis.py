"""The dynamic kernel's scheme axis and the kernels' row blocks.

:func:`~repro.sim.compiled.run_dynamic_batch` stacks several dynamic
schemes on its row axis and both batch kernels split each path group
into row blocks.  Neither may change a float: one stacked call must
equal one call per scheme bit for bit (energy, finish time, switches),
on an AND-only and a multi-OR graph, for a plain program and for a
fused ``point_of`` sweep, with blocks small enough that every path
group spans several of them.  GSS, SS1, SS2 (a step floor), AS
("average" re-speculation) and PS ("worst" re-speculation) share one
call.  An error raised from a stacked call names the scheme of the
violating row.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_policy
from repro.errors import DeadlineMissError
from repro.experiments import RunConfig
from repro.experiments.fused import _build_fused, _stack_probes
from repro.power import PAPER_OVERHEAD
from repro.sim import sample_realization_batch
from repro.sim.compiled import compile_plan, run_dynamic_batch, run_fixed_batch
from repro.sim.kernels import interp
from repro.workloads import application_with_load, atr_graph
from tests.conftest import build_fork_graph

SCHEMES = ("GSS", "SS1", "SS2", "AS", "PS")
LOADS = (0.3, 0.5, 0.8)
N_RUNS = 24

_INPUTS = {}


def _inputs(graph: str, fused: bool):
    """``(prog, static_prog, matrix, groups, point_of, runs)`` of a load
    sweep (fused) or of its middle point alone, built once per case."""
    key = (graph, fused)
    if key not in _INPUTS:
        make = {"fork": build_fork_graph, "atr": atr_graph}[graph]
        cfg = RunConfig(schemes=SCHEMES, n_runs=N_RUNS, seed=11)
        loads = LOADS if fused else LOADS[1:2]
        apps = [application_with_load(make(), ld, 2) for ld in loads]
        build = _build_fused(apps, [cfg] * len(apps))
        assert build.dyn_points == list(range(len(apps)))
        batches = [sample_realization_batch(
            ps.structure, np.random.default_rng(cfg.seed + i), N_RUNS)
            for i, (_pd, ps) in enumerate(build.plans)]
        matrix = np.vstack([p.realization_matrix(b) for p, b
                            in zip(build.static_progs, batches)])
        choices = {name: np.concatenate([b.choices[name] for b in batches])
                   for name in batches[0].choices}
        if fused:
            prog, static = build.stacked_dyn, build.stacked_static
            point_of = np.repeat(np.arange(len(apps)), N_RUNS)
        else:
            prog, static = build.dyn_progs[0], build.static_progs[0]
            point_of = None
        groups, _keys = static.executed_paths(choices, matrix.shape[0])
        power = cfg.make_power()
        runs = {}
        for name in SCHEMES:
            probes = [get_policy(name).start_run(p, power, PAPER_OVERHEAD)
                      for p in build.dyn_plans]
            runs[name] = (_stack_probes(name, probes) if fused
                          else probes[0])
        _INPUTS[key] = (prog, static, matrix, groups, point_of, runs,
                        power)
    return _INPUTS[key]


def _dynamic(prog, power, matrix, groups, point_of, runs, names):
    return run_dynamic_batch(prog, power, PAPER_OVERHEAD, matrix, groups,
                             [runs[n] for n in names], list(names),
                             point_of=point_of)


def _same(a, b):
    for f in ("total_energy", "finish_time", "n_speed_changes"):
        x, y = np.asarray(getattr(a, f)), np.asarray(getattr(b, f))
        assert x.dtype == y.dtype and x.shape == y.shape, f
        assert x.tobytes() == y.tobytes(), (a.scheme, f)


@pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
@pytest.mark.parametrize("graph", ["fork", "atr"])
@settings(max_examples=12, deadline=None)
@given(order=st.permutations(SCHEMES), block=st.integers(1, 40))
def test_stacked_call_equals_one_scheme_calls(graph, fused, order, block):
    prog, _static, matrix, groups, point_of, runs, power = \
        _inputs(graph, fused)
    # the references: one call per scheme, default (unsplit) blocks
    ref = {name: _dynamic(prog, power, matrix, groups, point_of, runs,
                          [name])[0] for name in order}
    assert max(idx.size for _p, idx in groups) * len(order) \
        <= interp.BLOCK_ROWS
    saved = interp.BLOCK_ROWS
    interp.BLOCK_ROWS = block
    try:
        got = _dynamic(prog, power, matrix, groups, point_of, runs, order)
    finally:
        interp.BLOCK_ROWS = saved
    assert [r.scheme for r in got] == list(order)
    for res in got:
        _same(res, ref[res.scheme])


@pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
@pytest.mark.parametrize("graph", ["fork", "atr"])
def test_fixed_kernel_blocks_change_nothing(graph, fused, monkeypatch):
    _prog, static, matrix, groups, point_of, _runs, power = \
        _inputs(graph, fused)
    ref = run_fixed_batch(static, power, PAPER_OVERHEAD, matrix, groups,
                          power.s_max * 0.8, "X", point_of=point_of)
    monkeypatch.setattr(interp, "BLOCK_ROWS", 5)
    got = run_fixed_batch(static, power, PAPER_OVERHEAD, matrix, groups,
                          power.s_max * 0.8, "X", point_of=point_of)
    assert got.total_energy.tobytes() == ref.total_energy.tobytes()
    assert got.finish_time.tobytes() == ref.finish_time.tobytes()
    assert np.array_equal(got.n_speed_changes, ref.n_speed_changes)


class _Floor:
    """A bare protocol run: a constant floor, no re-speculation."""

    floor_step = None
    or_respec = None

    def __init__(self, level):
        self.floor_const = level


def test_deadline_miss_names_the_scheme_of_the_late_row(monkeypatch):
    # FAST never dips below S_max; SLOW is pure greedy and stretches
    # toward the deadline.  With the deadline pulled in to FAST's
    # latest finish only SLOW rows are late — and SLOW is the second
    # scheme, so the first late row is not row 0 of its block
    prog, _static, matrix, groups, _pt, _runs, power = _inputs("atr", False)
    runs = {"FAST": _Floor(power.s_max), "SLOW": _Floor(0.0)}
    fast, slow = _dynamic(prog, power, matrix, groups, None, runs,
                          ["FAST", "SLOW"])
    deadline = float(fast.finish_time.max())
    assert (slow.finish_time > deadline * (1 + 1e-9) + 1e-9).any()
    early = copy.copy(prog)
    early.deadline = deadline
    monkeypatch.setattr(interp, "BLOCK_ROWS", 8)
    with pytest.raises(DeadlineMissError) as ei:
        _dynamic(early, power, matrix, groups, None, runs, ["FAST", "SLOW"])
    assert ei.value.scheme == "SLOW"
    assert "'SLOW'" in str(ei.value)
