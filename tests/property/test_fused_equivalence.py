"""The fused sweep compiler must be bit-identical to per-point paths.

Three layers of the same contract:

* golden exact equality — a fused load sweep (one stacked array program
  over every point) against the per-point compiled engine against the
  serial dict-engine reference, for every scheme including the
  per-run-fallback ones (PS on continuous floors, ORACLE), on multi-OR
  and AND-only graphs;
* the ``stateless`` declaration — a stateful policy that mutates run
  state *outside* ``on_or_fired`` must get a fresh run object per run
  (the old "does not override on_or_fired" inference silently shared
  it), in a single evaluation and in a fused sweep alike, while a
  declared-stateless scheme is probed exactly once;
* fusability gates — heterogeneous sweeps (different power models,
  different graph structures) must refuse to fuse rather than guess.
"""

import numpy as np
import pytest

import repro.core.registry as registry
from repro.core import ALL_SCHEMES
from repro.core.base import PolicyRun, SpeedPolicy
from repro.experiments import RunConfig, evaluate_application
from repro import obs
from repro.experiments.fused import evaluate_points_fused
from repro.workloads import application_with_load, atr_graph, figure3_graph
from tests.conftest import build_fork_graph, build_nested_or_graph

LOADS = (0.2, 0.4, 0.5, 0.7, 0.9)


def _apps(graph, cfg, loads=LOADS):
    return [application_with_load(graph, ld, cfg.n_processors)
            for ld in loads]


def _per_point_series(x_label, xs, apps, cfg):
    """The series a sweep would build from one evaluation per point."""
    from repro.experiments.sweeps import _series_from
    return _series_from("per-point", x_label, xs,
                        [evaluate_application(app, cfg) for app in apps])


def _assert_identical(a, b):
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert a.path_keys == b.path_keys
    assert set(a.normalized) == set(b.normalized)
    for scheme in a.normalized:
        assert np.array_equal(a.normalized[scheme],
                              b.normalized[scheme]), scheme
        assert np.array_equal(a.absolute[scheme],
                              b.absolute[scheme]), scheme
        assert np.array_equal(a.speed_changes[scheme],
                              b.speed_changes[scheme]), scheme


class TestGoldenEquality:
    """Fused == per-point compiled == dict engine, bit for bit."""

    @pytest.mark.parametrize("graph_fn,label", [
        (atr_graph, "atr"),                    # multi-OR, the paper's app
        (figure3_graph, "fig3"),               # the worked example
        (build_nested_or_graph, "nested"),     # chained ORs
        (build_fork_graph, "fork"),            # AND-only, no ORs at all
    ])
    @pytest.mark.parametrize("model", ["transmeta", "xscale"])
    def test_all_schemes_fused_vs_references(self, graph_fn, label, model):
        cfg = RunConfig(schemes=ALL_SCHEMES, power_model=model,
                        n_runs=40, seed=13)
        apps = _apps(graph_fn(), cfg)
        with obs.recording() as rec:
            fused = evaluate_points_fused(apps, [cfg] * len(apps))
        assert fused is not None, f"{label} sweep should fuse"
        assert len(fused) == len(apps)
        # a load sweep's points share one draw and one decode
        assert (rec.counters["experiments.fused.draws"],
                rec.counters["experiments.fused.decodes"]) == (1, 1)
        for app, res in zip(apps, fused):
            compiled = evaluate_application(app, cfg)
            _assert_identical(res, compiled)
            dict_ref = evaluate_application(app, cfg.with_(engine="dict"))
            _assert_identical(res, dict_ref)

    def test_fused_matches_through_the_sweep_api(self):
        from repro.experiments.sweeps import sweep_load
        cfg = RunConfig(schemes=("SPM", "GSS", "SS2", "AS"),
                        n_runs=30, seed=7)
        graph = atr_graph()
        fused = sweep_load(graph, cfg, LOADS)
        per_point = _per_point_series("load", LOADS, _apps(graph, cfg), cfg)
        assert fused.points == per_point.points
        assert fused.meta["speed_changes"] == \
            per_point.meta["speed_changes"]
        counters = fused.meta["obs"]["counters"]
        assert counters["experiments.fused.draws"] == 1
        assert counters["experiments.fused.decodes"] == 1

    def test_alpha_sweep_shares_its_decode(self):
        # alpha rescales the ACETs, so every point draws its own actual
        # times; the OR choices follow the normals in the stream, so the
        # points still share one decode
        from repro.experiments.sweeps import sweep_alpha
        cfg = RunConfig(schemes=("SPM", "GSS", "AS"), n_runs=30, seed=7)
        alphas = (0.2, 0.5, 0.8, 1.0)
        fused = sweep_alpha(figure3_graph, cfg, 0.6, alphas)
        per_point = _per_point_series(
            "alpha", alphas,
            [application_with_load(figure3_graph(a), 0.6, cfg.n_processors)
             for a in alphas], cfg)
        assert fused.points == per_point.points
        assert fused.meta["speed_changes"] == \
            per_point.meta["speed_changes"]
        counters = fused.meta["obs"]["counters"]
        assert counters["experiments.fused.draws"] == len(alphas)
        assert counters["experiments.fused.decodes"] == 1


class _CountingGreedy(SpeedPolicy):
    """Stateless dynamic scheme that counts ``start_run`` calls."""

    name = "CGREEDY"
    requires_reserve = True

    def __init__(self):
        self.starts = 0

    def start_run(self, plan, power, overhead, realization=None):
        self.starts += 1
        return _CountingGreedyRun()


class _CountingGreedyRun(PolicyRun):
    name = "CGREEDY"
    floor_const = None  # opaque floor: forces the scalar kernel path
    stateless = True    # ...but nothing is ever mutated

    def floor(self, t):
        return 0.0


class _DecayPolicy(SpeedPolicy):
    """Stateful scheme whose state lives OUTSIDE ``on_or_fired``.

    Each ``floor`` call consumes the run's speed budget: the first task
    gets a full-speed floor, later ones decay toward pure greedy.  The
    old sharing inference ("does not override on_or_fired") would have
    reused one run for the whole batch, leaking the decayed floor of
    run *i* into run *i+1*.
    """

    name = "DECAY"
    requires_reserve = True

    def __init__(self):
        self.starts = 0

    def start_run(self, plan, power, overhead, realization=None):
        self.starts += 1
        return _DecayRun(power)


class _DecayRun(PolicyRun):
    name = "DECAY"
    floor_const = None  # the floor varies call to call: scalar path

    def __init__(self, power):
        self._level = power.s_max

    def floor(self, t):
        level = self._level
        self._level = self._level * 0.5  # mutation!
        return level


class TestStatelessDeclaration:
    @pytest.fixture
    def app(self):
        return application_with_load(figure3_graph(), 0.5, 2)

    def test_stateful_policy_gets_fresh_run_per_run(self, app,
                                                    monkeypatch):
        policy = _DecayPolicy()
        monkeypatch.setitem(registry._REGISTRY, "decay", lambda: policy)
        cfg = RunConfig(schemes=("DECAY",), n_runs=25, seed=3)
        compiled = evaluate_application(app, cfg)
        # one probe + one per run: never shared
        assert policy.starts == cfg.n_runs + 1
        # and the results equal the dict engine, which always starts a
        # fresh run — shared state would corrupt every run after the first
        dict_policy = _DecayPolicy()
        monkeypatch.setitem(registry._REGISTRY, "decay",
                            lambda: dict_policy)
        dict_ref = evaluate_application(app, cfg.with_(engine="dict"))
        assert np.array_equal(compiled.absolute["DECAY"],
                              dict_ref.absolute["DECAY"])
        assert np.array_equal(compiled.speed_changes["DECAY"],
                              dict_ref.speed_changes["DECAY"])

    def test_stateful_fused_sweep_is_exact(self, monkeypatch):
        # the fused pass's scalar fallback must start every run of a
        # stateful scheme afresh too, at every point of the sweep
        monkeypatch.setitem(registry._REGISTRY, "decay", _DecayPolicy)
        cfg = RunConfig(schemes=("GSS", "DECAY"), n_runs=15, seed=3)
        apps = _apps(figure3_graph(), cfg, loads=(0.4, 0.7))
        fused = evaluate_points_fused(apps, [cfg] * len(apps))
        assert fused is not None
        for app, res in zip(apps, fused):
            dict_ref = evaluate_application(app, cfg.with_(engine="dict"))
            _assert_identical(res, dict_ref)

    def test_stateful_runs_really_differ_when_shared(self, app):
        # the hazard is real: a shared _DecayRun yields different floors
        from repro.power import transmeta_model
        power = transmeta_model()
        run = _DecayRun(power)
        first = [run.floor(0.0) for _ in range(3)]
        fresh = _DecayRun(power)
        assert [fresh.floor(0.0)] + first[:2] != first  # state leaked

    def test_declared_stateless_run_is_probed_once(self, app,
                                                   monkeypatch):
        policy = _CountingGreedy()
        monkeypatch.setitem(registry._REGISTRY, "cgreedy",
                            lambda: policy)
        cfg = RunConfig(schemes=("CGREEDY",), n_runs=25, seed=3)
        compiled = evaluate_application(app, cfg)
        assert policy.starts == 1  # the probe serves every run
        # a zero floor is exactly GSS: pin against the real scheme
        gss = evaluate_application(app, cfg.with_(schemes=("GSS",)))
        assert np.array_equal(compiled.absolute["CGREEDY"],
                              gss.absolute["GSS"])


class TestFusabilityGates:
    def test_mixed_power_models_refuse_to_fuse(self):
        cfg_a = RunConfig(schemes=("GSS",), n_runs=10, seed=1,
                          power_model="transmeta")
        cfg_b = cfg_a.with_(power_model="xscale")
        apps = _apps(atr_graph(), cfg_a, loads=(0.4, 0.6))
        assert evaluate_points_fused(apps, [cfg_a, cfg_b]) is None

    def test_mixed_structures_refuse_to_fuse(self):
        cfg = RunConfig(schemes=("GSS",), n_runs=10, seed=1)
        apps = [application_with_load(atr_graph(), 0.5, 2),
                application_with_load(figure3_graph(), 0.5, 2)]
        assert evaluate_points_fused(apps, [cfg, cfg]) is None

    def test_dict_engine_refuses_to_fuse(self):
        cfg = RunConfig(schemes=("GSS",), n_runs=10, seed=1,
                        engine="dict")
        apps = _apps(atr_graph(), cfg, loads=(0.4, 0.6))
        assert evaluate_points_fused(apps, [cfg, cfg]) is None

    def test_empty_sweep_fuses_to_nothing(self):
        assert evaluate_points_fused([], []) == []
