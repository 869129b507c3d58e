"""Streaming-path invariants of the online scenario mode.

Four families, per the issue's property sweep:

* **Admission soundness** — every admitted arrival's remaining window
  really passes the offline feasibility check: ``build_plan`` on an
  application whose deadline *is* that window never raises
  :class:`~repro.errors.InfeasibleError`, and every rejection is
  justified (the window no longer fits the canonical worst case).
* **Monotonicity** — energy only accumulates: per-scheme cumulative
  stream energy is non-decreasing job over job, and extending the
  horizon (same seed) only appends work, never rewrites the prefix.
* **Determinism** — one seed fixes the whole stream: repeated
  simulations are bit-identical (arrivals, ledger, energies, finish
  instants).
* **Degenerate equality** — a single arrival at t=0 *is* the offline
  evaluator: every scheme's energies match
  ``evaluate_application(app, config.with_(n_runs=1))`` exactly, for
  both paper power models; more generally a stream of ``n`` admitted
  jobs replays the offline ``n_runs = n`` batch bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ALL_SCHEMES
from repro.experiments import (
    OnlineConfig,
    RunConfig,
    evaluate_application,
    simulate_online,
)
from repro.offline.plan import build_plan
from repro.workloads import application_with_load, figure3_graph

_SETTINGS = dict(max_examples=15, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: a fast cross-section: the baseline, the static optimum, one DVS
_SCHEMES = ("NPM", "SPM", "GSS")

seeds = st.integers(0, 10_000)
rates = st.floats(0.2, 2.0, allow_nan=False, allow_infinity=False)
loads = st.sampled_from((0.5, 0.7, 0.9))


def _stream(seed, rate, load, schemes=_SCHEMES, n=25, **cfg_kwargs):
    graph = figure3_graph()
    cfg = RunConfig(schemes=schemes, n_processors=2, seed=seed,
                    **cfg_kwargs)
    online = OnlineConfig(rate=rate, load=load, target_arrivals=n)
    return graph, cfg, simulate_online(graph, cfg, online)


@settings(**_SETTINGS)
@given(seed=seeds, rate=rates, load=loads)
def test_admission_is_sound(seed, rate, load):
    """Admitted windows pass build_plan; rejected windows cannot."""
    graph, cfg, res = _stream(seed, rate, load, n=8)
    for j in range(res.n_arrivals):
        window = float(res.windows[j])
        if res.admitted[j]:
            app = application_with_load(graph, load, cfg.n_processors)
            # must not raise InfeasibleError: the admission predicate
            # is exactly the offline feasibility check on this window
            build_plan(app.with_deadline(window), cfg.n_processors,
                       use_cache=False)
        else:
            assert res.t_worst > window, \
                f"arrival {j} rejected with a feasible window {window}"


@settings(**_SETTINGS)
@given(seed=seeds, rate=rates, load=loads)
def test_stream_energy_is_monotone(seed, rate, load):
    """Energy only accumulates: each admitted job adds a positive term."""
    _, _, res = _stream(seed, rate, load)
    for st_ in res.per_scheme.values():
        assert np.all(st_.job_energy > 0)
        cumulative = np.cumsum(st_.job_energy)
        assert np.all(np.diff(cumulative) > 0)
        # and per-job finish instants advance with the FIFO ledger
        assert np.all(np.diff(st_.job_finish) > 0)


@settings(**_SETTINGS)
@given(seed=seeds, load=loads)
def test_longer_horizon_only_appends(seed, load):
    """Extending the stream replays the same ledger prefix, plus more.

    Only the *ledger* is prefix-stable: realizations are drawn as one
    batch of ``n_admitted`` runs (the offline ``n_runs`` identity), so
    per-job energies are a function of the final admitted count, not
    of any shorter stream's.
    """
    graph = figure3_graph()
    cfg = RunConfig(schemes=_SCHEMES, n_processors=2, seed=seed)
    short = simulate_online(graph, cfg,
                            OnlineConfig(rate=1.0, load=load, horizon=10.0))
    long = simulate_online(graph, cfg,
                           OnlineConfig(rate=1.0, load=load, horizon=25.0))
    k = short.n_arrivals
    assert long.n_arrivals >= k
    assert np.array_equal(short.arrivals, long.arrivals[:k])
    assert np.array_equal(short.admitted, long.admitted[:k])
    assert np.array_equal(short.windows, long.windows[:k])
    assert long.n_admitted >= short.n_admitted


@settings(**_SETTINGS)
@given(seed=seeds, rate=rates, load=loads,
       arrival=st.sampled_from(("poisson", "bursty")))
def test_identical_seeds_are_bit_identical(seed, rate, load, arrival):
    graph = figure3_graph()
    cfg = RunConfig(schemes=_SCHEMES, n_processors=2, seed=seed)
    online = OnlineConfig(arrival=arrival, rate=rate, load=load,
                          target_arrivals=25)
    a = simulate_online(graph, cfg, online)
    b = simulate_online(graph, cfg, online)
    assert np.array_equal(a.arrivals, b.arrivals)
    assert np.array_equal(a.admitted, b.admitted)
    assert np.array_equal(a.windows, b.windows)
    assert np.array_equal(a.npm_energy, b.npm_energy)
    assert a.path_keys == b.path_keys
    assert a.admit_retries == b.admit_retries == 0
    for name, st_ in a.per_scheme.items():
        other = b.per_scheme[name]
        for attr in ("job_energy", "job_normalized", "job_finish",
                     "job_miss", "job_changes"):
            assert np.array_equal(getattr(st_, attr),
                                  getattr(other, attr)), (name, attr)


@settings(**_SETTINGS)
@given(seed=seeds, load=loads)
def test_zero_rate_stream_has_zero_energy_and_misses(seed, load):
    _, _, res = _stream(seed, 0.0, load, n=None, schemes=_SCHEMES)
    assert res.n_arrivals == 0
    for st_ in res.per_scheme.values():
        assert st_.energy == 0.0
        assert st_.n_missed == 0


class TestOfflineEquivalence:
    """The degenerate stream is the offline evaluator, bit for bit."""

    @pytest.mark.parametrize("model", ["transmeta", "xscale"])
    def test_single_arrival_matches_evaluate_application(self, model):
        graph = figure3_graph()
        cfg = RunConfig(schemes=ALL_SCHEMES, power_model=model,
                        n_processors=2, seed=13)
        online = OnlineConfig(arrival="trace", trace=(0.0,),
                              horizon=5.0, load=0.7)
        res = simulate_online(graph, cfg, online)
        assert res.n_arrivals == res.n_admitted == 1

        app = application_with_load(graph, 0.7, cfg.n_processors)
        ref = evaluate_application(app, cfg.with_(n_runs=1))
        assert np.array_equal(res.npm_energy, ref.npm_energy)
        assert res.path_keys == ref.path_keys
        for name in ref.absolute:
            st_ = res.per_scheme[name]
            assert np.array_equal(st_.job_energy, ref.absolute[name]), name
            assert np.array_equal(st_.job_normalized,
                                  ref.normalized[name]), name
            assert np.array_equal(st_.job_changes,
                                  ref.speed_changes[name]), name

    @settings(**dict(_SETTINGS, max_examples=5))
    @given(seed=seeds, rate=rates)
    def test_admitted_batch_matches_offline_n_runs(self, seed, rate):
        """n admitted jobs see exactly the offline n_runs=n batch."""
        graph, cfg, res = _stream(seed, rate, 0.7, schemes=ALL_SCHEMES,
                                  n=12)
        if res.n_admitted == 0:  # an all-rejected draw proves nothing
            return
        app = application_with_load(graph, 0.7, cfg.n_processors)
        ref = evaluate_application(app, cfg.with_(n_runs=res.n_admitted))
        assert np.array_equal(res.npm_energy, ref.npm_energy)
        assert res.path_keys == ref.path_keys
        for name in ref.absolute:
            assert np.array_equal(res.per_scheme[name].job_energy,
                                  ref.absolute[name]), name

    def test_dict_engine_replays_the_same_stream(self):
        graph = figure3_graph()
        cfg = RunConfig(schemes=ALL_SCHEMES, n_processors=2, seed=21)
        online = OnlineConfig(rate=1.0, load=0.7, target_arrivals=15)
        a = simulate_online(graph, cfg, online)
        b = simulate_online(graph, cfg.with_(engine="dict"), online)
        assert np.array_equal(a.admitted, b.admitted)
        assert a.path_keys == b.path_keys
        for name, st_ in a.per_scheme.items():
            other = b.per_scheme[name]
            assert np.array_equal(st_.job_energy, other.job_energy), name
            assert np.array_equal(st_.job_finish, other.job_finish), name
            assert np.array_equal(st_.job_miss, other.job_miss), name
