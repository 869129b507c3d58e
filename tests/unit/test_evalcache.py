"""Unit tests for the content-addressed evaluation cache.

The contract: ``evaluation_key`` must change when — and only when — a
field that can change the *result* changes.  Execution knobs (worker
count, chunking, fallback threshold) shape wall-clock, never bits, so
they must hash identically; a cached entry loaded back must be
bit-identical to the result that was stored; a corrupted, truncated
or wrong-schema entry must degrade to a miss with a single warning —
never a crash — and the broken bytes must be quarantined (moved into
``<root>/quarantine/``, not destroyed) before the point is recomputed.
"""

import numpy as np
import pytest

from repro.experiments import (EvaluationCache, RunConfig,
                               evaluate_application, evaluation_key)
from repro.experiments.evalcache import plan_setup_key
from repro.power import PAPER_OVERHEAD
from repro.workloads import application_with_load, figure3_graph


@pytest.fixture(scope="module")
def app():
    return application_with_load(figure3_graph(), 0.6, 2)


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(n_runs=12, seed=7)


class TestEvaluationKey:
    def test_deterministic(self, app, cfg):
        assert evaluation_key(app, cfg) == evaluation_key(app, cfg)

    def test_graph_changes_key(self, app, cfg):
        other = application_with_load(figure3_graph(), 0.7, 2)
        assert evaluation_key(app, cfg) != evaluation_key(other, cfg)

    @pytest.mark.parametrize("change", [
        {"seed": 8},
        {"n_runs": 13},
        {"sigma_fraction": 0.25},
        {"idle_fraction": 0.10},
        {"schemes": ("GSS", "AS")},
        {"engine": "dict"},
        {"power_model": "continuous"},
        {"heuristic": "stf"},
        {"n_processors": 3},
        {"overhead": PAPER_OVERHEAD.with_(adjust_time=0.02)},
    ])
    def test_result_field_changes_key(self, app, cfg, change):
        assert evaluation_key(app, cfg) != \
            evaluation_key(app, cfg.with_(**change))

    @pytest.mark.parametrize("change", [
        {"n_jobs": 4},
        {"runs_per_chunk": 3},
        {"parallel_min_runs": 0},
    ])
    def test_execution_knobs_do_not_change_key(self, app, cfg, change):
        # these shape wall-clock only; results are bit-identical, so a
        # cache entry computed serially must serve a pooled request
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))

    def test_default_config_key_is_pinned(self, app):
        # the literal digest users' .repro-cache entries are filed
        # under: removing an execution knob from RunConfig, or any
        # other refactor, must not silently move it.  Change this
        # value only together with a deliberate cache-format bump.
        assert evaluation_key(app, RunConfig()) == (
            "3e48b520f07db9ff364e34c84ac03e39"
            "e1c462bf96e5887af1df182f752cb50e")

    def test_scheme_aliases_canonicalized(self, app, cfg):
        lower = cfg.with_(schemes=("gss", "ss1"))
        canon = cfg.with_(schemes=("GSS", "SS1"))
        assert evaluation_key(app, lower) == evaluation_key(app, canon)

    def test_setup_key_ignores_draw_fields(self, app, cfg):
        # the plan/compile setup shipped to workers only depends on the
        # schedule, not on how many realizations are drawn from it
        assert plan_setup_key(app, cfg) == \
            plan_setup_key(app, cfg.with_(n_runs=99, seed=1,
                                          sigma_fraction=0.2))
        assert plan_setup_key(app, cfg) != \
            plan_setup_key(app, cfg.with_(heuristic="stf"))


class TestCacheRoundTrip:
    def test_put_get_bit_identical(self, app, cfg, tmp_path):
        cache = EvaluationCache(tmp_path)
        result = evaluate_application(app, cfg)
        key = evaluation_key(app, cfg)
        cache.put(key, result)
        loaded = cache.get(key, app.name, cfg)
        assert loaded is not None
        assert np.array_equal(loaded.npm_energy, result.npm_energy)
        assert loaded.path_keys == result.path_keys
        assert set(loaded.normalized) == set(result.normalized)
        for scheme in result.normalized:
            assert np.array_equal(loaded.normalized[scheme],
                                  result.normalized[scheme])
            assert np.array_equal(loaded.absolute[scheme],
                                  result.absolute[scheme])
            assert np.array_equal(loaded.speed_changes[scheme],
                                  result.speed_changes[scheme])
        assert cache.stats() == {"hits": 1, "misses": 0, "errors": 0,
                                 "quarantined": 0}

    def test_absent_key_is_a_miss(self, app, cfg, tmp_path):
        cache = EvaluationCache(tmp_path)
        assert cache.get(evaluation_key(app, cfg),
                         app.name, cfg) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "errors": 0,
                                 "quarantined": 0}

    def test_corrupt_entry_recomputes_with_warning(self, app, cfg,
                                                   tmp_path):
        cache = EvaluationCache(tmp_path)
        key = evaluation_key(app, cfg)
        result = evaluate_application(app, cfg)
        cache.put(key, result)
        path = cache.path_for(key)
        path.write_bytes(b"this is not a numpy archive")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key, app.name, cfg) is None
        assert cache.stats()["errors"] == 1
        assert not path.exists()  # moved aside, so the recompute can re-put
        cache.put(key, result)
        assert cache.get(key, app.name, cfg) is not None

    def test_entry_for_other_config_rejected(self, app, cfg, tmp_path):
        # defensive: a payload stored under the wrong key must not be
        # served for a config whose scheme set does not match
        cache = EvaluationCache(tmp_path)
        key = evaluation_key(app, cfg)
        cache.put(key, evaluate_application(app, cfg))
        other = cfg.with_(schemes=("GSS",))
        with pytest.warns(RuntimeWarning):
            assert cache.get(key, app.name, other) is None


class TestQuarantine:
    """Every corruption class: one warning, one quarantined copy, a miss."""

    @pytest.fixture()
    def stored(self, app, cfg, tmp_path):
        cache = EvaluationCache(tmp_path / "cache")
        key = evaluation_key(app, cfg)
        result = evaluate_application(app, cfg)
        cache.put(key, result)
        return cache, key, result

    def _assert_quarantined(self, cache, key, app, cfg, result):
        path = cache.path_for(key)
        with pytest.warns(RuntimeWarning, match="quarantined") as caught:
            assert cache.get(key, app.name, cfg) is None
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1  # exactly one warning per broken entry
        assert cache.stats()["quarantined"] == 1
        assert cache.stats()["errors"] == 1
        assert not path.exists()
        kept = list(cache.quarantine_dir().iterdir())
        assert [p.name for p in kept] == [path.name]  # evidence preserved
        # the slot is free again: recompute and re-put round-trips
        cache.put(key, result)
        loaded = cache.get(key, app.name, cfg)
        assert loaded is not None
        assert np.array_equal(loaded.npm_energy, result.npm_energy)

    def test_truncated_entry(self, app, cfg, stored):
        cache, key, result = stored
        path = cache.path_for(key)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])  # torn write
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_zero_byte_entry(self, app, cfg, stored):
        cache, key, result = stored
        cache.path_for(key).write_bytes(b"")
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_wrong_schema_entry(self, app, cfg, stored):
        cache, key, result = stored
        path = cache.path_for(key)
        # a well-formed archive from some other (future) layout version
        np.savez(path.open("wb"), format=np.asarray(99))
        self._assert_quarantined(cache, key, app, cfg, result)

    @pytest.mark.parametrize("keep", [10, 0])
    def test_wrong_path_key_count_entry(self, app, cfg, stored, keep):
        # a well-formed entry whose path keys do not cover every run:
        # served, it would report path frequencies over the wrong run
        # count, so it must be quarantined and recomputed instead
        cache, key, result = stored
        path = cache.path_for(key)
        with np.load(path) as data:
            payload = dict(data)
        payload["path_keys"] = payload["path_keys"][:keep]
        with path.open("wb") as fh:
            np.savez(fh, **payload)
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_unwritable_quarantine_falls_back_to_unlink(self, app, cfg,
                                                        stored,
                                                        monkeypatch):
        cache, key, result = stored
        path = cache.path_for(key)
        path.write_bytes(b"broken")
        import repro.experiments.evalcache as mod

        def deny(src, dst):
            raise OSError("read-only")

        monkeypatch.setattr(mod.os, "replace", deny)
        with pytest.warns(RuntimeWarning, match="deleted"):
            assert cache.get(key, app.name, cfg) is None
        assert cache.stats()["quarantined"] == 0
        assert not path.exists()
