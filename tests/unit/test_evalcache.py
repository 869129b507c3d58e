"""Unit tests for the content-addressed evaluation cache.

The contract: ``evaluation_key`` must change when — and only when — a
field that can change the *result* changes.  Execution knobs (pool
rebuild budget, degrade mode) shape wall-clock, never bits, so
they must hash identically; a cached entry loaded back must be
bit-identical to the result that was stored; a corrupted, truncated
or wrong-schema entry must degrade to a miss with a single warning —
never a crash — and the broken bytes must be quarantined (moved into
``<root>/quarantine/``, not destroyed) before the point is recomputed.
"""

import json
import struct
import warnings
import zlib

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.evalcache as evalcache
from repro.core.registry import ALL_SCHEMES, get_policy
from repro.experiments import (EvaluationCache, RunConfig,
                               evaluate_application, evaluation_key)
from repro.experiments.figures import ATR_ALPHA
from repro.offline import graph_fingerprint
from repro.power import PAPER_OVERHEAD, OverheadModel
from repro.workloads.atr import AtrConfig, atr_graph
from repro.workloads import application_with_load, figure3_graph

#: a record opens with an 8-byte magic and the u32 JSON header length
_PREAMBLE = struct.Struct("<8sI")


def split_record(blob):
    """(magic, header dict, body bytes) of one format-2 record."""
    magic, header_len = _PREAMBLE.unpack_from(blob)
    start = _PREAMBLE.size + header_len
    return magic, json.loads(blob[_PREAMBLE.size:start]), blob[start:]


def join_record(magic, header, body):
    """Re-assemble a record whose crc32 matches its path table and body."""
    table = "\n".join(header["paths"]).encode()
    head = json.dumps(dict(header, crc32=zlib.crc32(table + body))).encode()
    return _PREAMBLE.pack(magic, len(head)) + head + body


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
        {"power_model": "xscale"},
        {"heuristic": "stf"},
        {"n_processors": 3},
        {"overhead": PAPER_OVERHEAD.with_(adjust_time=0.02)},
    ])
    def test_result_field_changes_key(self, app, cfg, change):
        assert evaluation_key(app, cfg) != \
            evaluation_key(app, cfg.with_(**change))

    @pytest.mark.parametrize("change", [
        {"max_retries": 9},
        {"max_retries": 0},
        {"degrade": False},
        {"max_retries": 3, "degrade": False},
    ])
    def test_execution_knobs_do_not_change_key(self, app, cfg, change):
        # these shape recovery only; results are bit-identical, so a
        # cache entry computed without them must serve a request with
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

    @pytest.mark.parametrize("model,digest", [
        ("transmeta", "bd4e1011d14ab3f477756664d3f00778"
                      "7d3bbdb1e058e657849ddc2fc7330b2e"),
        ("xscale", "d619f807125e52ca67cef9abe958909f"
                   "6ca7f2e458b1c1f133c235f971a1d2ba"),
    ], ids=["transmeta", "xscale"])
    def test_figure5_point_key_is_pinned(self, model, digest):
        # figure5's load-0.5 point under each sub-figure's default
        # config, as a cache filled by an older RunConfig (one with
        # more execution fields) filed it: a warm .repro-cache must
        # keep serving every figure5 point with hits
        graph = atr_graph(AtrConfig(
            alpha=ATR_ALPHA, max_rois=6,
            roi_probs=(0.05, 0.15, 0.20, 0.20, 0.15, 0.15, 0.10)))
        point = application_with_load(graph, 0.5, 6)
        cfg = RunConfig(power_model=model, n_processors=6)
        assert evaluation_key(point, cfg) == digest

    def test_power_model_spelling_shares_key(self, app, cfg):
        # make_power_model is case-insensitive, so "Transmeta" computes
        # exactly what "transmeta" does and must file under its entry
        assert evaluation_key(app, cfg.with_(power_model="Transmeta")) == \
            evaluation_key(app, cfg.with_(power_model="transmeta"))
        assert evaluation_key(app, RunConfig(power_model="XSCALE")) == \
            evaluation_key(app, RunConfig(power_model="xscale"))

    def test_scheme_aliases_canonicalized(self, app, cfg):
        lower = cfg.with_(schemes=("gss", "ss1"))
        canon = cfg.with_(schemes=("GSS", "SS1"))
        assert evaluation_key(app, lower) == evaluation_key(app, canon)


def _one_dumps_key(app, config):
    """The key as one ``json.dumps(sort_keys=True)`` of the whole object,
    the formula the field-by-field key must reproduce byte for byte."""
    blob = json.dumps({
        "salt": evalcache.CACHE_SALT,
        "graph": graph_fingerprint(app.graph),
        "deadline": repr(float(app.deadline)),
        "app": app.name,
        "config": {
            "power_model": config.power_model,
            "n_processors": config.n_processors,
            "n_runs": config.n_runs, "seed": config.seed,
            "sigma_fraction": config.sigma_fraction,
            "idle_fraction": config.idle_fraction,
            "heuristic": config.heuristic, "engine": config.engine,
            "schemes": [get_policy(n).name for n in config.schemes],
            "overhead": {
                "comp_cycles": config.overhead.comp_cycles,
                "adjust_time": config.overhead.adjust_time,
                "time_unit_us": config.overhead.time_unit_us}},
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_ALIASES = [n for name in ALL_SCHEMES for n in (name, name.lower())]


class TestKeyEqualsOneDumps:
    @given(schemes=st.lists(st.sampled_from(_ALIASES), min_size=1,
                            max_size=4),
           model=st.sampled_from(["transmeta", "XScale"]),
           seed=st.integers(0, 2**63),
           n_runs=st.integers(1, 10**6),
           cycles=st.sampled_from([0.0, 300.0, 1e4]),
           adjust=st.sampled_from([0.0, 5.0, 12.5e-3]),
           sigma=st.sampled_from([1.0 / 3.0, 0.1]),
           name=st.text(max_size=12),
           load=st.sampled_from([0.3, 0.6, 1.0]))
    @settings(deadline=None)
    def test_field_by_field_key(self, schemes, model, seed, n_runs, cycles,
                                adjust, sigma, name, load):
        app = application_with_load(figure3_graph(), load, 2, name=name)
        config = RunConfig(
            schemes=tuple(schemes), power_model=model, seed=seed,
            n_runs=n_runs, sigma_fraction=sigma,
            overhead=OverheadModel(comp_cycles=cycles, adjust_time=adjust))
        assert evaluation_key(app, config) == _one_dumps_key(app, config)
        # an equal config object, and the memo switching between configs
        twin = config.with_()
        assert evaluation_key(app, twin) == _one_dumps_key(app, config)
        assert evaluation_key(app, RunConfig()) == \
            _one_dumps_key(app, RunConfig())
        assert evaluation_key(app, config) == _one_dumps_key(app, config)


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

    def test_entry_vanishing_before_the_read_is_a_plain_miss(
            self, app, cfg, tmp_path, monkeypatch):
        # another process quarantines the entry between this process
        # finding it and reading it: a miss, not a corrupt entry
        cache = EvaluationCache(tmp_path)
        key = evaluation_key(app, cfg)
        cache.put(key, evaluate_application(app, cfg))
        path = cache.path_for(key)
        real = evalcache.read_record

        def moved_aside_first(where):
            path.unlink()
            return real(where)

        monkeypatch.setattr(evalcache, "read_record", moved_aside_first)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key, app.name, cfg) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "errors": 0,
                                 "quarantined": 0}
        assert not cache.quarantine_dir().exists()

    def test_cache_read_fault_lands_on_an_entry_that_exists(
            self, app, cfg, tmp_path):
        # a lookup that finds nothing does not use up the injected
        # torn write: it lands on the first entry actually read
        from repro.experiments import faults
        cache = EvaluationCache(tmp_path / "cache")
        key = evaluation_key(app, cfg)
        faults.install(faults.FaultPlan(specs=(faults.FaultSpec(
            site="cache-read", action="corrupt", occurrence=1),)))
        try:
            assert cache.get(key, app.name, cfg) is None
            cache.put(key, evaluate_application(app, cfg))
            with pytest.warns(RuntimeWarning, match="quarantined"):
                assert cache.get(key, app.name, cfg) is None
        finally:
            faults.uninstall()
        assert cache.stats() == {"hits": 0, "misses": 2, "errors": 1,
                                 "quarantined": 1}

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


class TestFormat2:
    def test_format1_entry_is_never_read(self, app, cfg, tmp_path):
        # a format-1 .npz left at the old path just misses: no warning,
        # nothing quarantined, and the file is left alone
        cache = EvaluationCache(tmp_path)
        key = evaluation_key(app, cfg)
        old = cache.path_for(key).with_suffix(".npz")
        old.parent.mkdir(parents=True)
        np.savez(old, format=np.asarray(1), npm_energy=np.ones(cfg.n_runs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key, app.name, cfg) is None
        assert cache.stats() == {"hits": 0, "misses": 1, "errors": 0,
                                 "quarantined": 0}
        assert old.is_file()
        result = evaluate_application(app, cfg)
        cache.put(key, result)
        assert cache.path_for(key).suffix == ".rec"
        loaded = cache.get(key, app.name, cfg)
        assert np.array_equal(loaded.npm_energy, result.npm_energy)
        assert loaded.path_keys == result.path_keys
        for scheme in result.absolute:
            assert np.array_equal(loaded.absolute[scheme],
                                  result.absolute[scheme])

    def test_round_trip_bytes_every_scheme(self, app, tmp_path):
        config = RunConfig(n_runs=40, seed=11, schemes=ALL_SCHEMES)
        cache = EvaluationCache(tmp_path)
        key = evaluation_key(app, config)
        result = evaluate_application(app, config)
        cache.put(key, result)
        loaded = cache.get(key, app.name, config)
        assert list(loaded.absolute) == list(result.absolute)
        assert loaded.npm_energy.tobytes() == result.npm_energy.tobytes()
        # the header padding puts the float64 matrix on an 8-byte boundary
        assert loaded.npm_energy.flags.aligned
        assert loaded.npm_energy.flags.writeable
        for scheme in result.absolute:
            for field in ("absolute", "normalized", "speed_changes"):
                got = getattr(loaded, field)[scheme]
                want = getattr(result, field)[scheme]
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (scheme, field)
        assert loaded.path_keys == result.path_keys
        assert all(type(k) is str for k in loaded.path_keys)
        assert len(set(loaded.path_keys)) > 1  # the table is exercised


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
        # a well-formed record from some other (future) layout version
        magic, header, body = split_record(path.read_bytes())
        path.write_bytes(join_record(magic, dict(header, format=99), body))
        self._assert_quarantined(cache, key, app, cfg, result)

    @pytest.mark.parametrize("keep", [10, 0])
    def test_wrong_path_key_count_entry(self, app, cfg, stored, keep):
        # a well-formed entry whose path ids do not cover every run:
        # served, it would report path frequencies over the wrong run
        # count, so it must be quarantined and recomputed instead
        cache, key, result = stored
        path = cache.path_for(key)
        magic, header, body = split_record(path.read_bytes())
        floats = len(body) - 4 * cfg.n_runs  # the int32 ids close the body
        path.write_bytes(join_record(magic, header,
                                     body[:floats + 4 * keep]))
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_wrong_run_count_entry(self, app, cfg, stored):
        cache, key, result = stored
        path = cache.path_for(key)
        magic, header, body = split_record(path.read_bytes())
        path.write_bytes(join_record(
            magic, dict(header, n_runs=cfg.n_runs - 1), body))
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_flipped_body_byte(self, app, cfg, stored):
        # same length, valid header: only the crc32 can catch this
        cache, key, result = stored
        path = cache.path_for(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) - 4 * cfg.n_runs - 3] ^= 0x01  # inside the matrix
        path.write_bytes(bytes(blob))
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_flipped_path_table_byte(self, app, cfg, stored):
        # the path keys live in the header, so the crc32 covers them
        # too: a changed section id must not relabel runs silently
        cache, key, result = stored
        path = cache.path_for(key)
        blob = path.read_bytes()
        _, header, _ = split_record(blob)
        first = json.dumps(header["paths"][0]).encode()
        at = blob.index(first) + 1  # the first digit of the first key
        flipped = bytes([blob[at] ^ 0x01])  # '0' <-> '1', '8' <-> '9', ...
        path.write_bytes(blob[:at] + flipped + blob[at + 1:])
        self._assert_quarantined(cache, key, app, cfg, result)

    def test_path_id_outside_table(self, app, cfg, stored):
        cache, key, result = stored
        path = cache.path_for(key)
        magic, header, body = split_record(path.read_bytes())
        ids = np.frombuffer(body[-4 * cfg.n_runs:], dtype="<i4").copy()
        ids[0] = len(header["paths"])
        path.write_bytes(join_record(
            magic, header, body[:-4 * cfg.n_runs] + ids.tobytes()))
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
