"""Shard planning and resolution edges for the sharded fused sweep.

The bit-identity of sharded execution lives in the property tier
(tests/property/test_fused_equivalence.py) and the chaos tier; these
tests pin the small deterministic parts — the run-range planner,
shard-count resolution (explicit / config / session default / auto),
config validation, the shm result-block round-trip,
and the cache-key contract that sharding is an execution knob.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments import RunConfig, evaluation_key
from repro.experiments import fused as fused_mod
from repro.experiments.fused import (
    _resolve_shard_count,
    default_shards,
)
from repro.sim.sweepc import plan_shards
from repro.workloads import application_with_load, figure3_graph


class TestPlanShards:
    def test_non_divisible_runs_spread_the_remainder_first(self):
        # 40 runs over 3 shards: 40 % 3 = 1 extra run on shard 0
        assert plan_shards(40, 3) == [(0, 14), (14, 27), (27, 40)]

    def test_more_shards_than_runs_clamps_to_one_run_each(self):
        assert plan_shards(5, 9) == [(i, i + 1) for i in range(5)]

    def test_single_shard_is_the_whole_axis(self):
        assert plan_shards(40, 1) == [(0, 40)]

    def test_zero_or_negative_request_clamps_to_one(self):
        assert plan_shards(10, 0) == [(0, 10)]
        assert plan_shards(10, -4) == [(0, 10)]

    @pytest.mark.parametrize("n_runs,shards", [
        (1, 1), (2, 3), (7, 2), (40, 3), (100, 7), (1000, 16),
    ])
    def test_ranges_tile_the_run_axis_exactly(self, n_runs, shards):
        ranges = plan_shards(n_runs, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_runs
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, ordered, no gaps or overlaps
        sizes = [hi - lo for lo, hi in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_empty_run_axis_rejected(self):
        with pytest.raises(ValueError, match="n_runs"):
            plan_shards(0, 2)


class TestResolveShardCount:
    def _cfgs(self, n=3, **kw):
        return [RunConfig(schemes=("GSS",), n_runs=40, seed=1, **kw)] * n

    def test_unset_everywhere_means_monolithic(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", None)
        assert _resolve_shard_count(self._cfgs(), None) == 1

    def test_explicit_argument_outranks_the_config(self):
        cfgs = self._cfgs(shards=2)
        assert _resolve_shard_count(cfgs, 5) == 5
        assert _resolve_shard_count(cfgs, None) == 2

    def test_session_default_applies_last(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "4")
        assert _resolve_shard_count(self._cfgs(), None) == 4

    def test_clamped_to_the_run_count(self):
        assert _resolve_shard_count(self._cfgs(), 999) == 40

    def test_mixed_run_counts_refuse_to_shard(self):
        cfgs = [RunConfig(schemes=("GSS",), n_runs=40, seed=1),
                RunConfig(schemes=("GSS",), n_runs=30, seed=1)]
        assert _resolve_shard_count(cfgs, 3) == 1

    def test_auto_follows_effective_cores(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "effective_cores", lambda: 6)
        assert _resolve_shard_count(self._cfgs(), 0) == 6

    def test_auto_budget_never_exceeds_the_run_count(self, monkeypatch):
        # more cores than runs: auto clamps to one run per shard
        monkeypatch.setattr(fused_mod, "effective_cores", lambda: 64)
        assert _resolve_shard_count(self._cfgs(), 0) == 40


class TestDefaultShards:
    def test_unset_and_empty_mean_no_request(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", None)
        assert default_shards() is None
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "")
        assert default_shards() is None

    def test_parses_integers(self, monkeypatch):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "3")
        assert default_shards() == 3
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", "0")
        assert default_shards() == 0

    @pytest.mark.parametrize("bad", ["three", "1.5", "-2"])
    def test_rejects_malformed_values(self, monkeypatch, bad):
        monkeypatch.setattr(fused_mod, "DEFAULT_SHARDS", bad)
        with pytest.raises(ConfigError, match="REPRO_SHARDS"):
            default_shards()


class TestRunConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ConfigError, match="shards"):
            RunConfig(shards=-1)

    def test_zero_is_auto_not_an_error(self):
        assert RunConfig(shards=0).shards == 0


class TestKeyInsulation:
    """Sharding is pure execution: it must never split the cache."""

    @pytest.mark.parametrize("change", [
        {"shards": 4},
        {"shards": 0},
        {"shards": 1},
        {"shards": 3, "degrade": False},
    ])
    def test_shard_knobs_do_not_change_evaluation_key(self, change):
        app = application_with_load(figure3_graph(), 0.5, 2)
        cfg = RunConfig(schemes=("GSS",), n_runs=20, seed=3)
        assert evaluation_key(app, cfg) == \
            evaluation_key(app, cfg.with_(**change))


def _identity(x):
    return x


class TestWorkerKernelStats:
    """--cache-stats aggregation: probe every pool worker exactly once."""

    def test_no_live_pool_returns_nothing(self):
        from repro.experiments import ExecutionContext
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.worker_kernel_stats() == []

    def test_each_live_worker_reports_once(self):
        from repro.experiments import ExecutionContext
        with ExecutionContext(n_jobs=2) as ctx:
            assert ctx.map(_identity, [(i,) for i in range(4)]) == \
                [0, 1, 2, 3]  # spins the persistent pool up
            stats = ctx.worker_kernel_stats()
        assert len(stats) == 2  # deduplicated by worker pid
        for counters in stats:
            assert set(counters) >= {"program_cache", "tape_cache",
                                     "stacked_cache"}
            for label in ("program_cache", "tape_cache", "stacked_cache"):
                assert counters[label]["hits"] >= 0
                assert counters[label]["misses"] >= 0


class TestShardBlockTransport:
    def test_matrix_round_trips_exactly(self):
        from repro.experiments.engine import publish_shard_block
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(9, 120))
        block = publish_shard_block(matrix)
        if block is None:
            pytest.skip("shared memory unavailable on this platform")
        out = block.take()
        assert np.array_equal(out, matrix)
        assert out.dtype == matrix.dtype

    def test_empty_matrix_is_not_published(self):
        from repro.experiments.engine import publish_shard_block
        assert publish_shard_block(np.empty((0, 0))) is None

    def test_take_after_unlink_raises_transport_error(self):
        from repro.errors import TransportError
        from repro.experiments.engine import publish_shard_block
        block = publish_shard_block(np.ones((2, 3)))
        if block is None:
            pytest.skip("shared memory unavailable on this platform")
        block.take()  # consumes and unlinks the segment
        with pytest.raises(TransportError):
            block.take()

    def test_sharded_run_leaves_no_tracker_noise_or_segments(self):
        # a whole sharded sweep in a fresh interpreter, every shard
        # result forced through a shared-memory block: the resource
        # trackers of the parent and of the workers must stay silent
        # (no KeyError on unregister, no "leaked" warning at exit) and
        # every published segment must be gone afterwards
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):
            pytest.skip("no /dev/shm on this platform")
        script = textwrap.dedent("""
            from repro.experiments import RunConfig, engine
            from repro.experiments import fused
            from repro.experiments.sweeps import sweep_load
            from repro.workloads import figure3_graph

            fused.SHARD_SHM_MIN_BYTES = 0
            taken = []
            take = engine.ShardBlock.take

            def counting_take(block):
                taken.append(block.name)
                return take(block)

            engine.ShardBlock.take = counting_take
            cfg = RunConfig(schemes=("NPM", "GSS"), n_runs=40, seed=3,
                            shards=2)
            with engine.ExecutionContext(n_jobs=2) as ctx:
                sweep_load(figure3_graph(), cfg, (0.5, 0.7), context=ctx)
            print("blocks taken:", len(taken))
        """)
        before = {f for f in os.listdir(shm_dir) if f.startswith("psm_")}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "blocks taken: 2" in proc.stdout, proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        after = {f for f in os.listdir(shm_dir) if f.startswith("psm_")}
        assert after <= before, sorted(after - before)
