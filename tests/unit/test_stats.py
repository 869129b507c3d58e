"""Unit tests for the experiment statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (EvaluationResult, RunConfig, paired_ratio,
                               summarize, summarize_all)
from repro.experiments import stats


class TestSummarize:
    def test_mean_and_std(self):
        p = summarize(0.5, "GSS", np.array([0.4, 0.6]))
        assert p.mean == pytest.approx(0.5)
        assert p.std == pytest.approx(np.std([0.4, 0.6], ddof=1))
        assert p.n_runs == 2
        assert p.scheme == "GSS" and p.x == 0.5

    def test_single_sample_has_zero_spread(self):
        p = summarize(1.0, "NPM", np.array([0.7]))
        assert p.std == 0.0 and p.ci95 == 0.0

    def test_ci_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = summarize(0, "x", rng.normal(1, 0.1, 10))
        large = summarize(0, "x", rng.normal(1, 0.1, 1000))
        assert large.ci95 < small.ci95

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize(0, "x", np.array([]))

    def test_as_row(self):
        p = summarize(0.5, "GSS", np.array([0.4, 0.6]))
        x, scheme, mean, std, n = p.as_row()
        assert (x, scheme, n) == (0.5, "GSS", 2)

    def test_summarize_all(self):
        pts = summarize_all(0.3, {"A": np.ones(3), "B": np.zeros(3) + 2})
        assert {p.scheme for p in pts} == {"A", "B"}
        assert all(p.x == 0.3 for p in pts)


class TestPairedRatio:
    def test_ratio(self):
        r = paired_ratio(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        assert np.allclose(r, 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            paired_ratio(np.ones(2), np.ones(3))

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            paired_ratio(np.ones(2), np.array([1.0, 0.0]))


class TestBitIdentity:
    """``summarize`` and the switch means call the ufunc reductions
    directly; every bit must match ``ndarray.mean``/``std(ddof=1)`` and
    the old ci95 formula, across the pairwise-summation block edges
    (8/9, 128/129), value scales and strided views."""

    @staticmethod
    def _sample(seed, n, scale, stride):
        rng = np.random.default_rng(seed)
        base = rng.lognormal(0.0, 1.0, n * stride) * scale - scale / 3
        return base[::stride]

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.sampled_from([1, 2, 8, 9, 128, 129, 1000, 5000]),
                       st.integers(1, 5000)),
           scale=st.sampled_from([1e-12, 1e-3, 1.0, 7.25, 1e6, 1e150]),
           stride=st.sampled_from([1, 2, 3]))
    @settings(deadline=None)
    def test_summarize_matches_numpy(self, seed, n, scale, stride):
        arr = self._sample(seed, n, scale, stride)
        p = summarize(0.5, "GSS", arr)
        std = float(arr.std(ddof=1)) if n > 1 else 0.0
        ci95 = float(stats._Z95 * std / np.sqrt(n)) if n > 1 else 0.0
        assert p.mean.hex() == float(arr.mean()).hex()
        assert p.std.hex() == std.hex()
        assert p.ci95.hex() == ci95.hex()
        assert p.n_runs == n
        assert type(p.mean) is type(p.std) is type(p.ci95) is float

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.sampled_from([1, 8, 9, 128, 129]),
                       st.integers(1, 5000)),
           stride=st.sampled_from([1, 2]))
    @settings(deadline=None)
    def test_switch_means_match_numpy(self, seed, n, stride):
        rng = np.random.default_rng(seed)
        floats = rng.integers(0, 40, n * stride).astype(float)[::stride]
        ints = rng.integers(0, 2**40, n * stride)[::stride]
        res = EvaluationResult(app_name="x", config=RunConfig(),
                               speed_changes={"GSS": floats, "AS": ints})
        means = res.mean_speed_changes()
        assert means["GSS"].hex() == float(floats.mean()).hex()
        assert means["AS"].hex() == float(ints.mean()).hex()
        assert stats.mean(ints).hex() == float(ints.mean()).hex()
