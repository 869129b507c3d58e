"""Statistics helpers for the Monte-Carlo experiments.

Every figure point in the paper is "an average of 1000 runs"; we keep the
per-run normalized energies as numpy arrays so mean, spread and 95 %
confidence intervals come out of vectorized reductions (no per-run
Python arithmetic in the aggregation path).

:func:`mean` and :func:`summarize` call the ufunc reductions directly,
in the steps and order ``ndarray.mean``/``ndarray.std(ddof=1)`` take
them (``np.add.reduce(a) / n``; then ``d = a - mean``, ``d *= d``,
``np.add.reduce(d) / (n - 1)`` and a square root), so every bit matches
NumPy's while skipping its ``_methods`` dispatch, which costs about as
much as a cache read per sample: a fully cached figure summarizes a
hundred samples per call.  Integer samples are summed in float64, as
``mean`` does.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from ..types import ExperimentPoint

#: two-sided 95 % normal quantile (n >= ~100 runs makes the CLT fine here)
_Z95 = 1.959963984540054


def mean(values: np.ndarray) -> float:
    """``float(values.mean())`` of a non-empty 1-D array, bit for bit."""
    dtype = np.float64 if values.dtype.kind in "biu" else None
    return float(np.add.reduce(values, dtype=dtype) / values.size)


def summarize(x: float, scheme: str,
              normalized: np.ndarray) -> ExperimentPoint:
    """Collapse one scheme's per-run normalized energies into a point."""
    arr = np.asarray(normalized, dtype=float)
    n = arr.size
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    mu = np.add.reduce(arr) / n
    std = ci95 = 0.0
    if n > 1:
        d = arr - mu
        d *= d
        std = math.sqrt(np.add.reduce(d) / (n - 1))
        ci95 = _Z95 * std / math.sqrt(n)
    return ExperimentPoint(x=x, scheme=scheme, mean=float(mu), std=std,
                           n_runs=n, ci95=ci95)


def summarize_all(x: float,
                  samples: Dict[str, np.ndarray]) -> Sequence[ExperimentPoint]:
    """Summarize every scheme's sample at one sweep position."""
    return [summarize(x, scheme, arr) for scheme, arr in samples.items()]


def paired_ratio(numerator: np.ndarray,
                 denominator: np.ndarray) -> np.ndarray:
    """Per-run energy ratio (paired normalization to NPM)."""
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if num.shape != den.shape:
        raise ValueError(
            f"paired samples differ in shape: {num.shape} vs {den.shape}")
    if np.any(den <= 0):
        raise ValueError("non-positive baseline energy in paired ratio")
    return num / den
