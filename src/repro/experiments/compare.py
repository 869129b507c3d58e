"""Statistical comparison of schemes on paired runs.

The evaluation design is *paired*: every scheme sees the same
realizations, so scheme differences should be tested with paired
statistics, which are far more sensitive than comparing the two means.
This module provides:

* :func:`paired_comparison` — per-run differences, their CI, and a
  paired t-test p-value (:func:`t_two_sided_p`, numpy and ``math``
  only);
* :func:`compare_all` — the full scheme×scheme matrix for one
  evaluation;
* :func:`render_comparison` — a readable win/loss matrix.

Used to back statements like "GSS is better than SS1 at load 0.5"
with actual significance rather than eyeballed curve gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from .runner import EvaluationResult

#: two-sided significance threshold used by the renderers
ALPHA = 0.05


#: Stirling-series coefficients of ``ln Γ(z) − [(z − ½) ln z − z +
#: ½ ln 2π]`` in powers ``z**-1, z**-3, ...``
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360)


def _stirling_tail(z: float) -> float:
    zi = 1.0 / z
    zi2 = zi * zi
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * zi2 + c
    return acc * zi


def _log_gamma_ratio_half(a: float) -> float:
    """``ln Γ(a + ½) − ln Γ(a)``, without the cancellation of two large
    ``lgamma`` values: for large ``a`` the Stirling series of both
    terms is subtracted analytically, leaving ``a·log1p(1/2a) − ½``."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + _stirling_tail(a + 0.5) - _stirling_tail(a))


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularized incomplete beta
    function, evaluated by the modified Lentz method."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError(  # pragma: no cover - converges in O(√a) steps
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})")


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value of Student's t statistic ``t`` with ``df``
    degrees of freedom: ``P(|T| ≥ |t|) = I_x(df/2, 1/2)`` at
    ``x = df / (df + t²)``, the regularized incomplete beta function.

    ``ln(x^a (1−x)^b / B(a, b))`` is formed from ``log1p`` and
    :func:`_log_gamma_ratio_half`, so it keeps full precision at large
    ``df``; the continued fraction runs on whichever of ``I_x(a, b)``
    and ``1 − I_{1−x}(b, a)`` converges fast.
    """
    if t == 0.0:
        return 1.0
    t2 = t * t
    a, b = 0.5 * df, 0.5
    x = df / (df + t2)
    y = t2 / (df + t2)  # 1 - x, without the cancellation
    log_front = (-a * math.log1p(t2 / df) + b * math.log(y)
                 + _log_gamma_ratio_half(a) - 0.5 * math.log(math.pi))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        p = front * _beta_cf(a, b, x) / a
    else:
        p = 1.0 - front * _beta_cf(b, a, y) / b
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing scheme ``a`` against scheme ``b``.

    ``mean_diff`` is ``mean(a − b)`` on normalized energies: negative
    means ``a`` consumes less energy.
    """

    a: str
    b: str
    mean_diff: float
    ci95: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        return self.p_value < ALPHA

    @property
    def winner(self) -> Optional[str]:
        """The significantly better scheme, or None for a tie."""
        if not self.significant:
            return None
        return self.a if self.mean_diff < 0 else self.b


def paired_comparison(name_a: str, sample_a: np.ndarray,
                      name_b: str, sample_b: np.ndarray
                      ) -> PairedComparison:
    """Paired t-test of two schemes' per-run normalized energies."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError(
            f"paired samples must be equal-length vectors, got "
            f"{a.shape} vs {b.shape}")
    if a.size < 2:
        raise ConfigError("need at least two paired runs")
    diff = a - b
    mean = float(diff.mean())
    sem = float(diff.std(ddof=1) / np.sqrt(diff.size))
    if sem <= 1e-12 * max(abs(mean), 1.0):
        # (near-)constant difference: the t-test degenerates
        # (catastrophic cancellation in the variance); decide directly
        p = 1.0 if mean == 0.0 else 0.0
    else:
        p = t_two_sided_p(mean / sem, diff.size - 1)
    ci95 = 1.959963984540054 * sem
    return PairedComparison(a=name_a, b=name_b, mean_diff=mean,
                            ci95=ci95, p_value=p, n=int(a.size))


def compare_all(result: EvaluationResult,
                schemes: Optional[Sequence[str]] = None
                ) -> List[PairedComparison]:
    """All pairwise comparisons within one evaluation."""
    names = list(schemes) if schemes else list(result.normalized)
    missing = [n for n in names if n not in result.normalized]
    if missing:
        raise ConfigError(f"schemes not in result: {missing}")
    out: List[PairedComparison] = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            out.append(paired_comparison(
                a, result.normalized[a], b, result.normalized[b]))
    return out


def render_comparison(comparisons: Sequence[PairedComparison]) -> str:
    """Render pairwise results as aligned rows."""
    lines = [f"{'pair':>14} {'Δ mean':>9} {'±95%':>8} {'p':>10} "
             f"{'verdict':>12}"]
    for c in comparisons:
        verdict = c.winner or "tie"
        lines.append(
            f"{c.a + ' vs ' + c.b:>14} {c.mean_diff:>+9.4f} "
            f"{c.ci95:>8.4f} {c.p_value:>10.2e} {verdict:>12}")
    return "\n".join(lines) + "\n"


def win_matrix(comparisons: Sequence[PairedComparison]) -> Dict[str, int]:
    """Significant wins per scheme (for quick ranking)."""
    wins: Dict[str, int] = {}
    for c in comparisons:
        wins.setdefault(c.a, 0)
        wins.setdefault(c.b, 0)
        if c.winner:
            wins[c.winner] += 1
    return wins
