"""Sampling of one run's random outcomes.

A *realization* fixes everything that is random in one execution of the
application: each task's actual execution time and each OR node's branch
choice.  Sampling it separately from the simulation lets every scheme be
evaluated on the *same* realization (paired comparison), which is how
normalized-to-NPM energies are meaningful run by run; the paper averages
1000 such runs per point.

Actual execution times follow the paper's Section 5: the actual time of
task *i* is drawn from a normal distribution around its average-case
execution time ``a_i``; we use ``σ = (c_i − a_i) / 3`` so that ±3σ spans
the distance to the worst case, and clip into ``(0, c_i]`` — hard
real-time tasks never exceed their WCET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..errors import SimulationError
from ..graph.sections import SectionStructure


@dataclass(frozen=True)
class Realization:
    """The resolved randomness of one application run."""

    #: actual execution time (at maximum speed) per computation task
    actuals: Dict[str, float]
    #: chosen successor section id per fired OR node (sampled for all,
    #: even those not reached — harmless and simpler)
    choices: Dict[str, int]

    def actual(self, name: str) -> float:
        try:
            return self.actuals[name]
        except KeyError:
            raise SimulationError(
                f"realization has no actual time for task {name!r}") from None


class RealizationBatch:
    """``n`` realizations kept in the matrix form they were sampled as.

    The vectorized sampler draws all actual times as one
    ``(n, n_tasks)`` float matrix and all branch choices as one integer
    block per OR node.  This class keeps that columnar layout — the
    compiled simulation kernel (:mod:`repro.sim.compiled`) consumes it
    directly, with no per-run dict materialization — while still
    behaving like a read-only sequence of :class:`Realization` objects
    for the dict engine and for existing callers: ``len(batch)``,
    ``batch[i]`` (materializes one :class:`Realization`), iteration and
    slicing (``batch[a:b]`` is a zero-copy view batch) all work.

    ``names`` lists the computation tasks in column order;
    ``choices[or_name]`` is an ``(n,)`` integer array of chosen
    successor section ids.
    """

    __slots__ = ("names", "actuals", "choices", "_col_of")

    def __init__(self, names: List[str], actuals: np.ndarray,
                 choices: Dict[str, np.ndarray]):
        if actuals.ndim != 2 or actuals.shape[1] != len(names):
            raise SimulationError(
                f"actuals matrix shape {actuals.shape} does not match "
                f"{len(names)} task columns")
        self.names = list(names)
        self.actuals = actuals
        self.choices = choices
        self._col_of: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return self.actuals.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RealizationBatch(
                self.names, self.actuals[index],
                {k: v[index] for k, v in self.choices.items()})
        return self.realization(int(index))

    def __iter__(self):
        for i in range(len(self)):
            yield self.realization(i)

    def realization(self, i: int) -> Realization:
        """Materialize run ``i`` as a dict-based :class:`Realization`."""
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"run index {i} out of range for {n} runs")
        if i < 0:
            i += n
        actuals = dict(zip(self.names, self.actuals[i].tolist()))
        choices = {name: int(picks[i])
                   for name, picks in self.choices.items()}
        return Realization(actuals=actuals, choices=choices)

    def column_of(self, name: str) -> int:
        """Column index of one task in the actuals matrix."""
        if self._col_of is None:
            self._col_of = {n: i for i, n in enumerate(self.names)}
        try:
            return self._col_of[name]
        except KeyError:
            raise SimulationError(
                f"realization batch has no actual times for task "
                f"{name!r}") from None

    def choice_rows(self) -> List[Dict[str, int]]:
        """Per-run ``{or_name: target_sid}`` dicts (one small dict per run)."""
        lists = {name: picks.tolist()
                 for name, picks in self.choices.items()}
        return [{name: picks[i] for name, picks in lists.items()}
                for i in range(len(self))]


def worst_case_realization(structure: SectionStructure,
                           plan=None) -> "Realization":
    """Every task at its WCET, every OR taking its longest remaining path.

    Useful for tests: under this realization every scheme must finish by
    the deadline with zero dynamic slack exploited.  When an
    :class:`~repro.offline.plan.OfflinePlan` is supplied, branch choices
    use its exact (processor-count-aware) remaining-time statistics;
    otherwise a serial (sum-of-WCETs) recursion is used, which agrees
    with the plan whenever branch ordering is not changed by parallelism.
    """
    graph = structure.graph
    actuals = {n.name: n.wcet for n in graph.computation_nodes()}

    if plan is not None:
        def remaining(target: int, or_name: str) -> float:
            return plan.branch_stats[or_name][target].worst
    else:
        memo: Dict[int, float] = {}

        def serial_remaining(sid: int) -> float:
            if sid in memo:
                return memo[sid]
            total = sum(graph.node(n).wcet
                        for n in structure.section(sid).nodes)
            exit_or = structure.section(sid).exit_or
            down = 0.0
            if exit_or is not None:
                down = max((serial_remaining(t)
                            for t, _p in structure.branches(exit_or)),
                           default=0.0)
            memo[sid] = total + down
            return memo[sid]

        def remaining(target: int, or_name: str) -> float:
            del or_name
            return serial_remaining(target)

    choices: Dict[str, int] = {}
    for node in graph.or_nodes():
        branches = structure.branches(node.name)
        if not branches:
            continue
        choices[node.name] = max(
            branches, key=lambda b: remaining(b[0], node.name))[0]
    return Realization(actuals=actuals, choices=choices)


def sample_realization(structure: SectionStructure,
                       rng: np.random.Generator,
                       sigma_fraction: float = 1.0 / 3.0) -> Realization:
    """Draw one realization (Section 5 distributional assumptions).

    ``sigma_fraction`` scales the standard deviation relative to
    ``c_i − a_i`` (default 1/3).
    """
    graph = structure.graph
    comp = graph.computation_nodes()
    if comp:
        wcet = np.array([n.wcet for n in comp])
        acet = np.array([n.acet for n in comp])
        # clamp like the batch sampler: a task profiled with acet == wcet
        # has zero spread, not a negative one (rng.normal rejects σ < 0)
        sigma = np.maximum((wcet - acet) * sigma_fraction, 0.0)
        raw = rng.normal(acet, sigma)
        lo = np.minimum(acet * 0.01, wcet * 0.01)
        actual = np.clip(raw, lo, wcet)
        actuals = {n.name: float(a) for n, a in zip(comp, actual)}
    else:  # pragma: no cover - validated graphs always have comp nodes
        actuals = {}

    choices: Dict[str, int] = {}
    for node in graph.or_nodes():
        branches = structure.branches(node.name)
        if not branches:
            continue
        u = float(rng.random())
        acc = 0.0
        chosen = branches[-1][0]
        for target, p in branches:
            acc += p
            if u < acc:
                chosen = target
                break
        choices[node.name] = chosen
    return Realization(actuals=actuals, choices=choices)


def sample_realizations(structure: SectionStructure,
                        rng: np.random.Generator, n: int,
                        sigma_fraction: float = 1.0 / 3.0):
    """Yield ``n`` independent realizations from one generator."""
    for _ in range(n):
        yield sample_realization(structure, rng, sigma_fraction)


@obs.span("sim.realization.sample")
def sample_realization_batch(structure: SectionStructure,
                             rng: np.random.Generator, n: int,
                             sigma_fraction: float = 1.0 / 3.0
                             ) -> RealizationBatch:
    """Draw ``n`` realizations with vectorized sampling.

    Statistically identical to ``n`` calls of
    :func:`sample_realization` in distribution, but draws all actual
    times as one ``(n, tasks)`` matrix and all branch choices as one
    uniform block per OR node — the profiled fast path for Monte-Carlo
    evaluations.  (The random streams differ from the sequential
    sampler's, so fixed-seed results are reproducible per-sampler, not
    across samplers.)

    Returns a :class:`RealizationBatch`, which keeps the sampled matrix
    intact for the compiled kernel while still iterating as a sequence
    of :class:`Realization` objects for the dict engine.
    """
    if n < 1:
        raise SimulationError(f"batch size must be >= 1, got {n}")
    graph = structure.graph
    comp = graph.computation_nodes()
    names = [node.name for node in comp]
    wcet = np.array([node.wcet for node in comp])
    acet = np.array([node.acet for node in comp])
    sigma = (wcet - acet) * sigma_fraction
    raw = rng.normal(acet, np.maximum(sigma, 0.0), size=(n, len(comp)))
    lo = np.minimum(acet * 0.01, wcet * 0.01)
    actual = np.clip(raw, lo, wcet)

    choice_matrix: Dict[str, np.ndarray] = {}
    for node in graph.or_nodes():
        branches = structure.branches(node.name)
        if not branches:
            continue
        targets = np.array([t for t, _p in branches])
        cum = np.cumsum([p for _t, p in branches])
        u = rng.random(n)
        idx = np.minimum(np.searchsorted(cum, u, side="right"),
                         len(targets) - 1)
        choice_matrix[node.name] = targets[idx]

    return RealizationBatch(names, actual, choice_matrix)
