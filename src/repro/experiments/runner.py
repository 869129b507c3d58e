"""Monte-Carlo evaluation of scheduling schemes on one application.

The unit of work is :func:`evaluate_application`: build the offline
plans once, then simulate ``n_runs`` paired realizations under every
requested scheme, returning per-run *normalized* (to NPM on the same
realization) energies plus bookkeeping counters.  Sweeps
(:mod:`repro.experiments.sweeps`) call it per x-value, or fuse their
points into one array program (:mod:`repro.experiments.fused`), and
may fan points out over a process pool
(:mod:`repro.experiments.parallel`).

Determinism: one ``seed`` fixes the whole evaluation — realizations are
drawn from ``numpy.random.default_rng(seed)`` in run order, and the
schemes see identical realizations.  One evaluation always runs in the
calling process: the compiled engine takes tens of microseconds per
run, so splitting the runs of one point over worker processes costs
more than it buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import SpeedPolicy
from ..core.registry import PAPER_SCHEMES, get_policy
from ..errors import ConfigError, InfeasibleError
from ..graph.andor import Application
from ..offline.plan import OfflinePlan, build_plan
from ..power.model import POWER_MODEL_NAMES, PowerModel, make_power_model
from ..power.overhead import NO_OVERHEAD, PAPER_OVERHEAD, OverheadModel
# evaluation goes through fused.evaluate_batch; perfbench/tracer.py
# still wraps these names in every evaluation module
from ..sim.compiled import (  # noqa: F401
    compile_plan,
    run_dynamic_batch,
    run_fixed_batch,
)
from ..sim.engine import simulate
from ..sim.realization import Realization, sample_realization_batch
from .stats import mean


#: engines selectable via :attr:`RunConfig.engine`
ENGINES = ("compiled", "dict")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one Monte-Carlo evaluation."""

    schemes: Tuple[str, ...] = PAPER_SCHEMES
    power_model: str = "transmeta"
    n_processors: int = 2
    n_runs: int = 1000
    seed: int = 2002  # the paper's year; any fixed value works
    overhead: OverheadModel = PAPER_OVERHEAD
    sigma_fraction: float = 1.0 / 3.0
    idle_fraction: float = 0.05
    heuristic: str = "ltf"  # list-scheduling priority (paper: LTF)
    #: simulation kernel: "compiled" (integer-indexed section program,
    #: the default) or "dict" (the reference string-keyed engine);
    #: results are bit-identical either way
    engine: str = "compiled"
    #: pool rebuilds per pooled map call after a worker dies, before
    #: the remaining points degrade to serial execution in the parent
    max_retries: int = 2
    #: whether an exhausted rebuild budget degrades to serial execution
    #: in the parent (with a warning) instead of raising ParallelError
    degrade: bool = True

    def __post_init__(self) -> None:
        # model names are case-insensitive; one spelling keeps one
        # evaluation-cache key per model
        model = str(self.power_model).lower()
        if model not in POWER_MODEL_NAMES:
            raise ConfigError(
                f"power_model must be one of {POWER_MODEL_NAMES}, "
                f"got {self.power_model!r}")
        object.__setattr__(self, "power_model", model)
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        if self.n_processors < 1:
            raise ConfigError("n_processors must be >= 1")
        if not self.schemes:
            raise ConfigError("need at least one scheme")
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if model == "continuous" and self.overhead.comp_cycles > 0:
            # the continuous model's minimum speed is 0, and the offline
            # reserve charges a speed computation at the minimum speed
            raise ConfigError(
                f"power_model='continuous' needs an overhead with "
                f"comp_cycles=0 (its minimum speed is 0, where computing "
                f"a speed never ends), got overhead with comp_cycles="
                f"{self.overhead.comp_cycles}")

    def retry_policy(self):
        """The :class:`~repro.experiments.engine.RetryPolicy` this
        config asks dispatchers to apply (execution knob — never part
        of the evaluation cache key)."""
        from .engine import RetryPolicy
        return RetryPolicy(max_retries=self.max_retries,
                           degrade=self.degrade)

    def with_(self, **kwargs) -> "RunConfig":
        """A copy with ``kwargs`` replacing fields; unknown names raise
        :class:`~repro.errors.ConfigError`."""
        unknown = sorted(set(kwargs) - {f.name for f in fields(self)})
        if unknown:
            raise ConfigError(
                f"RunConfig has no field(s) {', '.join(unknown)}")
        return replace(self, **kwargs)

    def make_power(self) -> PowerModel:
        return make_power_model(self.power_model,
                                idle_fraction=self.idle_fraction)


@dataclass
class EvaluationResult:
    """Raw per-run outputs of one evaluation (one application, one config)."""

    app_name: str
    config: RunConfig
    #: scheme -> per-run energy normalized to NPM on the same realization
    normalized: Dict[str, np.ndarray] = field(default_factory=dict)
    #: scheme -> per-run absolute energy
    absolute: Dict[str, np.ndarray] = field(default_factory=dict)
    #: scheme -> per-run number of voltage/speed switches
    speed_changes: Dict[str, np.ndarray] = field(default_factory=dict)
    #: per-run NPM energy (the denominator)
    npm_energy: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: per-run executed path, an index into ``path_table``; schemes
    #: share the realization, so one path per run describes every
    #: scheme's run
    path_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    #: the distinct executed path keys (e.g. ``"0>2>5"``) in first-seen
    #: order
    path_table: List[str] = field(default_factory=list)

    @property
    def path_keys(self) -> List[str]:
        """Per-run executed path key, derived from the ids on request."""
        return np.array(self.path_table, dtype=object)[self.path_ids].tolist()

    def mean_normalized(self) -> Dict[str, float]:
        return {k: mean(v) for k, v in self.normalized.items()}

    def mean_speed_changes(self) -> Dict[str, float]:
        return {k: mean(v) for k, v in self.speed_changes.items()}

    def _first_seen_paths(self) -> Tuple[np.ndarray, List[str]]:
        if self.path_ids.size == 0:
            raise ConfigError("path keys were not recorded for this run")
        return first_seen_paths(self.path_ids, self.path_table)

    def conditional_normalized(self, scheme: str) -> Dict[str, np.ndarray]:
        """Per-run normalized energies grouped by executed path."""
        if scheme not in self.normalized:
            raise ConfigError(f"scheme {scheme!r} not in result")
        values = self.normalized[scheme]
        if self.path_ids.size != values.size:
            raise ConfigError("path keys were not recorded for this run")
        if values.size == 0:
            return {}
        ids, table = self._first_seen_paths()
        # a stable sort keeps each path's runs in run order
        order = np.argsort(ids, kind="stable")
        parts = np.split(values[order], np.cumsum(np.bincount(ids))[:-1])
        return dict(zip(table, parts))

    def path_frequencies(self) -> Dict[str, float]:
        """Observed fraction of runs per executed path.

        Occurrences are counted as integers and divided once, so each
        frequency is exactly ``count/n`` (no float accumulation drift)
        and the values sum to 1.0 up to at most one rounding error per
        path.
        """
        ids, table = self._first_seen_paths()
        n = ids.size
        return {key: int(count) / n
                for key, count in zip(table, np.bincount(ids))}


def index_paths(keys: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """Per-run path keys as ``(int32 ids, table)``, table in first-seen
    order."""
    table: Dict[str, int] = {}
    ids = np.fromiter((table.setdefault(k, len(table)) for k in keys),
                      dtype=np.int32, count=len(keys))
    return ids, list(table)


def first_seen_paths(ids: np.ndarray, table: Sequence[str]
                     ) -> Tuple[np.ndarray, List[str]]:
    """``(ids, table)`` renumbered so the table holds each used key once,
    in first-seen order: the pair :func:`index_paths` makes of the same
    per-run keys."""
    slot: Dict[str, int] = {}
    merged = np.array([slot.setdefault(k, len(slot)) for k in table],
                      dtype=np.intp)[ids]
    used, first = np.unique(merged, return_index=True)
    order = used[np.argsort(first)]
    rank = np.empty(len(slot), dtype=np.int32)
    rank[order] = np.arange(order.size, dtype=np.int32)
    keys = list(slot)
    return rank[merged], [keys[k] for k in order]


def _path_key(structure, sim_result) -> str:
    """The executed path of a simulated run, as ExecutionPath.key()."""
    sids = [structure.root_id]
    sid = structure.root_id
    while True:
        exit_or = structure.section(sid).exit_or
        if exit_or is None:
            break
        branches = structure.branches(exit_or)
        if not branches:
            break
        if len(branches) == 1:
            sid = branches[0][0]
        else:
            sid = int(sim_result.path_choices[exit_or])
        sids.append(sid)
    return ">".join(str(s) for s in sids)


def build_plans(app: Application, config: RunConfig,
                power: Optional[PowerModel] = None
                ) -> Tuple[Optional[OfflinePlan], OfflinePlan]:
    """The (dynamic, static) offline plans an evaluation needs.

    The dynamic plan reserves per-task overhead room; the static plan is
    the plain canonical schedule used by NPM/SPM and the load metric.

    At loads so high that even the per-task overhead reserve does not
    fit (e.g. load = 1.0 exactly), a real scheduler cannot afford to
    visit power-management points at all: the dynamic plan is ``None``
    and the dynamic schemes degrade to running at ``S_max`` with DVS
    disabled (zero switches, zero overhead) — still meeting the
    deadline, still normalized against NPM.
    """
    power = power or config.make_power()
    reserve = config.overhead.per_task_reserve(power)
    plan_static = build_plan(app, config.n_processors, reserve=0.0,
                             heuristic=config.heuristic)
    try:
        plan_dyn: Optional[OfflinePlan] = build_plan(
            app, config.n_processors, reserve=reserve,
            structure=plan_static.structure,
            heuristic=config.heuristic)
    except InfeasibleError:
        plan_dyn = None
    return plan_dyn, plan_static


def _simulate_runs(plan_dyn: Optional[OfflinePlan],
                   plan_static: OfflinePlan,
                   scheme_names: Sequence[str],
                   power: PowerModel,
                   overhead: OverheadModel,
                   realizations: Sequence[Realization],
                   finish: bool = False):
    """Simulate a block of prebuilt realizations under every scheme.

    The reference dict-engine counterpart of
    :func:`~repro.experiments.fused.evaluate_batch`, with the same
    arguments and result: runs are simulated one at a time, strictly in
    the order of ``realizations``, and each scheme's finish times are
    kept only with ``finish``.
    """
    structure = plan_static.structure
    policies: Dict[str, SpeedPolicy] = {}
    for name in scheme_names:
        policy = get_policy(name)
        policies[policy.name] = policy

    n = len(realizations)
    npm_policy = get_policy("NPM")
    npm_energy = np.empty(n)
    absolute = {name: np.empty(n) for name in policies}
    finishes = {name: np.empty(n) if finish else None for name in policies}
    changes = {name: np.empty(n, dtype=float) for name in policies}
    path_keys: List[str] = []

    for i, rl in enumerate(realizations):
        npm_run = npm_policy.start_run(plan_static, power, NO_OVERHEAD,
                                       realization=rl)
        base = simulate(plan_static, npm_run, power, NO_OVERHEAD, rl)
        npm_energy[i] = base.total_energy
        path_keys.append(_path_key(structure, base))
        for name, policy in policies.items():
            if name == "NPM":
                res, n_changes = base, base.n_speed_changes
            elif policy.requires_reserve and plan_dyn is None:
                # DVS disabled at this load: the scheme runs like NPM
                res, n_changes = base, 0.0
            else:
                plan = plan_dyn if policy.requires_reserve else plan_static
                run = policy.start_run(plan, power, overhead,
                                       realization=rl)
                res = simulate(plan, run, power, overhead, rl)
                n_changes = res.n_speed_changes
            absolute[name][i] = res.total_energy
            changes[name][i] = n_changes
            if finish:
                finishes[name][i] = res.finish_time
    return npm_energy, absolute, finishes, changes, path_keys


def evaluate_application(app: Application,
                         config: RunConfig,
                         context=None) -> EvaluationResult:
    """Simulate ``config.n_runs`` paired runs of every scheme on ``app``.

    The realization batch is sampled once from the config's seed and
    handed whole to the compiled evaluator (or, with
    ``engine="dict"``, to the reference engine run by run).

    ``context`` is an optional
    :class:`~repro.experiments.engine.ExecutionContext`; its attached
    evaluation cache, if any, is consulted before computing and filled
    after.  The cache never changes results, only whether they are
    recomputed.
    """
    cache = context.cache if context is not None else None
    if cache is not None:
        from .evalcache import evaluation_key
        cache_key = evaluation_key(app, config)
        cached = cache.get(cache_key, app.name, config)
        if cached is not None:
            return cached

    power = config.make_power()
    plan_dyn, plan_static = build_plans(app, config, power)

    # canonical scheme labels, preserving request order (aliases resolved)
    scheme_names = tuple(get_policy(name).name for name in config.schemes)

    rng = np.random.default_rng(config.seed)
    realizations = sample_realization_batch(
        plan_static.structure, rng, config.n_runs,
        sigma_fraction=config.sigma_fraction)

    from .fused import evaluate_batch  # fused imports this module
    simulate_runs = (evaluate_batch if config.engine == "compiled"
                     else _simulate_runs)
    npm_energy, absolute, _finishes, changes, path_keys = simulate_runs(
        plan_dyn, plan_static, scheme_names, power, config.overhead,
        realizations)

    path_ids, path_table = index_paths(path_keys)
    result = EvaluationResult(app_name=app.name, config=config,
                              npm_energy=npm_energy, path_ids=path_ids,
                              path_table=path_table)
    for name in scheme_names:
        result.absolute[name] = absolute[name]
        result.normalized[name] = absolute[name] / npm_energy
        result.speed_changes[name] = changes[name]

    if cache is not None:
        cache.put(cache_key, result)
    return result
