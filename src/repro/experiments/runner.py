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
from ..power.model import PowerModel, make_power_model
from ..power.overhead import NO_OVERHEAD, PAPER_OVERHEAD, OverheadModel
# evaluation goes through fused.evaluate_batch; perfbench/tracer.py
# still wraps these names in every evaluation module
from ..sim.compiled import (  # noqa: F401
    compile_plan,
    run_dynamic_batch,
    run_fixed_batch,
)
from ..sim.engine import simulate
from ..sim.realization import (
    Realization,
    RealizationBatch,
    sample_realization_batch,
)


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
    #: re-dispatches per pooled point/shard after a retryable failure
    #: (worker crash, hung item, injected fault) before degrading that
    #: item to serial execution in the parent
    max_retries: int = 2
    #: seconds one dispatched point/shard may run per attempt before it
    #: is considered hung and re-dispatched (0 = no timeout)
    chunk_timeout: float = 0.0
    #: whether exhausted retry budgets degrade to serial execution in
    #: the parent (with a warning) instead of raising ParallelError
    degrade: bool = True
    #: shard request for the fused sweep path: ``None`` (resolve the
    #: ``REPRO_SHARDS`` session default; unset everywhere = monolithic),
    #: ``0`` (auto: effective cores, raised to fit ``shard_mem_mb``) or
    #: ``N >= 1`` explicit shards of the fused run axis, executed on the
    #: local worker pool.  Sharded output is bit-identical to unsharded
    #: — execution knob, never part of the evaluation cache key.
    shards: Optional[int] = None
    #: peak-memory budget in MiB for one fused shard (0 = unbudgeted);
    #: only consulted by automatic shard selection (``shards=0``), which
    #: raises the shard count until the estimated per-shard footprint
    #: fits.  Execution knob — never part of the evaluation cache key.
    shard_mem_mb: int = 0

    def __post_init__(self) -> None:
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
        if self.chunk_timeout < 0:
            raise ConfigError(
                f"chunk_timeout must be >= 0 (0 = no timeout), "
                f"got {self.chunk_timeout}")
        if self.shards is not None and self.shards < 0:
            raise ConfigError(
                f"shards must be >= 0 (0 = auto), got {self.shards}")
        if self.shard_mem_mb < 0:
            raise ConfigError(
                f"shard_mem_mb must be >= 0 (0 = unbudgeted), "
                f"got {self.shard_mem_mb}")

    def retry_policy(self):
        """The :class:`~repro.experiments.engine.RetryPolicy` this
        config asks dispatchers to apply (execution knob — never part
        of the evaluation cache key)."""
        from .engine import RetryPolicy
        return RetryPolicy(max_retries=self.max_retries,
                           chunk_timeout=self.chunk_timeout,
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
    #: per-run executed path key (e.g. "0>2>5"); schemes share the
    #: realization, so one key per run describes every scheme's run
    path_keys: List[str] = field(default_factory=list)

    def mean_normalized(self) -> Dict[str, float]:
        return {k: float(v.mean()) for k, v in self.normalized.items()}

    def mean_speed_changes(self) -> Dict[str, float]:
        return {k: float(v.mean()) for k, v in self.speed_changes.items()}

    def conditional_normalized(self, scheme: str) -> Dict[str, np.ndarray]:
        """Per-run normalized energies grouped by executed path."""
        if scheme not in self.normalized:
            raise ConfigError(f"scheme {scheme!r} not in result")
        if len(self.path_keys) != self.normalized[scheme].size:
            raise ConfigError("path keys were not recorded for this run")
        groups: Dict[str, list] = {}
        for key, value in zip(self.path_keys, self.normalized[scheme]):
            groups.setdefault(key, []).append(float(value))
        return {k: np.asarray(v) for k, v in groups.items()}

    def path_frequencies(self) -> Dict[str, float]:
        """Observed fraction of runs per executed path.

        Occurrences are counted as integers and divided once, so each
        frequency is exactly ``count/n`` (no float accumulation drift)
        and the values sum to 1.0 up to at most one rounding error per
        path.
        """
        n = len(self.path_keys)
        if n == 0:
            raise ConfigError("path keys were not recorded for this run")
        counts: Dict[str, int] = {}
        for key in self.path_keys:
            counts[key] = counts.get(key, 0) + 1
        return {key: count / n for key, count in counts.items()}


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
                   realizations: Sequence[Realization]
                   ) -> Tuple[np.ndarray, Dict[str, np.ndarray],
                              Dict[str, np.ndarray], List[str]]:
    """Simulate a block of prebuilt realizations under every scheme.

    The reference dict-engine path: runs are simulated one at a time,
    strictly in the order of ``realizations``.
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
                absolute[name][i] = base.total_energy
                changes[name][i] = base.n_speed_changes
                continue
            if policy.requires_reserve and plan_dyn is None:
                # DVS disabled at this load: the scheme runs like NPM
                absolute[name][i] = base.total_energy
                changes[name][i] = 0.0
                continue
            plan = plan_dyn if policy.requires_reserve else plan_static
            run = policy.start_run(plan, power, overhead,
                                   realization=rl)
            res = simulate(plan, run, power, overhead, rl)
            absolute[name][i] = res.total_energy
            changes[name][i] = res.n_speed_changes
    return npm_energy, absolute, changes, path_keys


def _simulate_runs_compiled(plan_dyn: Optional[OfflinePlan],
                            plan_static: OfflinePlan,
                            scheme_names: Sequence[str],
                            power: PowerModel,
                            overhead: OverheadModel,
                            batch: RealizationBatch
                            ) -> Tuple[np.ndarray, Dict[str, np.ndarray],
                                       Dict[str, np.ndarray], List[str]]:
    """The compiled-engine counterpart of :func:`_simulate_runs`.

    Bit-identical outputs, different execution strategy: the batch
    stays in the matrix form it was sampled as and goes through the
    one evaluator of :mod:`repro.experiments.fused` as a one-point call
    (:func:`~repro.experiments.fused.evaluate_batch`) — NPM/SPM through
    the fixed-speed batch kernel, the protocol-declared dynamic schemes
    (GSS, SS1, SS2, AS, PS on a discrete power model) through one
    stacked dynamic batch call, and anything else through the scalar
    compiled kernel per run.
    """
    from .fused import evaluate_batch  # fused imports this module
    npm_energy, _npm_finish, absolute, _finish, changes, path_keys = \
        evaluate_batch(plan_dyn, plan_static, scheme_names, power,
                       overhead, batch)
    return npm_energy, absolute, changes, path_keys


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

    simulate_runs = (_simulate_runs_compiled if config.engine == "compiled"
                     else _simulate_runs)
    npm_energy, absolute, changes, path_keys = simulate_runs(
        plan_dyn, plan_static, scheme_names, power, config.overhead,
        realizations)

    result = EvaluationResult(app_name=app.name, config=config,
                              npm_energy=npm_energy,
                              path_keys=list(path_keys))
    for name in scheme_names:
        result.absolute[name] = absolute[name]
        result.normalized[name] = absolute[name] / npm_energy
        result.speed_changes[name] = changes[name]

    if cache is not None:
        cache.put(cache_key, result)
    return result
