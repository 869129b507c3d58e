"""Monte-Carlo evaluation of scheduling schemes on one application.

The unit of work is :func:`evaluate_application`: build the offline
plans once, then simulate ``n_runs`` paired realizations under every
requested scheme, returning per-run *normalized* (to NPM on the same
realization) energies plus bookkeeping counters.  Sweeps
(:mod:`repro.experiments.sweeps`) call it per x-value, optionally
fanning points out over a process pool (:mod:`repro.experiments.parallel`).

Determinism: one ``seed`` fixes the whole evaluation — realizations are
drawn from ``numpy.random.default_rng(seed)`` in run order, and the
schemes see identical realizations.

Run-level parallelism (``n_jobs``) is **opt-in** since the sweep
compiler (:mod:`repro.experiments.fused`) landed: compiled runs cost
tens of microseconds, so pool-chunking the runs inside one point is a
measured net loss, and an ``n_jobs > 1`` request is demoted to
sequential execution unless ``RunConfig.run_level_pool`` is set.  When
opted in, the full realization batch is sampled once in the parent
process (so the fixed-seed random streams are untouched), split into
contiguous chunks, and farmed to the worker pool of an
:class:`~repro.experiments.engine.ExecutionContext` — a caller-supplied
persistent one (shared across a whole sweep), or an ephemeral
per-evaluation context when none is given.  Chunks travel as zero-copy
shared-memory row ranges where available (pickled slices otherwise),
and per-chunk arrays are merged back at their run offsets, so
``n_jobs=1`` and ``n_jobs=N`` produce bit-identical
:class:`EvaluationResult`\\ s for every transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import SpeedPolicy
from ..core.registry import PAPER_SCHEMES, get_policy
from ..errors import ConfigError, InfeasibleError
from ..graph.andor import Application
from ..offline.plan import OfflinePlan, build_plan
from ..power.model import PowerModel, make_power_model
from ..power.overhead import NO_OVERHEAD, PAPER_OVERHEAD, OverheadModel
from ..sim.compiled import (
    CompiledKernel,
    compile_plan,
    run_dynamic_batch,
    run_fixed_batch,
    supports_dynamic_batch,
)
from ..sim.engine import simulate
from ..sim.realization import (
    Realization,
    RealizationBatch,
    batch_in_chunks,
    sample_realization_batch,
)


#: engines selectable via :attr:`RunConfig.engine`
ENGINES = ("compiled", "dict")

#: default :attr:`RunConfig.parallel_min_runs`: with the compiled kernel
#: a run costs tens of microseconds while spawning a worker pool costs
#: tens of milliseconds per process, so batches below roughly this size
#: finish faster sequentially (measured on the BENCH_engine.json
#: operating point; see benchmarks/engine_speedup.py)
DEFAULT_PARALLEL_MIN_RUNS = 2000


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
    #: worker processes for the runs *inside* one evaluation
    #: (1 = sequential, 0 = all cores; clamped to the number of chunks).
    #: Ignored unless ``run_level_pool`` is set — run-level chunking is
    #: a demoted, opt-in path since the sweep compiler landed
    n_jobs: int = 1
    #: Monte-Carlo runs per worker task (0 = auto: ~4 chunks per worker)
    runs_per_chunk: int = 0
    #: simulation kernel: "compiled" (integer-indexed section program,
    #: the default) or "dict" (the reference string-keyed engine);
    #: results are bit-identical either way
    engine: str = "compiled"
    #: below this many runs a multi-worker request falls back to
    #: sequential execution — pool *startup* would cost more than it
    #: buys (0 disables the fallback; see docs/usage.md for the
    #: calibration).  A persistent context whose pool is already live
    #: skips this threshold: startup is paid, so small batches use it
    parallel_min_runs: int = DEFAULT_PARALLEL_MIN_RUNS
    #: re-dispatches per chunk/point after a retryable failure (worker
    #: crash, hung chunk, transport failure) before degrading that item
    #: to serial execution in the parent
    max_retries: int = 2
    #: seconds one dispatched chunk/point may run per attempt before it
    #: is considered hung and re-dispatched (0 = no timeout)
    chunk_timeout: float = 0.0
    #: whether exhausted retry budgets degrade to serial execution in
    #: the parent (with a warning) instead of raising ParallelError
    degrade: bool = True
    #: opt-in for run-level pool chunking.  With the compiled kernels a
    #: run costs tens of microseconds, so chunking runs over a process
    #: pool is a net *loss* (the BENCH_engine.json ``speedup_large``
    #: regression measured it ~9× slower); since the sweep compiler
    #: landed, whole sweeps fuse into one array program instead and the
    #: pool is reserved for the point level.  When ``False`` (the
    #: default) an ``n_jobs > 1`` request for the runs inside one point
    #: is demoted to sequential execution; set ``True`` to re-enable
    #: the legacy chunked path (results are bit-identical either way).
    #: Execution knob — never part of the evaluation cache key.
    run_level_pool: bool = False
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
        if self.n_jobs < 0:
            raise ConfigError(
                f"n_jobs must be >= 0 (0 = all cores), got {self.n_jobs}")
        if self.runs_per_chunk < 0:
            raise ConfigError(
                f"runs_per_chunk must be >= 0 (0 = auto), "
                f"got {self.runs_per_chunk}")
        if self.runs_per_chunk > self.n_runs:
            raise ConfigError(
                f"runs_per_chunk ({self.runs_per_chunk}) exceeds n_runs "
                f"({self.n_runs}); use 0 to size chunks automatically")
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.parallel_min_runs < 0:
            raise ConfigError(
                f"parallel_min_runs must be >= 0 (0 = never fall back), "
                f"got {self.parallel_min_runs}")
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

    The shared core of the sequential path and the per-chunk worker
    task: runs are simulated strictly in the order of ``realizations``
    and each run's computation is independent of the block's
    boundaries, which is what makes chunked execution bit-identical to
    sequential execution.
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

    Bit-identical outputs, different execution strategy: the realization
    batch stays in the matrix form it was sampled as, NPM/SPM (and any
    other batch-constant fixed speed) go through the vectorized
    fixed-speed path, the protocol-declared dynamic schemes (GSS, SS1,
    SS2, AS, PS on a discrete power model) go through the vectorized
    dynamic path, and anything else runs the scalar compiled kernel per
    run — no per-run dict materialization anywhere except for schemes
    that declare ``needs_realization`` (the oracle).
    """

    policies: Dict[str, SpeedPolicy] = {}
    for name in scheme_names:
        policy = get_policy(name)
        policies[policy.name] = policy

    n = len(batch)
    prog_static = compile_plan(plan_static)
    prog_dyn = compile_plan(plan_dyn) if plan_dyn is not None else None
    matrix = prog_static.realization_matrix(batch)
    groups, path_keys = prog_static.executed_paths(batch.choices, n)

    base = run_fixed_batch(prog_static, power, NO_OVERHEAD, matrix,
                           groups, path_keys, power.s_max, "NPM")
    npm_energy = base.total_energy
    absolute: Dict[str, np.ndarray] = {}
    changes: Dict[str, np.ndarray] = {}
    rows = None
    choice_rows = None
    for name, policy in policies.items():
        if name == "NPM":
            absolute[name] = npm_energy.copy()
            changes[name] = np.full(n, float(base.n_speed_changes))
            continue
        if policy.requires_reserve and plan_dyn is None:
            # DVS disabled at this load: the scheme runs like NPM
            absolute[name] = npm_energy.copy()
            changes[name] = np.zeros(n)
            continue
        plan = plan_dyn if policy.requires_reserve else plan_static
        prog = prog_dyn if policy.requires_reserve else prog_static
        speed = policy.batch_fixed_speed(plan, power, overhead)
        if speed is not None:
            res = run_fixed_batch(prog, power, overhead, matrix, groups,
                                  path_keys, speed, name)
            absolute[name] = res.total_energy
            changes[name] = np.full(n, float(res.n_speed_changes))
            continue
        needs_rl = policy.needs_realization
        probe = None
        if not needs_rl:
            probe = policy.start_run(plan, power, overhead)
            if supports_dynamic_batch(probe, power):
                res = run_dynamic_batch(prog, power, overhead, matrix,
                                        groups, path_keys, probe, name)
                absolute[name] = res.total_energy
                changes[name] = res.n_speed_changes.astype(float)
                continue
        if rows is None:  # lazily, only if a per-run scheme is present
            rows = matrix.tolist()
            choice_rows = batch.choice_rows()
        kernel = CompiledKernel(prog, power, overhead)
        abs_arr = np.empty(n)
        chg_arr = np.empty(n, dtype=float)
        shared_run = None
        if probe is not None and probe.stateless:
            # the run *declares* it mutates nothing during a simulation,
            # so one object serves every run.  (This used to be inferred
            # from "does not override on_or_fired", which silently
            # shared runs whose state is touched by any other hook.)
            shared_run = probe
        for i in range(n):
            if shared_run is not None:
                run = shared_run
            else:
                rl = batch.realization(i) if needs_rl else None
                run = policy.start_run(plan, power, overhead,
                                       realization=rl)
            res = kernel.run(run, rows[i], choice_rows[i])
            abs_arr[i] = res.total_energy
            chg_arr[i] = res.n_speed_changes
        absolute[name] = abs_arr
        changes[name] = chg_arr
    return npm_energy, absolute, changes, path_keys


def _auto_chunk_size(n_runs: int, jobs: int) -> int:
    """Default chunk size: ~4 chunks per worker for load balancing.

    Small enough that a straggler chunk costs ~1/(4·jobs) of the work,
    large enough that per-task pickling of realizations stays noise.
    Any chunk size yields identical results; this only shapes timing.
    """
    return max(1, -(-n_runs // (4 * jobs)))


def evaluate_application(app: Application,
                         config: RunConfig,
                         n_jobs: Optional[int] = None,
                         runs_per_chunk: Optional[int] = None,
                         context=None) -> EvaluationResult:
    """Simulate ``config.n_runs`` paired runs of every scheme on ``app``.

    ``n_jobs``/``runs_per_chunk`` override the corresponding
    :class:`RunConfig` fields when given (``None`` defers to the
    config); multi-worker requests take effect only when
    ``config.run_level_pool`` opts into the (demoted) run-level chunked
    path.  Results are bit-identical for every worker count: the
    realization batch is sampled once here, in the parent, from the
    config's seed, and chunk boundaries only partition prebuilt work.

    ``context`` is an optional
    :class:`~repro.experiments.engine.ExecutionContext`.  When given,
    run-level chunks execute on its persistent worker pool (instead of
    an ephemeral per-evaluation pool), its ``shared_memory`` flag picks
    the chunk transport, and its attached evaluation cache is consulted
    before computing and filled after.  None of this changes results —
    only where and how fast they are computed.
    """
    from .engine import (ExecutionContext, _eval_chunk_task, resolve_jobs,
                         share_batch)

    cache = context.cache if context is not None else None
    if cache is not None:
        from .evalcache import evaluation_key
        cache_key = evaluation_key(app, config)
        cached = cache.get(cache_key, app.name, config)
        if cached is not None:
            return cached

    power = config.make_power()
    plan_dyn, plan_static = build_plans(app, config, power)
    structure = plan_static.structure

    # canonical scheme labels, preserving request order (aliases resolved)
    scheme_names = tuple(get_policy(name).name for name in config.schemes)

    n = config.n_runs
    rng = np.random.default_rng(config.seed)
    realizations = sample_realization_batch(
        structure, rng, n, sigma_fraction=config.sigma_fraction)

    eff_jobs = config.n_jobs if n_jobs is None else n_jobs
    eff_chunk = (config.runs_per_chunk if runs_per_chunk is None
                 else runs_per_chunk)
    if eff_chunk < 0:
        raise ConfigError(
            f"runs_per_chunk must be >= 0 (0 = auto), got {eff_chunk}")
    jobs = resolve_jobs(eff_jobs, n_items=n)
    if jobs > 1 and not config.run_level_pool:
        # run-level chunking is opt-in since the sweep compiler landed:
        # at ~tens of µs per compiled run the chunk round-trip costs
        # more than it buys, so an un-opted n_jobs request runs
        # sequentially (results are bit-identical either way)
        jobs = 1
    if jobs > 1 and 0 < n < config.parallel_min_runs:
        # too little work to amortize pool *startup* — unless a warm
        # pool is already attached, in which case startup is paid and
        # the threshold would just idle it (results identical either way)
        if context is None or not context.has_live_pool():
            jobs = 1
    chunk_size = min(eff_chunk, n) if eff_chunk else _auto_chunk_size(n, jobs)
    chunks = list(batch_in_chunks(realizations, chunk_size))
    jobs = min(jobs, len(chunks))

    if jobs == 1:
        if config.engine == "compiled":
            npm_energy, absolute, changes, path_keys = \
                _simulate_runs_compiled(
                    plan_dyn, plan_static, scheme_names, power,
                    config.overhead, realizations)
        else:
            npm_energy, absolute, changes, path_keys = _simulate_runs(
                plan_dyn, plan_static, scheme_names, power,
                config.overhead, realizations)
    else:
        from .evalcache import plan_setup_key
        setup_key = plan_setup_key(app, config)
        owned = context is None
        ctx = ExecutionContext(n_jobs=jobs) if owned else context
        shared = share_batch(realizations) if ctx.shared_memory else None
        try:
            # the pickled chunks double as the per-chunk fallback when a
            # worker cannot attach the shared segment (TransportError)
            pickled = [(setup_key, app, config, start, block)
                       for start, block in chunks]
            if shared is not None:
                args = [(setup_key, app, config, start,
                         shared.chunk(start, start + len(block)))
                        for start, block in chunks]
                fallback = pickled
            else:
                args = pickled
                fallback = None
            labels = [f"runs[{start}:{start + len(block)}]"
                      for start, block in chunks]
            npm_energy = np.empty(n)
            absolute = {name: np.empty(n) for name in scheme_names}
            changes = {name: np.empty(n, dtype=float)
                       for name in scheme_names}
            path_keys = [""] * n
            for start, npm, c_abs, c_chg, keys in \
                    ctx.map(_eval_chunk_task, args, labels,
                            policy=config.retry_policy(),
                            fallback_args=fallback):
                stop = start + len(keys)
                npm_energy[start:stop] = npm
                path_keys[start:stop] = keys
                for name in scheme_names:
                    absolute[name][start:stop] = c_abs[name]
                    changes[name][start:stop] = c_chg[name]
        finally:
            if shared is not None:
                shared.close()
            if owned:
                ctx.close()

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
