"""Online scenario mode: sporadic job arrivals with admission control.

The paper evaluates one AND/OR application per deadline window.  This
module opens the streaming axis the related sporadic-DAG work studies
(Dong & Liu; Nélis et al. / MORA): applications *arrive over time*
from a pluggable arrival process (:mod:`repro.sim.arrivals`), each
arrival passes an **admission test** built on the canonical-schedule
feasibility check, and admitted jobs execute through the compiled/tape
kernel path so every registered scheme is comparable online.

The platform model is the paper's: one application owns all ``m``
processors, so jobs are served FIFO, one at a time.  Every arrival
``j`` at instant ``a_j`` carries the same relative deadline
``D = T_worst / load``.

Admission rule (canonical, scheme-independent)
----------------------------------------------
The admission ledger keeps ``committed`` — the instant through which
the platform is booked, advanced by the canonical *average-case*
length ``T_avg`` per admitted job (the optimistic reservation the
paper's profile makes natural).  An arrival is admitted iff the
canonical *worst-case* schedule still fits its remaining budget::

    start_hat = max(a_j, committed)
    admit  <=>  T_worst <= (a_j + D) - start_hat

which is exactly the feasibility predicate of
:func:`~repro.offline.plan.build_plan` applied to the remaining
window — an admitted job's window can never make ``build_plan`` raise
:class:`~repro.errors.InfeasibleError`.  Rejected jobs consume
nothing.  Because reservations are average-case while realized
service is not, admitted jobs can still *start* late when the stream
clumps; a job that finishes past ``a_j + D`` is counted separately as
**admitted-then-late** (per scheme — the DVS schemes stretch their
plan toward ``D`` and congest earlier than NPM).

Execution (shared realizations, per-scheme clocks)
--------------------------------------------------
All admitted jobs share one graph and one relative deadline, so the
stream compiles like a single evaluation point: one realization batch
of ``n_admitted`` runs drawn from ``default_rng(seed)`` — *exactly*
the batch :func:`~repro.experiments.runner.evaluate_application` draws
for ``n_runs = n_admitted`` — evaluated by the same one-point call
(:func:`~repro.experiments.fused.evaluate_batch`, which also returns
per-run finish times), or by the dict engine for ``engine="dict"``.
Each scheme then replays the FIFO ledger with its own realized
durations: ``start_j = max(a_j, finish_{j-1})``.

The degenerate single-arrival stream (one job at t=0) is therefore
bit-identical to ``evaluate_application(app, config.with_(n_runs=1))``
— pinned by ``tests/property/test_online_invariants.py``.

Fault site: ``online-admit`` fires at each admission probe (keyed by
the arrival index); a ``raise`` is retried under the config's
:class:`~repro.experiments.engine.RetryPolicy` and counted in
``OnlineResult.admit_retries``, leaving the ledger bit-identical to
the fault-free stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import SpeedPolicy
from ..core.registry import get_policy
from ..errors import ConfigError, FaultInjected
from ..graph.andor import AndOrGraph
from ..power.model import PowerModel
from ..power.overhead import NO_OVERHEAD, OverheadModel
from ..offline.plan import OfflinePlan
from ..sim.arrivals import (
    ARRIVAL_KINDS,
    arrival_rng,
    load_arrival_trace,
    make_arrival_process,
)
# evaluation goes through fused.evaluate_batch; perfbench/tracer.py
# still wraps these names in every evaluation module
from ..sim.compiled import (  # noqa: F401
    compile_plan,
    run_dynamic_batch,
    run_fixed_batch,
)
from ..sim.engine import simulate
from ..sim.kernels import kernel_meta
from ..sim.realization import RealizationBatch, sample_realization_batch
from ..types import SeriesResult
from ..workloads.scaling import (
    application_with_load,
    average_case_length,
    worst_case_length,
)
from . import faults
from .engine import ExecutionContext
from .fused import evaluate_batch
from .parallel import map_custom
from .runner import RunConfig, build_plans
from .stats import summarize
from .sweeps import _cache_before, _cache_meta

#: default arrival-rate grid for ``sweep_arrival_rate`` / ``fig_online``
#: (mean arrivals per canonical worst-case length; the DVS schemes
#: congest near ``load``, NPM near 1.0, admission saturates above)
DEFAULT_RATES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

#: default per-job load for the online figure family: enough static
#: slack for DVS to matter, tight enough that bursts produce misses
ONLINE_LOAD = 0.7

#: relative feasibility tolerance — the same slack build_plan grants
_FEAS_TOL = 1e-12

#: relative+absolute deadline-miss tolerance — the same slack
#: :meth:`repro.types.SimResult.met_deadline` grants
_MISS_RTOL = 1e-9
_MISS_ATOL = 1e-9


@dataclass(frozen=True)
class OnlineConfig:
    """Shape of one online stream (time unit: the graph's ``T_worst``).

    ``rate`` is the mean number of arrivals per canonical worst-case
    length — a dimensionless congestion knob (``1.0`` ≈ one job per
    worst-case service time).  ``horizon`` is the stream length in the
    same unit; when ``target_arrivals`` is set the horizon is derived
    as ``target_arrivals / rate`` instead, so every point of a rate
    sweep sees the same expected job count.  ``load`` fixes each job's
    relative deadline ``D = T_worst / load``.  Trace times are in
    ``T_worst`` units too.
    """

    arrival: str = "poisson"
    rate: float = 0.5
    horizon: float = 50.0
    load: float = ONLINE_LOAD
    burstiness: float = 1.8
    burst_dwell: float = 5.0
    trace: Optional[Tuple[float, ...]] = None
    trace_path: Optional[str] = None
    target_arrivals: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigError(
                f"arrival must be one of {ARRIVAL_KINDS}, "
                f"got {self.arrival!r}")
        if self.rate < 0:
            raise ConfigError(f"rate must be >= 0, got {self.rate}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")
        if not (0 < self.load <= 1.0):
            raise ConfigError(f"load must be in (0, 1], got {self.load}")
        if self.target_arrivals is not None and self.target_arrivals < 1:
            raise ConfigError(
                f"target_arrivals must be >= 1, got {self.target_arrivals}")
        if self.arrival == "trace" and self.trace is None \
                and self.trace_path is None:
            raise ConfigError(
                "arrival 'trace' needs trace=... times or trace_path=...")
        if self.trace is not None:
            object.__setattr__(self, "trace",
                               tuple(float(t) for t in self.trace))

    def with_(self, **kwargs) -> "OnlineConfig":
        return replace(self, **kwargs)

    def resolved_horizon(self) -> float:
        """Horizon in ``T_worst`` units, after ``target_arrivals``."""
        if self.target_arrivals is not None and self.rate > 0:
            return self.target_arrivals / self.rate
        return self.horizon

    def arrival_times(self, t_worst: float, seed: int) -> np.ndarray:
        """Sample the absolute-time arrival instants of this stream."""
        trace = self.trace
        if self.arrival == "trace" and trace is None:
            trace = tuple(load_arrival_trace(self.trace_path))
        process = make_arrival_process(
            self.arrival, self.rate / t_worst,
            burstiness=self.burstiness,
            dwell=self.burst_dwell * t_worst,
            trace=None if trace is None
            else tuple(t * t_worst for t in trace))
        horizon_abs = self.resolved_horizon() * t_worst
        return process.sample(horizon_abs, arrival_rng(seed))


@dataclass
class StreamStats:
    """One scheme's realized stream: per-admitted-job arrays + totals."""

    scheme: str
    #: per-admitted-job absolute energy
    job_energy: np.ndarray
    #: per-admitted-job energy normalized to NPM on the same realization
    job_normalized: np.ndarray
    #: per-admitted-job absolute finish instant (FIFO ledger replay)
    job_finish: np.ndarray
    #: per-admitted-job admitted-then-late flag
    job_miss: np.ndarray
    #: per-admitted-job voltage/speed switch count
    job_changes: np.ndarray

    @property
    def n_missed(self) -> int:
        return int(self.job_miss.sum())

    @property
    def energy(self) -> float:
        return float(self.job_energy.sum())

    def miss_ratio(self) -> float:
        """Admitted-then-late jobs over admitted jobs (0 when empty)."""
        n = self.job_miss.size
        return (self.n_missed / n) if n else 0.0

    def mean_normalized(self) -> float:
        return float(self.job_normalized.mean()) \
            if self.job_normalized.size else 0.0


@dataclass
class OnlineResult:
    """One simulated stream: the ledger plus per-scheme realized stats."""

    app_name: str
    config: RunConfig
    online: OnlineConfig
    t_worst: float
    t_avg: float
    #: every job's relative deadline (absolute deadline = arrival + D)
    deadline: float
    #: absolute stream length (``online.resolved_horizon() * t_worst``)
    horizon: float
    #: every arrival instant, admitted or not
    arrivals: np.ndarray
    #: admission decision per arrival
    admitted: np.ndarray
    #: remaining window ``(a_j + D) - start_hat`` per arrival — what the
    #: feasibility check was asked to fit ``T_worst`` into
    windows: np.ndarray
    #: per-admitted-job NPM energy (the normalization denominator)
    npm_energy: np.ndarray
    #: per-admitted-job executed path key
    path_keys: List[str] = field(default_factory=list)
    per_scheme: Dict[str, StreamStats] = field(default_factory=dict)
    #: admission probes retried after an injected ``online-admit`` fault
    admit_retries: int = 0

    @property
    def n_arrivals(self) -> int:
        return int(self.arrivals.size)

    @property
    def n_admitted(self) -> int:
        return int(self.admitted.sum())

    @property
    def n_rejected(self) -> int:
        return self.n_arrivals - self.n_admitted


def _admit_stream(times: np.ndarray, t_worst: float, t_avg: float,
                  deadline: float, policy) -> Tuple[np.ndarray, np.ndarray,
                                                    int]:
    """The admission ledger: decisions, windows, fault-probe retries.

    Pure given its inputs — the ``online-admit`` fault probe can only
    delay a decision (``hang``) or force a retried attempt (``raise``),
    never change it, which is what the chaos tier pins.
    """
    n = times.size
    admitted = np.zeros(n, dtype=bool)
    windows = np.empty(n)
    committed = 0.0
    retries = 0
    for j in range(n):
        attempts = 0
        while True:
            try:
                if faults.fire("online-admit", key=j) == "raise":
                    raise FaultInjected(
                        f"injected admission fault at arrival {j}")
                break
            except FaultInjected:
                attempts += 1
                retries += 1
                if attempts > policy.max_retries:
                    if policy.degrade:
                        break  # the decision below is probe-free
                    raise
        a = float(times[j])
        start_hat = a if a > committed else committed
        window = (a + deadline) - start_hat
        windows[j] = window
        if t_worst <= window * (1.0 + _FEAS_TOL):
            admitted[j] = True
            committed = start_hat + t_avg
    return admitted, windows, retries


def _simulate_jobs(plan_dyn: Optional[OfflinePlan],
                   plan_static: OfflinePlan,
                   scheme_names: Sequence[str], power: PowerModel,
                   overhead: OverheadModel, batch: RealizationBatch,
                   engine: str
                   ) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray],
                              Dict[str, np.ndarray], Dict[str, np.ndarray],
                              List[str]]:
    """Per-job energies, durations and switch counts for every scheme.

    The offline evaluator itself: the compiled engine runs
    :func:`~repro.experiments.fused.evaluate_batch`, the evaluation
    ``runner._simulate_runs_compiled`` makes, and the dict engine its
    reference mirror — so energies and switch counts are bit-identical
    to :func:`~repro.experiments.runner.evaluate_application` on the
    same batch — and also returns each run's realized makespan, the
    service time the FIFO ledger advances by.
    """
    if engine == "dict":
        return _simulate_jobs_dict(plan_dyn, plan_static, scheme_names,
                                   power, overhead, batch)
    return evaluate_batch(plan_dyn, plan_static, scheme_names, power,
                          overhead, batch)


def _simulate_jobs_dict(plan_dyn: Optional[OfflinePlan],
                        plan_static: OfflinePlan,
                        scheme_names: Sequence[str], power: PowerModel,
                        overhead: OverheadModel, batch: RealizationBatch
                        ) -> Tuple[np.ndarray, np.ndarray,
                                   Dict[str, np.ndarray],
                                   Dict[str, np.ndarray],
                                   Dict[str, np.ndarray], List[str]]:
    """The reference dict-engine counterpart of :func:`_simulate_jobs`."""
    from .runner import _path_key
    structure = plan_static.structure
    policies: Dict[str, SpeedPolicy] = {}
    for name in scheme_names:
        policy = get_policy(name)
        policies[policy.name] = policy

    n = len(batch)
    npm_policy = get_policy("NPM")
    npm_energy = np.empty(n)
    npm_finish = np.empty(n)
    absolute = {name: np.empty(n) for name in policies}
    finish = {name: np.empty(n) for name in policies}
    changes = {name: np.empty(n, dtype=float) for name in policies}
    path_keys: List[str] = []
    for i, rl in enumerate(batch):
        npm_run = npm_policy.start_run(plan_static, power, NO_OVERHEAD,
                                       realization=rl)
        base = simulate(plan_static, npm_run, power, NO_OVERHEAD, rl)
        npm_energy[i] = base.total_energy
        npm_finish[i] = base.finish_time
        path_keys.append(_path_key(structure, base))
        for name, policy in policies.items():
            if name == "NPM":
                absolute[name][i] = base.total_energy
                finish[name][i] = base.finish_time
                changes[name][i] = base.n_speed_changes
                continue
            if policy.requires_reserve and plan_dyn is None:
                absolute[name][i] = base.total_energy
                finish[name][i] = base.finish_time
                changes[name][i] = 0.0
                continue
            plan = plan_dyn if policy.requires_reserve else plan_static
            run = policy.start_run(plan, power, overhead, realization=rl)
            res = simulate(plan, run, power, overhead, rl)
            absolute[name][i] = res.total_energy
            finish[name][i] = res.finish_time
            changes[name][i] = res.n_speed_changes
    return npm_energy, npm_finish, absolute, finish, changes, path_keys


def _replay_fifo(arrivals: np.ndarray, durations: np.ndarray,
                 deadline: float) -> Tuple[np.ndarray, np.ndarray]:
    """FIFO ledger replay: realized finish instants and late flags."""
    n = arrivals.size
    fin = np.empty(n)
    free = 0.0
    for i in range(n):
        start = arrivals[i] if arrivals[i] > free else free
        free = start + durations[i]
        fin[i] = free
    miss = fin > (arrivals + deadline) * (1.0 + _MISS_RTOL) + _MISS_ATOL
    return fin, miss


def simulate_online(graph: AndOrGraph, config: RunConfig,
                    online: OnlineConfig) -> OnlineResult:
    """Simulate one sporadic-arrival stream under every scheme.

    Deterministic in ``(graph, config, online)``: one ``config.seed``
    fixes the arrival instants (via the derived arrival stream) and
    the realizations (via ``default_rng(seed)``, the offline
    evaluator's stream) — repeated calls are bit-identical on every
    execution path.
    """
    m = config.n_processors
    t_worst = worst_case_length(graph, m)
    t_avg = average_case_length(graph, m)
    deadline = t_worst / online.load
    horizon_abs = online.resolved_horizon() * t_worst
    times = online.arrival_times(t_worst, config.seed)

    admitted, windows, retries = _admit_stream(
        times, t_worst, t_avg, deadline, config.retry_policy())
    scheme_names = tuple(get_policy(n).name for n in config.schemes)

    result = OnlineResult(app_name=graph.name, config=config, online=online,
                          t_worst=t_worst, t_avg=t_avg, deadline=deadline,
                          horizon=horizon_abs, arrivals=times,
                          admitted=admitted, windows=windows,
                          npm_energy=np.empty(0), admit_retries=retries)
    n_adm = int(admitted.sum())
    if n_adm == 0:
        empty = np.empty(0)
        for name in scheme_names:
            result.per_scheme[name] = StreamStats(
                scheme=name, job_energy=empty.copy(),
                job_normalized=empty.copy(), job_finish=empty.copy(),
                job_miss=np.empty(0, dtype=bool),
                job_changes=empty.copy())
        return result

    # the same application the offline evaluator would build for this
    # load, so plans — and hence energies — match it exactly
    app = application_with_load(graph, online.load, m)
    power = config.make_power()
    plan_dyn, plan_static = build_plans(app, config, power)
    rng = np.random.default_rng(config.seed)
    batch = sample_realization_batch(plan_static.structure, rng, n_adm,
                                     sigma_fraction=config.sigma_fraction)
    npm_energy, _npm_finish, absolute, finish, changes, path_keys = \
        _simulate_jobs(plan_dyn, plan_static, scheme_names, power,
                       config.overhead, batch, config.engine)

    result.npm_energy = npm_energy
    result.path_keys = path_keys
    a_adm = times[admitted]
    for name in scheme_names:
        fin, miss = _replay_fifo(a_adm, finish[name], deadline)
        result.per_scheme[name] = StreamStats(
            scheme=name, job_energy=absolute[name],
            job_normalized=absolute[name] / npm_energy,
            job_finish=fin, job_miss=miss, job_changes=changes[name])
    return result


def _rate_point(graph: AndOrGraph, config: RunConfig,
                online: OnlineConfig) -> OnlineResult:
    """One picklable sweep point (also the pool-worker task)."""
    return simulate_online(graph, config, online)


def sweep_arrival_rate(graph: AndOrGraph, config: RunConfig,
                       online: OnlineConfig,
                       rates: Sequence[float] = DEFAULT_RATES,
                       name: str = "online-sweep",
                       context: Optional[ExecutionContext] = None
                       ) -> SeriesResult:
    """Normalized energy (and miss ratio) vs arrival rate.

    Each rate point is an independent stream built from ``online``
    with that rate; points fan out through the
    :class:`~repro.experiments.engine.ExecutionContext` like any other
    sweep (``map_custom``), and are bit-identical for every fan-out.
    The figure rows are the per-job normalized energies summarized per
    scheme; the stream-level ledger — arrival/admit/reject/miss counts
    and the per-scheme deadline-miss ratio per rate — lands in
    ``series.meta["online"]`` (aligned ``[rate, value]`` pairs, like
    the ``speed_changes`` meta).
    """
    before = _cache_before(context)
    args = [(graph, config, online.with_(rate=float(r))) for r in rates]
    results: List[OnlineResult] = map_custom(_rate_point, args,
                                             context=context)

    online_meta: Dict[str, object] = {
        "arrival": online.arrival,
        "load": online.load,
        "horizon": online.resolved_horizon(),
        "target_arrivals": online.target_arrivals,
        "seed": config.seed,
        "arrivals": [], "admitted": [], "rejected": [],
        "missed": [], "miss_ratio": [],
        "admit_retries": 0,
    }
    series = SeriesResult(name=name, x_label="rate",
                          meta={"app": graph.name,
                                "power_model": config.power_model,
                                "n_processors": config.n_processors,
                                "kernel": kernel_meta()})
    series.meta["speed_changes"] = []
    for r, res in zip(rates, results):
        x = float(r)
        for scheme, st in res.per_scheme.items():
            if st.job_normalized.size:
                series.points.append(summarize(x, scheme,
                                               st.job_normalized))
        online_meta["arrivals"].append([x, res.n_arrivals])
        online_meta["admitted"].append([x, res.n_admitted])
        online_meta["rejected"].append([x, res.n_rejected])
        online_meta["missed"].append(
            [x, {s: st.n_missed for s, st in res.per_scheme.items()}])
        online_meta["miss_ratio"].append(
            [x, {s: st.miss_ratio() for s, st in res.per_scheme.items()}])
        online_meta["admit_retries"] += res.admit_retries
        series.meta["speed_changes"].append(
            [x, {s: (float(st.job_changes.mean())
                     if st.job_changes.size else 0.0)
                 for s, st in res.per_scheme.items()}])
    series.meta["online"] = online_meta
    _cache_meta(context, before, series.meta)
    return series


def render_online_report(result: OnlineResult) -> str:
    """Aligned per-scheme text report of one stream."""
    lines = [
        f"# online stream: {result.app_name}  "
        f"[arrival={result.online.arrival}, rate={result.online.rate:g}, "
        f"horizon={result.online.resolved_horizon():g}, "
        f"load={result.online.load:g}]",
        f"arrivals={result.n_arrivals}  admitted={result.n_admitted}  "
        f"rejected={result.n_rejected}  "
        f"T_worst={result.t_worst:.2f}  D={result.deadline:.2f}"
        + (f"  admit_retries={result.admit_retries}"
           if result.admit_retries else ""),
        f"{'scheme':>8} {'late':>6} {'miss%':>7} {'energy':>12} "
        f"{'E/E_NPM':>9} {'switches':>9}",
    ]
    for name, st in result.per_scheme.items():
        mean_chg = (float(st.job_changes.mean())
                    if st.job_changes.size else 0.0)
        lines.append(
            f"{name:>8} {st.n_missed:>6} {100 * st.miss_ratio():>6.1f}% "
            f"{st.energy:>12.2f} {st.mean_normalized():>9.4f} "
            f"{mean_chg:>9.1f}")
    return "\n".join(lines) + "\n"
