"""Sweep-scale execution engine: one pool per sweep, not per point.

PR 2/3 made a *single* evaluation point fast; the figure/suite layer
still paid full setup cost at every one of its dozens of points — a
fresh ``ProcessPoolExecutor`` (fork + import + initializer pickling)
per point for run-level parallelism, re-pickled realization chunks, and
full recomputation on every regeneration.  This module amortizes all
three, one level up the stack:

* :class:`ExecutionContext` — a **persistent, reusable process pool**
  created lazily once per sweep/figure/suite and shared by the
  point-level fan-out (:mod:`repro.experiments.parallel`) and the
  run-level chunking inside :func:`~repro.experiments.runner.
  evaluate_application`.  Workers are long-lived, so their per-process
  caches (the offline round-1 plan cache, the compiled section-program
  cache keyed by plan fingerprint) persist across sweep points: each
  program ships/compiles once per worker, not once per point.
* **Zero-copy realization transport** — the parent samples the
  ``(runs × tasks)`` realization matrix once and publishes it in a
  :mod:`multiprocessing.shared_memory` segment; workers receive
  ``(name, shape, dtype, row range)`` descriptors and map the matrix
  as a NumPy view instead of unpickling per-chunk array copies.  When
  shared memory is unavailable (or the matrix is empty) the transport
  degrades to plain pickled chunks — values are identical either way.
* An optional **content-addressed evaluation cache**
  (:mod:`repro.experiments.evalcache`) attached to the context, so
  ``repro fig`` / ``repro suite`` regeneration is incremental.

Everything here preserves the engine's core contract: results are
**bit-identical** to sequential execution for every pool size, chunk
size and transport (the realization batch is sampled once in the
parent; workers only partition prebuilt work).
"""

from __future__ import annotations

import os
import time
import warnings
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, FaultInjected, ParallelError, TransportError
from . import faults

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
    _SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - e.g. stripped-down interpreters
    _shared_memory = None
    _SHM_AVAILABLE = False


#: execution backends an :class:`ExecutionContext` can route sweep
#: points through: ``"local"`` (fused array program or the persistent
#: pool, in-process driver) or ``"dispatch"`` (the work-stealing
#: executor fleet in :mod:`repro.experiments.dispatch`)
BACKENDS = ("local", "dispatch")

#: session-default backend, seeded from ``REPRO_BACKEND`` (tests
#: monkeypatch the module attribute; read it via :func:`default_backend`
#: so patches are honored at call time)
DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND", "local")

#: session-default executor-count request for the dispatch backend,
#: seeded from ``REPRO_EXECUTORS`` (``None`` = fall back to the
#: sweep's ``n_jobs`` request)
DEFAULT_EXECUTORS: Optional[int] = (
    int(os.environ["REPRO_EXECUTORS"])
    if os.environ.get("REPRO_EXECUTORS") else None)


def default_backend() -> str:
    """The session-default backend (module attr, monkeypatch-friendly)."""
    return DEFAULT_BACKEND


def default_executors() -> Optional[int]:
    """The session-default executor request (module attr at call time)."""
    return DEFAULT_EXECUTORS


def resolve_backend(backend: Optional[str]) -> str:
    """Normalize a backend request: ``None`` → the session default."""
    resolved = backend if backend is not None else default_backend()
    if resolved not in BACKENDS:
        raise ConfigError(
            f"unknown backend {resolved!r}; one of {BACKENDS}")
    return resolved


def effective_cores() -> int:
    """CPU cores actually available to this process.

    Under a CPU affinity mask (taskset, cgroup-limited CI runners) the
    schedulable set is smaller than the machine's core count;
    ``os.cpu_count()`` reports the machine and would overstate it — and
    on runners where it degrades to 1 it *understates* a wider mask.
    Benchmarks record this so committed numbers name the parallelism
    that actually produced them.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity (macOS, Windows)
        return os.cpu_count() or 1


def resolve_jobs(n_jobs: Optional[int], n_items: Optional[int] = None) -> int:
    """Normalize an ``n_jobs`` request.

    ``None``/``0`` → all cores; negative → :class:`ConfigError`.  When
    ``n_items`` is given, the answer is additionally clamped to the
    amount of available work (never below 1), so a 32-core request for
    a 3-point sweep starts 3 workers, not 32 mostly-idle ones.
    """
    if n_jobs is None or n_jobs == 0:
        jobs = os.cpu_count() or 1
    elif n_jobs < 0:
        raise ConfigError(f"n_jobs must be positive, got {n_jobs}")
    else:
        jobs = n_jobs
    if n_items is not None:
        jobs = max(1, min(jobs, n_items))
    return jobs


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient executor answers partial failure.

    Retryable failures — a worker crash (``BrokenProcessPool``), a
    chunk that exceeds ``chunk_timeout``, a shared-memory attach
    failure, an injected fault — are re-dispatched up to
    ``max_retries`` times per work item with bounded exponential
    backoff (``backoff_base * 2**attempt``, capped at ``backoff_max``).
    A broken pool is rebuilt at most ``max_pool_rebuilds`` times per
    map call; past that — or past ``max_retries`` for a single item —
    execution degrades to computing the remaining work serially in the
    parent, with a warning (``degrade=True``), or raises
    :class:`~repro.errors.ParallelError` (``degrade=False``).

    Deterministic worker exceptions (a ``ConfigError``, a bug) are
    never retried: they would fail identically again, so they fail
    fast exactly as before.  None of this changes results — every
    recovery path re-executes prebuilt work whose outputs are
    bit-identical by the engine's core contract.
    """

    max_retries: int = 2
    chunk_timeout: float = 0.0  # seconds per attempt; 0 = no timeout
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    degrade: bool = True
    max_pool_rebuilds: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.chunk_timeout < 0:
            raise ConfigError("chunk_timeout must be >= 0 (0 = disabled)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("backoff must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ConfigError("max_pool_rebuilds must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before re-dispatching a work item's Nth retry."""
        return min(self.backoff_base * (2 ** max(attempt - 1, 0)),
                   self.backoff_max)


#: counters the resilient executor maintains per context — these are
#: what sweeps surface as ``series.meta["resilience"]``
RESILIENCE_COUNTERS = ("retries", "rebuilds", "degradations", "timeouts",
                       "shm_fallbacks")

#: counters the distributed dispatcher maintains per context — sweeps
#: surface their per-sweep delta (plus per-executor point counts) as
#: ``series.meta["dispatch"]`` when the dispatch backend did any work
DISPATCH_COUNTERS = ("dispatched", "completed", "stolen", "duplicates",
                     "worker_deaths", "respawns", "degraded_points")


# ---------------------------------------------------------------------------
# shared-memory realization transport
# ---------------------------------------------------------------------------

class ShmChunk:
    """Picklable descriptor of one run-range of a shared realization matrix.

    The parent ships ``(segment name, full matrix shape, dtype, row
    range)`` plus the small per-OR choice slices; the worker attaches
    the segment once (cached across chunks and evaluations) and builds
    a :class:`~repro.sim.realization.RealizationBatch` over a zero-copy
    NumPy view of the rows.
    """

    __slots__ = ("shm_name", "shape", "dtype", "start", "stop", "names",
                 "choices")

    def __init__(self, shm_name: str, shape: Tuple[int, int], dtype: str,
                 start: int, stop: int, names: List[str],
                 choices: Dict[str, np.ndarray]):
        self.shm_name = shm_name
        self.shape = shape
        self.dtype = dtype
        self.start = start
        self.stop = stop
        self.names = names
        self.choices = choices

    def __len__(self) -> int:
        return self.stop - self.start

    def resolve(self):
        """Materialize the chunk as a batch over the shared matrix view.

        Attach problems (segment gone, ``/dev/shm`` trouble, injected
        fault) surface as :class:`~repro.errors.TransportError`; the
        parent answers by re-dispatching *this chunk* over the pickling
        fallback transport instead of abandoning the sweep.
        """
        from ..sim.realization import RealizationBatch
        if faults.fire("shm-attach", key=self.start) == "raise":
            raise TransportError(
                f"injected shm attach failure for "
                f"runs[{self.start}:{self.stop}]")
        try:
            seg = _attach_segment(self.shm_name)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"could not attach shared segment {self.shm_name!r} for "
                f"runs[{self.start}:{self.stop}]: {exc!r}") from exc
        matrix = np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                            buffer=seg.buf)
        return RealizationBatch(self.names, matrix[self.start:self.stop],
                                self.choices)


#: worker-side attached segments, keyed by name.  Bounded: a worker
#: only ever needs the segment of the evaluation it is running plus at
#: most one predecessor that is still being torn down.
_ATTACHED: "OrderedDict[str, object]" = OrderedDict()
_ATTACHED_MAX = 2


@contextmanager
def _untracked():
    """Keep shared-memory segments out of the resource tracker (pre-3.13).

    Pre-3.13 every ``SharedMemory`` create *and* attach registers the
    segment with the calling process's resource tracker, and every
    ``unlink`` unregisters it there (bpo-39959) — even when a different
    process (and so possibly a different tracker) owns the segment.
    Inside this block shared-memory registrations and unregistrations
    are dropped, the pre-3.13 equivalent of ``track=False``; the
    caller's own create/close/unlink calls then own the lifetime.
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register, resource_tracker.unregister

    def _skipping_shm(call):
        def wrapper(rname, rtype):
            if rtype != "shared_memory":  # pragma: no cover
                call(rname, rtype)
        return wrapper

    resource_tracker.register = _skipping_shm(original[0])
    resource_tracker.unregister = _skipping_shm(original[1])
    try:
        yield
    finally:
        resource_tracker.register, resource_tracker.unregister = original


def _open_segment(name: str):
    """Attach an existing segment without registering ownership."""
    try:  # Python >= 3.13: opt out of resource tracking directly
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # forked workers may share the parent's tracker: an attach-side
        # registration (and a later unregister) would fight the parent's
        # own create/unlink bookkeeping of the same segment.  The parent
        # owns the segment's lifetime.
        with _untracked():
            return _shared_memory.SharedMemory(name=name)


def _attach_segment(name: str):
    seg = _ATTACHED.get(name)
    if seg is not None:
        _ATTACHED.move_to_end(name)
        return seg
    seg = _open_segment(name)
    _ATTACHED[name] = seg
    while len(_ATTACHED) > _ATTACHED_MAX:
        _, old = _ATTACHED.popitem(last=False)
        try:
            old.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
    return seg


class SharedBatch:
    """Parent-side owner of one realization matrix in shared memory.

    Copies the batch's actual-time matrix into a fresh segment once;
    :meth:`chunk` hands out :class:`ShmChunk` descriptors for row
    ranges.  :meth:`close` releases and unlinks the segment (POSIX
    semantics: workers still holding a mapping keep reading safely
    until they drop it).
    """

    def __init__(self, batch):
        actuals = np.ascontiguousarray(batch.actuals)
        self._shm = _shared_memory.SharedMemory(create=True,
                                                size=actuals.nbytes)
        self.shape = actuals.shape
        self.dtype = actuals.dtype.str
        view = np.ndarray(self.shape, dtype=actuals.dtype,
                          buffer=self._shm.buf)
        view[:] = actuals
        self.names = list(batch.names)
        self.choices = batch.choices

    def chunk(self, start: int, stop: int) -> ShmChunk:
        return ShmChunk(self._shm.name, self.shape, self.dtype, start, stop,
                        self.names,
                        {k: v[start:stop] for k, v in self.choices.items()})

    def close(self) -> None:
        try:
            self._shm.close()
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass


def share_batch(batch) -> Optional[SharedBatch]:
    """Publish a realization batch in shared memory, or ``None``.

    Returns ``None`` — meaning "fall back to pickled chunks" — when the
    platform has no shared memory, the matrix is empty, or segment
    creation fails at runtime (e.g. ``/dev/shm`` exhausted).
    """
    if not _SHM_AVAILABLE or batch.actuals.nbytes == 0:
        return None
    try:
        return SharedBatch(batch)
    except OSError:  # pragma: no cover - depends on host state
        return None


# ---------------------------------------------------------------------------
# shard result transport (worker-published segments)
# ---------------------------------------------------------------------------

#: shard result matrices at least this large travel back from local
#: pool workers through a shared-memory segment instead of the result
#: pickle; below it the pickling cost is already negligible.  Module
#: attribute so tests can force either transport.
SHARD_SHM_MIN_BYTES = 1 << 20


class ShardBlock:
    """Picklable descriptor of one shard's packed result matrix.

    The inverse direction of :class:`ShmChunk`: the *worker* creates
    the segment and ships ``(name, shape, dtype)``; the parent attaches
    exactly once, copies the matrix out, and closes **and unlinks** the
    segment (:meth:`take`).  A block whose result the resilient
    executor discards (a straggler beaten by its own re-dispatch)
    leaks its segment, since no resource tracker owns it — acceptable
    because blocks only exist above :data:`SHARD_SHM_MIN_BYTES` and
    stragglers are rare; the pickled fallback has no such window.
    """

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Tuple[int, int], dtype: str):
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __getstate__(self):
        return (self.name, self.shape, self.dtype)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype = state

    def take(self) -> np.ndarray:
        """Copy the matrix out and release the segment (parent, once).

        The segment is unlinked without touching the resource tracker:
        the publishing worker never left a registration behind, so an
        unregister here would only make this process's tracker raise
        ``KeyError`` on a name it never held.  Attach problems surface
        as :class:`~repro.errors.TransportError` — the caller recomputes
        that shard inline rather than failing the sweep.
        """
        if not _SHM_AVAILABLE:  # pragma: no cover - publisher had shm
            raise TransportError(
                f"no shared memory to attach shard block {self.name!r}")
        try:
            seg = _open_segment(self.name)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"could not attach shard result block {self.name!r}: "
                f"{exc!r}") from exc
        try:
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                              buffer=seg.buf)
            return np.array(view, copy=True)
        finally:
            try:
                seg.close()
                with _untracked():
                    seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass


def _create_segment(size: int):
    """Create a fresh segment without registering ownership here.

    The attaching *parent* unlinks shard-block segments, so the
    creating worker must not leave a tracker registration behind: a
    worker's own tracker would report the segment as leaked at exit
    and try to unlink it a second time."""
    try:
        return _shared_memory.SharedMemory(create=True, size=size,
                                           track=False)
    except TypeError:  # pre-3.13: no per-instance opt-out
        with _untracked():
            return _shared_memory.SharedMemory(create=True, size=size)


def publish_shard_block(matrix: np.ndarray) -> Optional[ShardBlock]:
    """Publish a packed shard result in shared memory, or ``None``.

    ``None`` means "ship the matrix pickled instead": the platform has
    no shared memory, the matrix is empty, or segment creation failed
    (e.g. ``/dev/shm`` exhausted).  Values are identical either way.
    """
    if not _SHM_AVAILABLE or matrix.nbytes == 0:
        return None
    m = np.ascontiguousarray(matrix)
    try:
        seg = _create_segment(m.nbytes)
    except OSError:  # pragma: no cover - depends on host state
        return None
    view = np.ndarray(m.shape, dtype=m.dtype, buffer=seg.buf)
    view[:] = m
    block = ShardBlock(seg.name, m.shape, m.dtype.str)
    seg.close()  # drop this mapping; the segment lives until take()
    return block


# ---------------------------------------------------------------------------
# worker-side evaluation setup cache (run-level chunk tasks)
# ---------------------------------------------------------------------------

#: per-worker prepared evaluation contexts, keyed by setup fingerprint:
#: ``(plan_dyn, plan_static, scheme_names, power, overhead, engine)``.
#: Long-lived workers keep the plans and their compiled section
#: programs across every chunk — and, thanks to the fingerprint key,
#: across repeated evaluations of the same point.
_SETUP_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_SETUP_CACHE_MAX = 8


def _prepared_setup(setup_key: str, app, config):
    setup = _SETUP_CACHE.get(setup_key)
    if setup is not None:
        _SETUP_CACHE.move_to_end(setup_key)
        return setup
    from ..core.registry import get_policy
    from ..sim.compiled import compile_plan
    from .runner import build_plans
    power = config.make_power()
    plan_dyn, plan_static = build_plans(app, config, power)
    scheme_names = tuple(get_policy(name).name for name in config.schemes)
    if config.engine == "compiled":
        compile_plan(plan_static)
        if plan_dyn is not None:
            compile_plan(plan_dyn)
    setup = (plan_dyn, plan_static, scheme_names, power, config.overhead,
             config.engine)
    _SETUP_CACHE[setup_key] = setup
    while len(_SETUP_CACHE) > _SETUP_CACHE_MAX:
        _SETUP_CACHE.popitem(last=False)
    return setup


def _eval_chunk_task(setup_key: str, app, config, start: int, chunk):
    """Worker task: simulate one run-range, tagged with its offset.

    ``chunk`` is either a :class:`ShmChunk` descriptor (zero-copy
    transport) or a pickled realization-batch slice (fallback); the
    plans are rebuilt deterministically from ``(app, config)`` on the
    first chunk of an evaluation and served from the worker's setup
    cache afterwards.
    """
    from .runner import _simulate_runs, _simulate_runs_compiled
    if faults.fire("worker-chunk", key=start) == "raise":
        raise FaultInjected(f"injected worker fault at runs[{start}:...]")
    plan_dyn, plan_static, scheme_names, power, overhead, engine = \
        _prepared_setup(setup_key, app, config)
    if isinstance(chunk, ShmChunk):
        chunk = chunk.resolve()
    if engine == "compiled":
        npm, absolute, changes, keys = _simulate_runs_compiled(
            plan_dyn, plan_static, scheme_names, power, overhead, chunk)
    else:
        npm, absolute, changes, keys = _simulate_runs(
            plan_dyn, plan_static, scheme_names, power, overhead, chunk)
    return start, npm, absolute, changes, keys


def _kernel_probe_task(scratch: str, want: int, deadline_s: float):
    """Worker task: report this process's kernel-cache counters.

    Rendezvous probe: each worker drops a pid marker in ``scratch`` and
    waits (bounded by ``deadline_s``) until ``want`` markers exist, so
    submitting ``want`` probes reaches every pool worker exactly once
    instead of letting one idle worker answer them all.
    """
    pid = os.getpid()
    with open(os.path.join(scratch, str(pid)), "w"):
        pass
    deadline = time.monotonic() + deadline_s
    while len(os.listdir(scratch)) < want and time.monotonic() < deadline:
        time.sleep(0.005)
    from ..sim.compiled import program_cache_stats
    from ..sim.kernels import tape_cache_stats
    from ..sim.sweepc import stacked_cache_stats
    return pid, {"program_cache": program_cache_stats(),
                 "tape_cache": tape_cache_stats(),
                 "stacked_cache": stacked_cache_stats()}


# ---------------------------------------------------------------------------
# the execution context
# ---------------------------------------------------------------------------

class ExecutionContext:
    """One pool, one cache, many sweep points.

    Create one per sweep/figure/suite (or pass your own across several)
    and hand it to ``sweep_*``/``figure*``/``run_suite``/
    ``evaluate_application``.  The worker pool is created lazily on
    first parallel use and reused until :meth:`close`; a context whose
    resolved job count is 1 never spawns a process at all, so it is
    free to create unconditionally.

    Parameters
    ----------
    n_jobs:
        Worker processes (``None``/``0`` = all cores, ``1`` = inline).
    cache:
        Optional :class:`~repro.experiments.evalcache.EvaluationCache`;
        evaluation points are looked up before computing and stored
        after.
    shared_memory:
        Whether run-level chunk tasks ship realization rows through
        shared memory (default) or pickled slices.  Purely transport —
        results are bit-identical.
    policy:
        Default :class:`RetryPolicy` for :meth:`map` calls that do not
        pass their own (``evaluate_application`` derives a per-call
        policy from its :class:`~repro.experiments.runner.RunConfig`).
    backend:
        Where sweep points execute: ``"local"`` (fused/pooled,
        in-process) or ``"dispatch"`` (the executor fleet of
        :mod:`repro.experiments.dispatch`).  ``None`` — the default —
        resolves to the session default (:data:`DEFAULT_BACKEND`).
        Purely an execution knob: results are bit-identical.
    executors:
        Executor-count request for the dispatch backend (clamped like
        ``n_jobs`` via :func:`resolve_jobs`); ``None`` falls back to
        this context's ``n_jobs`` request.
    connect:
        Rendezvous endpoint ``"host:port"`` the dispatch driver binds;
        ``None`` binds loopback on an ephemeral port.  Remote
        ``repro worker --connect`` processes join the fleet there.
    fault_plan:
        Optional :class:`~repro.experiments.faults.FaultPlan` for chaos
        testing: shipped to every pool worker through the pool
        initializer, and installed (restricted to parent-side sites)
        in the parent until :meth:`close`.  ``None`` — the default —
        keeps every fault site a single predicate.

    Not thread-safe, and not picklable (workers never see the context;
    they see plain task tuples).
    """

    def __init__(self, n_jobs: Optional[int] = None, cache=None,
                 shared_memory: bool = True,
                 policy: Optional[RetryPolicy] = None,
                 backend: Optional[str] = None,
                 executors: Optional[int] = None,
                 connect: Optional[str] = None,
                 fault_plan=None):
        if n_jobs is not None and n_jobs < 0:
            raise ConfigError(f"n_jobs must be >= 0, got {n_jobs}")
        if executors is not None and executors < 0:
            raise ConfigError(f"executors must be >= 0, got {executors}")
        self._n_jobs = n_jobs
        self.cache = cache
        self.shared_memory = bool(shared_memory) and _SHM_AVAILABLE
        self.policy = policy if policy is not None else RetryPolicy()
        self._backend = resolve_backend(backend)
        self._executors = executors
        self.connect = connect
        self.fault_plan = fault_plan
        self._pool: Optional[ProcessPoolExecutor] = None
        self._fleet = None  # lazy DispatchServer, like the pool
        self._dispatch_failed = False
        self._closed = False
        #: pools created over the context's lifetime (normally 0 or 1;
        #: a failed sweep resets the pool and the next use re-creates
        #: it).  Exposed for tests and the sweep benchmark.
        self.pools_created = 0
        #: recovery counters (see :data:`RESILIENCE_COUNTERS`); sweeps
        #: record their per-sweep delta in ``series.meta["resilience"]``
        self.resilience: Dict[str, int] = {
            name: 0 for name in RESILIENCE_COUNTERS}
        #: dispatch counters (see :data:`DISPATCH_COUNTERS`) and
        #: per-executor completed-point counts, mutated in place by
        #: :meth:`DispatchServer.map_points`
        self.dispatch: Dict[str, int] = {
            name: 0 for name in DISPATCH_COUNTERS}
        self.dispatch_per_executor: Dict[str, int] = {}
        if fault_plan is not None:
            # parent-side sites only: the parent must never crash/hang
            # itself while recovering (workers get the full plan);
            # online-admit runs in the driver and is retryable there
            faults.install(fault_plan.only(
                "cache-read", "dispatch-send", "dispatch-recv",
                "online-admit"))

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def jobs(self, n_items: Optional[int] = None) -> int:
        """The resolved worker count, optionally clamped to the work."""
        return resolve_jobs(self._n_jobs, n_items=n_items)

    @property
    def backend(self) -> str:
        """The resolved execution backend (``"local"``/``"dispatch"``)."""
        return self._backend

    def dispatch_jobs(self, n_items: Optional[int] = None) -> int:
        """The resolved executor count for the dispatch backend.

        An explicit ``executors`` request wins; otherwise the context's
        ``n_jobs`` request is reused, so ``ExecutionContext(n_jobs=1,
        backend="dispatch")`` stays effectively local (a 1-executor
        fleet is never engaged by ``map_evaluations``).
        """
        request = self._executors if self._executors is not None \
            else self._n_jobs
        return resolve_jobs(request, n_items=n_items)

    def dispatch_fleet(self, n_items: Optional[int] = None):
        """The persistent executor fleet, started on first use.

        Returns ``None`` — permanently, with one warning — when no
        executor connects within the timeout; callers then fall back to
        the local execution path (graceful degradation).
        """
        from ..errors import DispatchError
        if self._closed:
            raise ParallelError("closed execution context",
                                RuntimeError("context already closed"))
        if self._dispatch_failed:
            return None
        want = self.dispatch_jobs(n_items=n_items)
        from .dispatch import DispatchServer
        if self._fleet is None:
            # executors probe/populate the same content-addressed cache
            # the driver uses, so rejoining fleets skip finished work
            cache_dir = (str(self.cache.root)
                         if self.cache is not None else None)
            self._fleet = DispatchServer(connect=self.connect,
                                         fault_plan=self.fault_plan,
                                         cache_dir=cache_dir)
        try:
            self._fleet.start(executors=want)
        except DispatchError as exc:
            self._fleet.close()
            self._fleet = None
            self._dispatch_failed = True
            warnings.warn(
                f"dispatch backend unreachable ({exc}); falling back to "
                "the local execution path", RuntimeWarning, stacklevel=2)
            return None
        return self._fleet

    def has_live_pool(self) -> bool:
        """Whether a worker pool already exists and the context is open.

        ``evaluate_application`` consults this to decide whether the
        ``parallel_min_runs`` cold-start threshold applies: a live pool
        has already paid its startup cost, so even a small opted-in
        batch may as well use it.
        """
        return self._pool is not None and not self._closed

    def pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first use."""
        if self._closed:
            raise ParallelError("closed execution context",
                                RuntimeError("context already closed"))
        if self._pool is None:
            init, initargs = None, ()
            if self.fault_plan is not None:
                init, initargs = faults.install, (self.fault_plan,)
            self._pool = ProcessPoolExecutor(max_workers=self.jobs(),
                                             initializer=init,
                                             initargs=initargs)
            self.pools_created += 1
        return self._pool

    def reset(self) -> None:
        """Tear the pool down (it is re-created lazily on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool and fleet down for good; further use fails."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None
        if self.fault_plan is not None:
            faults.uninstall()
        self._closed = True

    # -- execution ----------------------------------------------------------
    def map(self, fn: Callable, args_list: Sequence[Tuple],
            labels: Optional[Sequence[str]] = None,
            policy: Optional[RetryPolicy] = None,
            fallback_args: Optional[Sequence[Tuple]] = None) -> List:
        """Run ``fn(*args)`` for every args tuple on the pool, in order.

        Resilient under partial failure (see :class:`RetryPolicy`, or
        the context's default policy when none is passed):

        * a **worker crash** breaks the pool; completed results are
          harvested, the pool is rebuilt (at most
          ``policy.max_pool_rebuilds`` times per call) and the lost
          items re-dispatched;
        * a **hung item** — one exceeding ``policy.chunk_timeout``
          seconds per attempt — is re-dispatched to another worker
          (the straggler's eventual result is discarded);
        * a worker-side :class:`~repro.errors.TransportError` switches
          *that item* to its entry in ``fallback_args`` (the pickled
          chunk) without burning a retry;
        * retry budgets exhausted → the item (or, after the rebuild
          budget, the whole remainder) is computed serially in the
          parent with a warning, or raises :class:`ParallelError` when
          ``policy.degrade`` is false.

        Deterministic worker exceptions still fail fast: the pool is
        reset and :class:`ParallelError` names the failing item.
        Results keep submission order and are bit-identical to a serial
        loop under every recovery path.
        """
        if labels is None:
            labels = [f"args={args!r}" for args in args_list]
        policy = policy if policy is not None else self.policy
        n = len(args_list)
        current: List[Tuple] = list(args_list)
        futures: List = [None] * n
        results: List = [None] * n
        done = [False] * n
        attempts = [0] * n
        on_fallback = [False] * n
        timeout = policy.chunk_timeout if policy.chunk_timeout > 0 else None
        rebuilds_left = policy.max_pool_rebuilds
        serial = False

        def _inline(j: int, cause: BaseException):
            """Last resort: compute item ``j`` in the parent."""
            if not policy.degrade:
                self.reset()
                raise ParallelError(labels[j], cause) from cause
            self.resilience["degradations"] += 1
            warnings.warn(
                f"giving up on parallel execution of {labels[j]} after "
                f"{attempts[j]} failed dispatch(es) "
                f"({type(cause).__name__}: {cause}); computing it "
                f"serially in the parent", RuntimeWarning, stacklevel=3)
            try:
                return fn(*current[j])
            except Exception as exc:
                raise ParallelError(labels[j], exc) from exc

        def _retry(j: int, cause: BaseException) -> None:
            """Consume one retry for item ``j`` (or degrade it)."""
            attempts[j] += 1
            self.resilience["retries"] += 1
            if attempts[j] > policy.max_retries:
                results[j] = _inline(j, cause)
                done[j] = True
                return
            delay = policy.backoff(attempts[j])
            if delay > 0:
                time.sleep(delay)
            futures[j] = None  # re-dispatched by _submit_pending

        def _submit_pending() -> None:
            pool = self.pool()
            for j in range(n):
                if not done[j] and futures[j] is None:
                    futures[j] = pool.submit(fn, *current[j])

        i = 0
        while i < n:
            if done[i]:
                i += 1
                continue
            if serial:
                try:
                    results[i] = fn(*current[i])
                except Exception as exc:
                    raise ParallelError(labels[i], exc) from exc
                done[i] = True
                i += 1
                continue
            try:
                _submit_pending()
                results[i] = futures[i].result(timeout=timeout)
                done[i] = True
                i += 1
            except TransportError as exc:
                if fallback_args is not None and not on_fallback[i]:
                    # shared memory failed this worker: pickle this one
                    # chunk; the rest of the sweep stays zero-copy
                    self.resilience["shm_fallbacks"] += 1
                    on_fallback[i] = True
                    current[i] = fallback_args[i]
                    futures[i] = None
                else:
                    _retry(i, exc)
            except FuturesTimeoutError as exc:
                self.resilience["timeouts"] += 1
                _retry(i, exc)
            except FaultInjected as exc:
                _retry(i, exc)
            except BrokenExecutor as exc:
                # the whole pool died: keep what finished, drop the rest
                self.reset()
                for j in range(n):
                    f = futures[j]
                    if done[j] or f is None:
                        continue
                    if f.done() and not f.cancelled() \
                            and f.exception() is None:
                        results[j] = f.result()
                        done[j] = True
                    else:
                        futures[j] = None
                attempts[i] += 1
                self.resilience["retries"] += 1
                if rebuilds_left <= 0 or attempts[i] > policy.max_retries:
                    if not policy.degrade:
                        raise ParallelError(labels[i], exc) from exc
                    self.resilience["degradations"] += 1
                    warnings.warn(
                        "worker pool broke beyond the rebuild budget; "
                        "degrading the remaining "
                        f"{sum(1 for d in done if not d)} item(s) to "
                        "serial execution in the parent",
                        RuntimeWarning, stacklevel=2)
                    serial = True
                    continue
                rebuilds_left -= 1
                self.resilience["rebuilds"] += 1
                warnings.warn(
                    f"worker pool broke while running {labels[i]} "
                    f"({type(exc).__name__}); rebuilding the pool and "
                    "re-dispatching the unfinished items",
                    RuntimeWarning, stacklevel=2)
                delay = policy.backoff(attempts[i])
                if delay > 0:
                    time.sleep(delay)
            except Exception as exc:
                self.reset()
                raise ParallelError(labels[i], exc) from exc
        return results

    # -- bookkeeping --------------------------------------------------------
    def worker_kernel_stats(self) -> List[Dict[str, Dict[str, int]]]:
        """Per-worker kernel-cache counters from the live pool.

        Best effort and read-only: returns ``[]`` when no pool is live
        (nothing pooled ran, or the backend is dispatch — remote
        executors are not probed), and skips workers whose probe fails.
        ``repro ... --cache-stats`` sums these with the parent's own
        counters so pooled runs stop under-counting.
        """
        if not self.has_live_pool():
            return []
        import shutil
        import tempfile
        want = self.jobs()
        scratch = tempfile.mkdtemp(prefix="repro-kprobe-")
        try:
            pool = self.pool()
            futures = [pool.submit(_kernel_probe_task, scratch, want, 1.0)
                       for _ in range(want)]
            per_pid: Dict[int, Dict[str, Dict[str, int]]] = {}
            for future in futures:
                try:
                    pid, stats = future.result(timeout=10.0)
                except Exception:  # pragma: no cover - best effort
                    continue
                per_pid[pid] = stats
            return list(per_pid.values())
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """The attached cache's hit/miss counters, or ``None``."""
        return self.cache.stats() if self.cache is not None else None

    def resilience_stats(self) -> Dict[str, int]:
        """Recovery counters accumulated over the context's lifetime."""
        return dict(self.resilience)

    def dispatch_stats(self) -> Dict[str, object]:
        """Dispatch counters plus per-executor completed-point counts."""
        return {**self.dispatch,
                "per_executor": dict(self.dispatch_per_executor)}
