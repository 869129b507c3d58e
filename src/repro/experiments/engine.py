"""Sweep-scale execution engine: one pool per sweep, not per point.

A figure or suite evaluates dozens of points.  This module keeps their
shared costs to once per sweep:

* :class:`ExecutionContext` — a **persistent, reusable process pool**
  created lazily once per sweep/figure/suite and shared by the
  point-level fan-out of :mod:`repro.experiments.parallel` (sweeps
  that cannot fuse, online rate points, suite cells).  Workers are
  long-lived, so their per-process caches (the offline round-1 plan
  cache, the compiled section-program cache keyed by plan
  fingerprint) persist across sweep points: each program compiles
  once per worker, not once per point.  :meth:`ExecutionContext.map`
  rebuilds the pool after a dead worker and degrades to serial
  execution in the parent past the :class:`RetryPolicy` budget.
* An optional **content-addressed evaluation cache**
  (:mod:`repro.experiments.evalcache`) attached to the context, so
  ``repro fig`` / ``repro suite`` regeneration is incremental.
* :func:`recording` — the :mod:`repro.obs` recording of one sweep or
  command, which also counts the context's cache hits and misses.  A
  pooled task runs under its own recording in the worker and returns
  the totals with its result, so the parent's recordings count the
  compiles and spans that happened in the workers.

Everything here preserves the engine's core contract: results are
**bit-identical** to sequential execution for every pool size
(workers only execute prebuilt, seed-aligned work).
"""

from __future__ import annotations

import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..cores import effective_cores
from ..errors import ConfigError, ParallelError
from . import faults


def resolve_jobs(n_jobs: Optional[int], n_items: Optional[int] = None) -> int:
    """Normalize an ``n_jobs`` request.

    ``None``/``0`` → all schedulable cores (:func:`effective_cores`);
    negative → :class:`ConfigError`.  When
    ``n_items`` is given, the answer is additionally clamped to the
    amount of available work (never below 1), so a 32-core request for
    a 3-point sweep starts 3 workers, not 32 mostly-idle ones.
    """
    if n_jobs is None or n_jobs == 0:
        jobs = effective_cores()
    elif n_jobs < 0:
        raise ConfigError(f"n_jobs must be positive, got {n_jobs}")
    else:
        jobs = n_jobs
    if n_items is not None:
        jobs = max(1, min(jobs, n_items))
    return jobs


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`ExecutionContext.map` answers a dead worker.

    A worker that dies breaks the whole pool (``BrokenExecutor``): the
    finished results are kept, the pool is rebuilt and the unfinished
    items are re-dispatched, at most ``max_retries`` times per
    :meth:`~ExecutionContext.map` call.  Past that the remaining items
    run serially in the parent with one warning (``degrade=True``), or
    :class:`~repro.errors.ParallelError` is raised (``degrade=False``).

    Any other worker exception (a ``ConfigError``, a bug) would fail
    identically again, so it fails fast.  None of this changes results:
    recovery re-executes prebuilt work whose outputs are bit-identical
    by the engine's core contract.
    """

    max_retries: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


def _run_item(fn: Callable, position: int, args: Tuple):
    """Worker side of :meth:`ExecutionContext.map`: one task.

    Fires the ``worker-chunk`` fault site, keyed by the item's position
    in the call, so the chaos tier can kill the worker mid-map, and
    returns ``(result, totals)``: the totals of the task's own
    recording (counting ``experiments.engine.tasks``).
    """
    faults.fire("worker-chunk", key=position)
    with obs.recording(detached=True) as rec:
        obs.count("experiments.engine.tasks")
        result = fn(*args)
    return result, rec.totals()


def _merged(pair):
    """A task's result, its recording's totals added to the open ones."""
    result, totals = pair
    obs.merge(totals)
    return result


def _harvest(future, results: List, i: int) -> bool:
    """Keep item ``i``'s result if its future finished before the break."""
    if future is not None and future.done() and not future.cancelled() \
            and future.exception() is None:
        results[i] = _merged(future.result())
        return True
    return False


def recording(context: Optional["ExecutionContext"]):
    """An :func:`repro.obs.recording` that also counts ``context``'s
    evaluation-cache events as ``experiments.evalcache.*``."""
    cache = None if context is None else context.cache
    return obs.recording(
        None if cache is None else {"experiments.evalcache": cache.stats})


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
    policy:
        Default :class:`RetryPolicy` for :meth:`map` calls that do not
        pass their own (pooled sweeps pass the policy of their
        :class:`~repro.experiments.runner.RunConfig`).
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
                 policy: Optional[RetryPolicy] = None,
                 fault_plan=None):
        if n_jobs is not None and n_jobs < 0:
            raise ConfigError(f"n_jobs must be >= 0, got {n_jobs}")
        self._n_jobs = n_jobs
        self.cache = cache
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: pools created over the context's lifetime (normally 0 or 1;
        #: a failed sweep resets the pool and the next use re-creates
        #: it).  Exposed for tests and the sweep benchmark.
        self.pools_created = 0
        if fault_plan is not None:
            # parent-side sites only: the parent must never crash
            # itself while recovering (workers get the full plan);
            # online-admit runs in the driver
            faults.install(fault_plan.only("cache-read", "online-admit"))

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def jobs(self, n_items: Optional[int] = None) -> int:
        """The resolved worker count, optionally clamped to the work."""
        return resolve_jobs(self._n_jobs, n_items=n_items)

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
        """Shut the pool down for good; further use fails."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self.fault_plan is not None:
            faults.uninstall()
        self._closed = True

    # -- execution ----------------------------------------------------------
    def map(self, fn: Callable, args_list: Sequence[Tuple],
            labels: Optional[Sequence[str]] = None,
            policy: Optional[RetryPolicy] = None) -> List:
        """Run ``fn(*args)`` for every args tuple on the pool, in order.

        A worker that dies breaks the pool: the finished results are
        kept, the pool is rebuilt and the unfinished items are
        re-dispatched, at most ``policy.max_retries`` times per call
        (``policy`` defaults to the context's).  After that the
        remaining items run serially in the parent with one warning, or
        :class:`ParallelError` is raised when ``policy.degrade`` is
        false.  Any other worker exception fails fast: the pool is reset
        and :class:`ParallelError` names the failing item.  Results keep
        submission order and are bit-identical to a serial loop.
        Recovery counts as ``experiments.engine.rebuilds`` and
        ``.degradations`` in the open :mod:`repro.obs` recordings.
        """
        if labels is None:
            labels = [f"args={args!r}" for args in args_list]
        policy = policy if policy is not None else self.policy
        results: List = [None] * len(args_list)
        pending = list(range(len(args_list)))
        breaks = 0
        while pending:
            pool = self.pool()
            futures: Dict = {}
            try:
                # a pool can also break while items are being submitted
                for j in pending:
                    futures[j] = pool.submit(_run_item, fn, j, args_list[j])
                for j in pending:
                    results[j] = _merged(futures[j].result())
                return results
            except BrokenExecutor as exc:
                self.reset()
                pending = [i for i in pending
                           if not _harvest(futures.get(i), results, i)]
                breaks += 1
                if breaks <= policy.max_retries:
                    obs.count("experiments.engine.rebuilds")
                    warnings.warn(
                        f"worker pool broke while running {labels[j]}; "
                        "rebuilding the pool and re-dispatching "
                        f"{len(pending)} unfinished item(s)",
                        RuntimeWarning, stacklevel=2)
                    continue
                if not policy.degrade:
                    raise ParallelError(labels[j], exc) from exc
                obs.count("experiments.engine.degradations")
                warnings.warn(
                    f"worker pool broke {breaks} time(s); running the "
                    f"remaining {len(pending)} item(s) serially in the "
                    "parent", RuntimeWarning, stacklevel=2)
                for j in pending:
                    try:
                        results[j] = fn(*args_list[j])
                    except Exception as err:
                        raise ParallelError(labels[j], err) from err
                return results
            except Exception as exc:
                self.reset()
                raise ParallelError(labels[j], exc) from exc
        return results
