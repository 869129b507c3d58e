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

Everything here preserves the engine's core contract: results are
**bit-identical** to sequential execution for every pool size
(workers only execute prebuilt, seed-aligned work).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


#: counters the resilient executor maintains per context — these are
#: what sweeps surface as ``series.meta["resilience"]``
RESILIENCE_COUNTERS = ("rebuilds", "degradations")


# ---------------------------------------------------------------------------
# worker-side kernel-cache probe
# ---------------------------------------------------------------------------

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


def _run_item(fn: Callable, position: int, args: Tuple):
    """Worker side of :meth:`ExecutionContext.map`: one task.

    Fires the ``worker-chunk`` fault site, keyed by the item's position
    in the call, so the chaos tier can kill the worker mid-map.
    """
    faults.fire("worker-chunk", key=position)
    return fn(*args)


def _harvest(future, results: List, i: int) -> bool:
    """Keep item ``i``'s result if its future finished before the break."""
    if future is not None and future.done() and not future.cancelled() \
            and future.exception() is None:
        results[i] = future.result()
        return True
    return False


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
        #: recovery counters (see :data:`RESILIENCE_COUNTERS`); sweeps
        #: record their per-sweep delta in ``series.meta["resilience"]``
        self.resilience: Dict[str, int] = {
            name: 0 for name in RESILIENCE_COUNTERS}
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
                    results[j] = futures[j].result()
                return results
            except BrokenExecutor as exc:
                self.reset()
                pending = [i for i in pending
                           if not _harvest(futures.get(i), results, i)]
                breaks += 1
                if breaks <= policy.max_retries:
                    self.resilience["rebuilds"] += 1
                    warnings.warn(
                        f"worker pool broke while running {labels[j]}; "
                        "rebuilding the pool and re-dispatching "
                        f"{len(pending)} unfinished item(s)",
                        RuntimeWarning, stacklevel=2)
                    continue
                if not policy.degrade:
                    raise ParallelError(labels[j], exc) from exc
                self.resilience["degradations"] += 1
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

    # -- bookkeeping --------------------------------------------------------
    def worker_kernel_stats(self) -> List[Dict[str, Dict[str, int]]]:
        """Per-worker kernel-cache counters from the live pool.

        Best effort and read-only: returns ``[]`` when no pool is live
        (nothing pooled ran), and skips workers whose probe fails.
        ``repro ... --cache-stats`` sums these with the parent's own
        counters so pooled runs stop under-counting.
        """
        if self._pool is None or self._closed:
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
