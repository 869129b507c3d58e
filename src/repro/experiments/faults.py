"""Deterministic fault injection for the execution engine.

The resilience layer (pool rebuild after a dead worker, cache
quarantine, admission retry) is
only trustworthy if every recovery path can be *driven* on demand and
proven bit-identical to the fault-free run.  This module provides that
driver: a :class:`FaultPlan` of :class:`FaultSpec` entries, installed
into pool workers through the pool initializer (and, filtered, into
the parent for parent-side sites), that crashes, raises or corrupts at
named **fault sites**:

``worker-chunk``
    Start of every pool task of
    :meth:`~repro.experiments.engine.ExecutionContext.map` (a sweep
    point, an online rate point, a suite cell), keyed by the
    item's position in the call.  Action: ``crash`` (``os._exit`` —
    the pool breaks with
    :class:`~concurrent.futures.process.BrokenProcessPool`; the pool
    is rebuilt and the unfinished items re-dispatched).
``cache-read``
    Evaluation-cache lookup of an entry that exists, in the parent.
    Action: ``corrupt`` (truncates the on-disk entry and reads it
    again, simulating a torn write; the cache must quarantine and
    recompute).
``online-admit``
    The admission probe of the online sporadic-arrival simulator
    (:func:`~repro.experiments.online.simulate_online`), fired in the
    driver process for every arrival, keyed by the arrival index.
    Action: ``raise`` (the admission decision is retried under the
    config's retry policy and must land bit-identically).

Determinism and replay: a spec fires on the Nth occurrence of its site
in a process (``occurrence``), or whenever the call site's ``key``
matches (``key``), and at most ``times`` times *globally* — global
one-shot bookkeeping uses ``O_CREAT | O_EXCL`` marker files in the
plan's ``scratch`` directory, so an item whose worker crashed is not
crashed again on re-dispatch.  :meth:`FaultPlan.random` derives a whole
plan from one integer seed; a chaos test that fails prints that seed,
and rebuilding the plan from it replays the exact fault schedule.

The hot path stays free: with no plan installed, :func:`fire` is a
module-global ``None`` check and an immediate return — no allocation,
no locking — so production sweeps pay one predicate per task.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigError

#: which action each fault site supports (documented in
#: docs/testing.md's site registry)
SITE_ACTIONS = {
    "worker-chunk": ("crash",),
    "cache-read": ("corrupt",),
    "online-admit": ("raise",),
}

#: the fault-site registry
SITES = tuple(SITE_ACTIONS)

#: actions a spec may request (interpreted by the firing site)
ACTIONS = ("crash", "raise", "corrupt")

#: exit code of an injected worker crash (recognizable in pool logs)
CRASH_EXIT_CODE = 73


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *where*, *when* and *what*.

    ``occurrence`` counts calls at ``site`` within one process (1-based)
    and is ignored when ``key`` is given; ``key`` matches the identity
    the call site passes to :func:`fire` (an item's position in a
    ``map`` call, an arrival index, a cache key prefix).  ``times`` caps
    total firings across every process sharing the plan's scratch
    directory.
    """

    site: str
    action: str
    occurrence: int = 1
    key: Optional[object] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; registry: {SITES}")
        if self.action not in SITE_ACTIONS[self.site]:
            raise ConfigError(
                f"unknown fault action {self.action!r} at site "
                f"{self.site!r}; one of {SITE_ACTIONS[self.site]}")
        if self.occurrence < 1:
            raise ConfigError("occurrence is 1-based, must be >= 1")
        if self.times < 1:
            raise ConfigError("times must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A replayable schedule of injected faults.

    ``scratch`` (a directory path) enables cross-process one-shot
    accounting; without it each process enforces ``times`` on its own,
    which is only safe for parent-side sites (``cache-read``).
    ``seed`` is carried for provenance: plans built by :meth:`random`
    print it via :meth:`describe` so failures are reproducible.
    """

    specs: Tuple[FaultSpec, ...] = ()
    scratch: Optional[str] = None
    seed: Optional[int] = None

    # -- construction -------------------------------------------------------
    @classmethod
    def random(cls, seed: int, scratch: Optional[str] = None,
               n_faults: int = 2) -> "FaultPlan":
        """A seed-derived plan: same seed + same scratch state = same faults.

        Sites are drawn from :data:`SITES`, actions per site from what
        that site supports (:data:`SITE_ACTIONS`), and occurrences from
        1..4 so small sweeps still reach them.
        """
        rng = random.Random(seed)
        specs = []
        for _ in range(n_faults):
            site = rng.choice(SITES)
            specs.append(FaultSpec(site=site,
                                   action=rng.choice(SITE_ACTIONS[site]),
                                   occurrence=rng.randint(1, 4)))
        return cls(specs=tuple(specs), scratch=scratch, seed=seed)

    def only(self, *sites: str) -> "FaultPlan":
        """The plan restricted to ``sites`` (parent-side installation)."""
        return FaultPlan(specs=tuple(s for s in self.specs
                                     if s.site in sites),
                         scratch=self.scratch, seed=self.seed)

    def describe(self) -> str:
        """One line per spec, headed by the seed — paste into a report."""
        head = f"FaultPlan(seed={self.seed!r})"
        lines = [head] + [
            f"  [{i}] {s.site}: {s.action} "
            + (f"key={s.key!r}" if s.key is not None
               else f"occurrence={s.occurrence}")
            + (f" x{s.times}" if s.times != 1 else "")
            for i, s in enumerate(self.specs)
        ]
        return "\n".join(lines)

    # -- firing -------------------------------------------------------------
    def _claim(self, spec: FaultSpec, local_fires: Dict[str, int]) -> bool:
        """Reserve one global firing slot for a matched spec, atomically.

        Slots are named after the spec's *content*, not its position,
        so the same spec claims the same markers whether it sits in the
        full plan (a worker's copy) or a :meth:`only`-filtered one (the
        parent's copy).  Two byte-identical specs in one plan share a
        slot pool — use ``times`` to express multiplicity instead.
        """
        stem = _spec_stem(spec)
        if self.scratch is None:
            fired = local_fires.get(stem, 0)
            if fired >= spec.times:
                return False
            local_fires[stem] = fired + 1
            return True
        for slot in range(spec.times):
            marker = os.path.join(self.scratch, f"{stem}-{slot}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # scratch unwritable: never fire
            os.close(fd)
            return True
        return False

    def check(self, site: str, key: object,
              counts: Dict[str, int],
              local_fires: Dict[str, int]) -> Optional[str]:
        """The action to perform at this call, or ``None``."""
        count = counts.get(site, 0) + 1
        counts[site] = count
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.key is not None:
                if spec.key != key:
                    continue
            elif count != spec.occurrence:
                continue
            if self._claim(spec, local_fires):
                return spec.action
        return None


def _spec_stem(spec: FaultSpec) -> str:
    """Position-independent marker-file stem of one spec."""
    blob = f"{spec.site}|{spec.action}|{spec.occurrence}|{spec.key!r}"
    return "fault-" + hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# per-process installation
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_COUNTS: Dict[str, int] = {}
_LOCAL_FIRES: Dict[str, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` in this process (pool-initializer compatible).

    Resets the per-process occurrence counters, so a fresh worker
    starts counting from its own first task.
    """
    global _PLAN
    _PLAN = plan
    _COUNTS.clear()
    _LOCAL_FIRES.clear()


def uninstall() -> None:
    """Deactivate fault injection in this process."""
    install(None)


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _PLAN


def fire(site: str, key: object = None) -> Optional[str]:
    """Evaluate the installed plan at a fault site.

    With no plan installed this is a single ``None`` check.  ``crash``
    is performed here; any other matched action is returned for the
    call site to interpret (``raise``, ``corrupt``).
    """
    plan = _PLAN
    if plan is None:
        return None
    action = plan.check(site, key, _COUNTS, _LOCAL_FIRES)
    if action == "crash":
        os._exit(CRASH_EXIT_CODE)
    return action
