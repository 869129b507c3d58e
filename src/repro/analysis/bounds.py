"""Energy bounds for calibrating the schemes.

The paper motivates speculation with the clairvoyant single-speed
optimum; these helpers compute concrete reference energies for a plan
(and optionally a realization):

* :func:`continuous_uniform_bound` — a uniform-stretch estimate: run
  the realized workload at one *continuous* speed that stretches its
  max-speed makespan exactly to the deadline, no level quantization, no
  switches.  It is not a lower bound: a uniform stretch is not optimal
  once processors idle off the critical path, and the schemes undercut
  it on some realizations (ROADMAP, "Make the bounds bounds").
* :func:`static_bound` — the best *static* (realization-independent)
  energy: the continuous uniform speed for the canonical worst case —
  what SPM would achieve with infinite levels.
* :func:`npm_energy` — the normalization baseline in closed form
  (useful to sanity-check the simulator's NPM runs).
"""

from __future__ import annotations

from typing import Optional

from ..core.base import _FixedRun
from ..offline.plan import OfflinePlan
from ..power.model import ContinuousPowerModel, PowerModel
from ..power.overhead import NO_OVERHEAD
from ..sim.engine import simulate
from ..sim.realization import Realization


def _continuous_like(power: PowerModel) -> ContinuousPowerModel:
    """A continuous model matching ``power``'s idle fraction (s_min 0)."""
    return ContinuousPowerModel(s_min=0.0, f_max_mhz=power.f_max_mhz,
                                idle_fraction=power.idle_fraction)


def npm_energy(plan: OfflinePlan, power: PowerModel,
               realization: Realization) -> float:
    """Energy of the NPM baseline on one realization."""
    run = _FixedRun("NPM-bound", power.s_max)
    res = simulate(plan, run, power, NO_OVERHEAD, realization)
    return res.total_energy


def continuous_uniform_bound(plan: OfflinePlan, power: PowerModel,
                             realization: Realization) -> float:
    """Clairvoyant continuous uniform-stretch estimate (one realization).

    Runs the realized workload at maximum speed to measure its makespan
    ``F``, then evaluates the same schedule uniformly stretched to the
    deadline at speed ``F / D`` under the continuous (cubic) power
    model.  This is an estimate, not a lower bound: per-task speeds beat
    a uniform stretch when processors idle off the critical path, so a
    scheme's measured energy can fall below it (ROADMAP, "Make the
    bounds bounds").
    """
    cont = _continuous_like(power)
    probe = simulate(plan, _FixedRun("bound-probe", 1.0), cont,
                     NO_OVERHEAD, realization, check_deadline=False)
    speed = min(max(probe.finish_time / plan.deadline, 1e-9), 1.0)
    run = _FixedRun("bound", speed)
    res = simulate(plan, run, cont, NO_OVERHEAD, realization)
    return res.total_energy


def static_bound(plan: OfflinePlan, power: PowerModel,
                 realization: Optional[Realization] = None) -> float:
    """Best static uniform speed (infinite levels): ``T_worst / D``.

    With a realization, evaluates that speed on it; without one,
    returns the worst-case energy of the stretched canonical schedule.
    """
    cont = _continuous_like(power)
    speed = min(max(plan.t_worst / plan.deadline, 1e-9), 1.0)
    if realization is None:
        # all-WCET workload: busy time = t_worst/speed per definition
        busy_work = sum(n.wcet for n in plan.app.graph.computation_nodes())
        busy = cont.task_energy(speed, busy_work)
        window = plan.n_processors * plan.deadline
        idle = cont.idle_energy(window - busy_work / speed)
        return busy + idle
    run = _FixedRun("static-bound", speed)
    res = simulate(plan, run, cont, NO_OVERHEAD, realization)
    return res.total_energy
