"""The online phase: the Figure 2 dispatch protocol as a simulator.

One engine executes every scheme; a *policy run* object (duck-typed, see
``repro.core.base``) tells it either a fixed speed (NPM, SPM) or, for the
dynamic schemes, a speculative speed floor combined with the greedy
slack-sharing guarantee computed from the offline plan's latest start
times.

Protocol modeled (Figure 2 of the paper):

* processors serve a global ready queue strictly in the canonical
  execution order — an idle processor whose next-expected task is not
  ready sleeps (consuming idle power) until signalled;
* before a computation task runs, the dispatching processor spends the
  speed-computation overhead, computes the new speed, and pays the
  voltage-switch overhead if the level differs from its current one;
* AND nodes are dummy tasks: they complete the moment their last
  predecessor does;
* at an OR node all processors synchronize (the section drains), the
  branch is selected, and the chosen section begins.

Energy is integrated over the whole window ``[0, m·D]``: busy energy at
the per-task speed/voltage, overhead energy (speed computation at the
old speed, switches at max power), and idle energy at 5 % of max power
for all remaining processor-time, including after early completion —
this is what makes NPM's energy fall as load rises, as the paper notes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..errors import DeadlineMissError, SimulationError, invalid_actual
from ..offline.plan import OfflinePlan
from ..power.model import PowerModel
from ..power.overhead import OverheadModel
from ..types import EnergyBreakdown, SimResult, TaskRecord
from .realization import Realization

_EPS = 1e-9


def simulate(plan: OfflinePlan, policy_run, power: PowerModel,
             overhead: OverheadModel, realization: Realization,
             collect_trace: bool = False,
             check_deadline: bool = True) -> SimResult:
    """Simulate one application run under one scheme.

    ``policy_run`` must provide:

    * ``name`` — scheme label;
    * ``fixed_speed`` — a speed level, or ``None`` for dynamic schemes;
    * ``floor(t)`` — the speculative speed floor at time ``t`` (dynamic);
    * ``on_or_fired(or_name, target_sid, t)`` — OR-node hook (dynamic).

    Raises :class:`DeadlineMissError` if the run overshoots the deadline
    (all the paper's schemes are proven not to when the offline phase
    succeeded, so a miss is a bug, not a data point).
    """
    app = plan.app
    graph = app.graph
    structure = plan.structure
    m = plan.n_processors
    deadline = app.deadline

    proc_speed = [power.s_max] * m
    energy = EnergyBreakdown()
    busy_time = 0.0
    overhead_time = 0.0
    n_changes = 0
    n_tasks = 0
    trace: List[TaskRecord] = []
    path_choices: Dict[str, str] = {}

    fixed = policy_run.fixed_speed
    t_section = 0.0
    if fixed is not None and abs(fixed - power.s_max) > _EPS:
        # SPM: one synchronized switch on every processor before starting
        t_section = overhead.adjust_time
        overhead_time += m * overhead.adjust_time
        energy.overhead += m * overhead.adjustment_energy(power)
        n_changes += m
        proc_speed = [fixed] * m

    proc_free = [t_section] * m
    last_dispatch = t_section
    sid = structure.root_id
    t_end = t_section

    while True:
        sp = plan.sections[sid]
        finishes: Dict[str, float] = {}
        for name in sp.dispatch_order:
            node = graph.node(name)
            preds = sp.preds_within[name]
            ready = t_section
            for p in preds:
                f = finishes[p]
                if f > ready:
                    ready = f
            if node.is_and:
                finishes[name] = ready
                continue

            # the first-idle processor takes the next-expected task; the
            # dispatch itself is serialized in canonical order
            j = min(range(m), key=proc_free.__getitem__)
            t = max(ready, last_dispatch, proc_free[j])
            last_dispatch = t
            actual = realization.actual(name)
            c = node.wcet
            if not 0.0 <= actual <= c * (1 + 1e-9):
                raise invalid_actual(actual, name, c)

            if fixed is not None:
                speed = fixed
                start_exec = t
                changed = False
            else:
                s_cur = proc_speed[j]
                t_comp = overhead.computation_time(power, s_cur)
                avail = sp.finish_bound[name] - t - t_comp
                denom = avail - overhead.adjust_time
                s_req = c / denom if denom > 0 else math.inf
                target = max(s_req, policy_run.floor(t))
                if target > power.s_max * (1 + 1e-6):
                    raise SimulationError(
                        f"guarantee violated for {name!r}: required speed "
                        f"{target:.6g} exceeds maximum (t={t:.6g}, "
                        f"bound={sp.finish_bound[name]:.6g})")
                speed = power.snap_up(min(target, power.s_max))
                changed = abs(speed - s_cur) > _EPS
                t_adj = overhead.adjust_time if changed else 0.0
                start_exec = t + t_comp + t_adj
                if t_comp > 0:
                    overhead_time += t_comp
                    energy.overhead += power.busy_energy(s_cur, t_comp)
                if changed:
                    overhead_time += t_adj
                    energy.overhead += overhead.adjustment_energy(power)
                    n_changes += 1
                    proc_speed[j] = speed

            wall = actual / speed
            finish = start_exec + wall
            busy_time += wall
            energy.busy += power.busy_energy(speed, wall)
            proc_free[j] = finish
            finishes[name] = finish
            n_tasks += 1
            if collect_trace:
                trace.append(TaskRecord(
                    name=name, processor=j, start=start_exec, finish=finish,
                    speed=speed, actual_cycles=actual,
                    energy=power.busy_energy(speed, wall),
                    speed_changed=changed))

        if finishes:
            t_end = max(max(finishes.values()), t_section)
        else:
            t_end = t_section

        exit_or = structure.section(sid).exit_or
        if exit_or is None:
            break
        branches = structure.branches(exit_or)
        if not branches:
            break  # terminal merge OR: the application ends here
        if len(branches) == 1:
            target = branches[0][0]  # merge/continuation: choice is forced
        else:
            try:
                target = realization.choices[exit_or]
            except KeyError:
                raise SimulationError(
                    f"realization has no branch choice for OR node "
                    f"{exit_or!r}") from None
        if target not in (b for b, _ in branches):
            raise SimulationError(
                f"realization chose section {target} at {exit_or!r}, not a "
                f"successor path")
        path_choices[exit_or] = str(target)
        # all processors synchronize at the OR node before continuing:
        # every processor becomes available exactly at the drain time
        # (this also fixes the post-OR tie-break: lowest processor id)
        t_section = t_end
        last_dispatch = t_end
        proc_free = [t_end] * m
        if fixed is None:
            policy_run.on_or_fired(exit_or, target, t_end)
        sid = target

    finish_time = t_end
    if check_deadline and finish_time > deadline * (1 + 1e-9) + _EPS:
        raise DeadlineMissError(finish_time, deadline,
                                scheme=policy_run.name)

    # the energy window extends to the deadline (idle after early finish
    # is charged); a missed deadline under check_deadline=False extends
    # the window to the actual finish so idle time stays well-defined
    window = m * max(deadline, finish_time)
    idle_time = window - busy_time - overhead_time
    if idle_time < -1e-6 * max(deadline, 1.0):
        raise SimulationError(
            f"negative idle time {idle_time}: busy={busy_time}, "
            f"overhead={overhead_time}, window={window}")
    energy.idle = power.idle_energy(max(idle_time, 0.0))

    return SimResult(
        scheme=policy_run.name,
        finish_time=finish_time,
        deadline=deadline,
        energy=energy,
        n_speed_changes=n_changes,
        n_tasks_run=n_tasks,
        trace=trace,
        path_choices=path_choices,
    )
