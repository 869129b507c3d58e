"""A literal, event-driven implementation of the Figure 2 protocol.

:mod:`repro.sim.engine` simulates the dispatch protocol in a *derived*
serialized form (dispatch times computed directly in canonical order).
This module implements the protocol the way the paper writes it —
processors as state machines around a shared ready queue, with explicit
``wait()``/``signal()`` sleep and wake-up — as an independent oracle:

* an idle processor inspects the head of the ready queue; if the head
  is the next-expected task and is ready, the processor dequeues and
  runs it, otherwise it sleeps;
* completing a task decrements successors' unfinished-predecessor
  counts; AND nodes cascade instantly; newly ready tasks are enqueued
  in canonical-order position and a sleeping processor is signalled;
* at an OR node all processors synchronize, the branch is selected, and
  the chosen section's tasks are seeded.

Determinism matches the serialized engine's documented tie-break: when
several processors could take a task, the one that became idle earliest
wins (ties by processor id).  With identical plans, policies and
realizations the two engines must produce identical dispatch times,
speeds, energies and switch counts — a property test holds them to it.

This engine is intentionally unoptimized; use :func:`repro.sim.simulate`
for experiments.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from ..errors import DeadlineMissError, SimulationError, invalid_actual
from ..offline.plan import OfflinePlan
from ..power.model import PowerModel
from ..power.overhead import OverheadModel
from ..types import EnergyBreakdown, SimResult, TaskRecord
from .realization import Realization

_EPS = 1e-9


class _Processor:
    __slots__ = ("pid", "idle_since", "speed")

    def __init__(self, pid: int, speed: float):
        self.pid = pid
        self.idle_since = 0.0
        self.speed = speed


def simulate_events(plan: OfflinePlan, policy_run, power: PowerModel,
                    overhead: OverheadModel, realization: Realization,
                    collect_trace: bool = False,
                    check_deadline: bool = True) -> SimResult:
    """Event-driven counterpart of :func:`repro.sim.engine.simulate`."""
    app = plan.app
    graph = app.graph
    structure = plan.structure
    m = plan.n_processors
    deadline = app.deadline

    fixed = policy_run.fixed_speed
    t_section = 0.0
    energy = EnergyBreakdown()
    busy_time = 0.0
    overhead_time = 0.0
    n_changes = 0
    n_tasks = 0
    trace: List[TaskRecord] = []
    path_choices: Dict[str, str] = {}

    initial_speed = power.s_max
    if fixed is not None and abs(fixed - power.s_max) > _EPS:
        t_section = overhead.adjust_time
        overhead_time += m * overhead.adjust_time
        energy.overhead += m * overhead.adjustment_energy(power)
        n_changes += m
        initial_speed = fixed

    procs = [_Processor(i, initial_speed) for i in range(m)]
    for p in procs:
        p.idle_since = t_section

    sid = structure.root_id
    t_end = t_section

    while True:
        sp = plan.sections[sid]
        section = structure.section(sid)
        # the canonical-order constraint applies to computation tasks
        # (AND nodes are dummy: they fire instantly, outside the queue)
        comp_order = [n for n in sp.dispatch_order
                      if graph.node(n).is_computation]
        order_pos = {name: i for i, name in enumerate(comp_order)}
        unfinished = {name: len(sp.preds_within[name])
                      for name in sp.dispatch_order}
        finishes: Dict[str, float] = {}
        # ready queue ordered by canonical dispatch position
        ready: List[Tuple[int, str]] = []
        next_expected = 0
        done = 0
        total = len(sp.dispatch_order)
        # completion events: (time, seq, task, processor)
        events: List[Tuple[float, int, str, int]] = []
        seq = 0
        now = t_section

        def complete(name: str, t: float) -> None:
            nonlocal done
            done += 1
            finishes[name] = t
            for s in graph.successors(name):
                if s in unfinished:
                    unfinished[s] -= 1
                    if unfinished[s] == 0:
                        arrive(s, t)

        def arrive(name: str, t: float) -> None:
            node = graph.node(name)
            if node.is_and:
                # dummy task: completes the instant it becomes ready
                complete(name, t)
            else:
                heapq.heappush(ready, (order_pos[name], name))

        # seed the section's entry nodes
        roots = [n for n in sp.dispatch_order if unfinished[n] == 0]
        for name in roots:
            arrive(name, t_section)

        def try_dispatch(t: float) -> None:
            """Idle processors serve the queue head if next-expected."""
            nonlocal next_expected, busy_time, overhead_time, n_changes
            nonlocal n_tasks, seq
            while ready:
                pos, name = ready[0]
                if pos != next_expected:
                    # head is not the next expected task: everyone waits
                    return
                idle = [p for p in procs if p.idle_since <= t + _EPS]
                if not idle:
                    return
                proc = min(idle, key=lambda p: (p.idle_since, p.pid))
                heapq.heappop(ready)
                next_expected = pos + 1

                node = graph.node(name)
                actual = realization.actual(name)
                c = node.wcet
                if not 0.0 <= actual <= c * (1 + 1e-9):
                    raise invalid_actual(actual, name, c)
                if fixed is not None:
                    speed = fixed
                    start_exec = t
                    changed = False
                else:
                    s_cur = proc.speed
                    t_comp = overhead.computation_time(power, s_cur)
                    avail = sp.finish_bound[name] - t - t_comp
                    denom = avail - overhead.adjust_time
                    s_req = c / denom if denom > 0 else math.inf
                    target = max(s_req, policy_run.floor(t))
                    if target > power.s_max * (1 + 1e-6):
                        raise SimulationError(
                            f"guarantee violated for {name!r} at "
                            f"t={t:.6g}")
                    speed = power.snap_up(min(target, power.s_max))
                    changed = abs(speed - s_cur) > _EPS
                    t_adj = overhead.adjust_time if changed else 0.0
                    start_exec = t + t_comp + t_adj
                    if t_comp > 0:
                        overhead_time += t_comp
                        energy.overhead += power.busy_energy(s_cur,
                                                             t_comp)
                    if changed:
                        overhead_time += t_adj
                        energy.overhead += \
                            overhead.adjustment_energy(power)
                        n_changes += 1
                        proc.speed = speed

                wall = actual / speed
                finish = start_exec + wall
                busy_time += wall
                energy.busy += power.busy_energy(speed, wall)
                proc.idle_since = math.inf  # busy until completion event
                n_tasks += 1
                seq += 1
                heapq.heappush(events, (finish, seq, name, proc.pid))
                if collect_trace:
                    trace.append(TaskRecord(
                        name=name, processor=proc.pid, start=start_exec,
                        finish=finish, speed=speed, actual_cycles=actual,
                        energy=power.busy_energy(speed, wall),
                        speed_changed=changed))

        try_dispatch(now)
        while done < total:
            if not events:
                raise SimulationError(
                    f"section {sid} stalled at t={now:.6g}: "
                    f"{total - done} nodes unfinished and no task "
                    "running")
            finish, _, name, pid = heapq.heappop(events)
            now = finish
            procs[pid].idle_since = now
            complete(name, now)
            # drain simultaneous completions before dispatching
            while events and events[0][0] <= now + 1e-15:
                f2, _, n2, p2 = heapq.heappop(events)
                procs[p2].idle_since = f2
                complete(n2, f2)
            try_dispatch(now)

        t_end = max(finishes.values(), default=t_section)
        t_end = max(t_end, t_section)

        exit_or = section.exit_or
        if exit_or is None:
            break
        branches = structure.branches(exit_or)
        if not branches:
            break
        if len(branches) == 1:
            target = branches[0][0]
        else:
            target = realization.choices[exit_or]
        path_choices[exit_or] = str(target)
        t_section = t_end
        for p in procs:
            p.idle_since = t_end  # processors synchronize at the OR
        if fixed is None:
            policy_run.on_or_fired(exit_or, target, t_end)
        sid = target

    finish_time = t_end
    if check_deadline and finish_time > deadline * (1 + 1e-9) + _EPS:
        raise DeadlineMissError(finish_time, deadline,
                                scheme=policy_run.name)
    window = m * max(deadline, finish_time)
    idle_time = window - busy_time - overhead_time
    if idle_time < -1e-6 * max(deadline, 1.0):
        raise SimulationError(f"negative idle time {idle_time}")
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
