"""Clairvoyant single-speed oracle (extension, not in the paper).

The paper motivates the speculative schemes with the observation that "a
clairvoyant algorithm can achieve minimal energy consumption … by
running all tasks at a single speed setting if the actual running time
of every task is known".  This policy makes that single-speed schedule
concrete: it peeks at the realization, measures the makespan ``F`` of
the actual workload at maximum speed (same dispatch protocol), and then
runs the whole application at the one level that stretches ``F`` to the
deadline:

.. math:: S_{oracle} = \\mathrm{snap\\_up}(F / (D - t_{adj}))

It is *not realizable* (it needs future knowledge).  It is a clairvoyant
single-speed *reference*, not a lower bound: one snapped level loses to
a two-level mix, and a uniform stretch loses to per-task speeds once
processors idle off the critical path, so GSS/SS/AS can and do use less
energy on some realizations (ROADMAP, "Make the bounds bounds").
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from ..offline.plan import OfflinePlan
from ..power.model import PowerModel
from ..power.overhead import NO_OVERHEAD, OverheadModel
from ..sim.engine import simulate
from ..sim.realization import Realization
from .base import PolicyRun, SpeedPolicy, _FixedRun


class ClairvoyantOracle(SpeedPolicy):
    """Single-speed schedule computed from the realization (a reference,
    not a lower bound)."""

    name = "ORACLE"
    requires_reserve = False
    needs_realization = True  # the peeked realization sets the speed

    def start_run(self, plan: OfflinePlan, power: PowerModel,
                  overhead: OverheadModel,
                  realization: Optional[Realization] = None) -> PolicyRun:
        if realization is None:
            raise SimulationError(
                "the clairvoyant oracle needs the realization up front")
        probe = simulate(plan, _FixedRun("ORACLE-probe", power.s_max),
                         power, NO_OVERHEAD, realization,
                         check_deadline=False)
        horizon = plan.deadline - overhead.adjust_time
        if horizon <= 0 or probe.finish_time >= horizon:
            return _FixedRun(self.name, power.s_max)
        speed = power.snap_up(min(probe.finish_time / horizon, power.s_max))
        return _FixedRun(self.name, speed)
