"""Processor power/speed models.

The paper assumes dynamic power dominates:

.. math:: P_d = C_{ef} \\, V_{dd}^2 \\, f

with speed (clock frequency) almost linear in supply voltage.  We
normalize: speed ``1.0`` is the maximum frequency, power ``1.0`` is the
dynamic power at the top voltage/frequency level.  A task that needs
``c`` time units at maximum speed takes ``c / s`` wall-clock units at
speed ``s`` and consumes ``v(s)^2 * c`` energy units — quadratic energy
savings for a linear slowdown, exactly the relation in Section 2.3.

Two families:

* :class:`ContinuousPowerModel` — idealized infinite levels with
  ``V ∝ f`` (used for sanity baselines and ablations).
* :class:`DiscretePowerModel` — a finite voltage/frequency table
  (Transmeta TM5400 or Intel XScale); speeds snap **up** to the next
  level so deadlines are never endangered by quantization.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import PowerModelError
from .tables import INTEL_XSCALE, TRANSMETA_TM5400, FreqVolt, normalized_levels

#: Idle power as a fraction of maximum power (the paper assumes "an idle
#: processor consumes 5% of the maximal power level").
DEFAULT_IDLE_FRACTION = 0.05


class PowerModel:
    """Common interface of continuous and discrete power models."""

    #: human-readable name used in reports
    name: str = "abstract"
    #: maximum frequency in MHz (to convert cycle counts to time units)
    f_max_mhz: float = 1.0
    #: idle power as fraction of max power
    idle_fraction: float = DEFAULT_IDLE_FRACTION

    # -- speed quantization -------------------------------------------------
    @property
    def s_min(self) -> float:
        raise NotImplementedError

    @property
    def s_max(self) -> float:
        return 1.0

    def snap_up(self, speed: float) -> float:
        """Lowest available speed >= ``speed`` (clamped to [s_min, s_max])."""
        raise NotImplementedError

    def bracket(self, speed: float) -> Tuple[float, float]:
        """Adjacent available speeds ``(f_lo, f_hi)`` with f_lo <= speed <= f_hi."""
        raise NotImplementedError

    def levels(self) -> Tuple[float, ...]:
        """All available speeds, ascending (continuous models return ())."""
        raise NotImplementedError

    # -- power --------------------------------------------------------------
    def voltage_ratio(self, speed: float) -> float:
        """Supply voltage at ``speed`` as a fraction of the top voltage."""
        raise NotImplementedError

    def power(self, speed: float) -> float:
        """Dynamic power at ``speed`` as a fraction of maximum power."""
        v = self.voltage_ratio(speed)
        return v * v * speed

    @property
    def idle_power(self) -> float:
        return self.idle_fraction

    # -- energy helpers -----------------------------------------------------
    def busy_energy(self, speed: float, wall_time: float) -> float:
        """Energy of executing for ``wall_time`` at ``speed``."""
        if wall_time < 0:
            raise PowerModelError(f"negative wall time {wall_time}")
        return self.power(speed) * wall_time

    def task_energy(self, speed: float, work_at_max: float) -> float:
        """Energy of ``work_at_max`` time-units-at-S_max of work run at ``speed``."""
        if speed <= 0:
            raise PowerModelError(f"non-positive speed {speed}")
        return self.busy_energy(speed, work_at_max / speed)

    def idle_energy(self, wall_time: float) -> float:
        if wall_time < -1e-9:
            raise PowerModelError(f"negative idle time {wall_time}")
        return self.idle_power * max(wall_time, 0.0)

    def cycles_to_time(self, cycles: float, speed: float = 1.0) -> float:
        """Convert a cycle count to wall-clock time units at ``speed``.

        One time unit is 1 µs when frequencies are in MHz, so ``cycles``
        at the maximum frequency take ``cycles / f_max_mhz`` time units.
        """
        if speed <= 0:
            raise PowerModelError(f"non-positive speed {speed}")
        return cycles / self.f_max_mhz / speed

    # -- vectorized tables --------------------------------------------------
    def power_table(self, speeds) -> np.ndarray:
        """Power at each of ``speeds`` as a read-only float array.

        The batch kernels used to rebuild this with a per-call list
        comprehension; it is now cached on the model instance, keyed by
        the speed vector's bytes (a sweep reuses a handful of distinct
        vectors, so the cache stays small).  Entries go through the
        scalar :meth:`power`, so every value is the exact float the
        scalar engine uses.
        """
        cache = self.__dict__.setdefault("_power_tables", {})
        arr_speeds = np.asarray(speeds, dtype=np.float64)
        key = arr_speeds.tobytes()
        table = cache.get(key)
        if table is None:
            table = np.array([self.power(float(s)) for s in arr_speeds])
            table.setflags(write=False)
            cache[key] = table
        return table


class ContinuousPowerModel(PowerModel):
    """Idealized model: any speed in ``[s_min, 1]``, voltage ∝ frequency.

    With ``V ∝ f``, power is cubic in speed and the energy of a fixed
    amount of work is quadratic in speed — the textbook DVS model.
    """

    name = "continuous"

    def __init__(self, s_min: float = 0.0, f_max_mhz: float = 1000.0,
                 idle_fraction: float = DEFAULT_IDLE_FRACTION):
        if not (0.0 <= s_min < 1.0):
            raise PowerModelError(f"s_min must be in [0, 1), got {s_min}")
        if f_max_mhz <= 0:
            raise PowerModelError(f"f_max_mhz must be positive, got {f_max_mhz}")
        if not (0.0 <= idle_fraction <= 1.0):
            raise PowerModelError(
                f"idle_fraction must be in [0, 1], got {idle_fraction}")
        self._s_min = s_min
        self.f_max_mhz = f_max_mhz
        self.idle_fraction = idle_fraction

    @property
    def s_min(self) -> float:
        return self._s_min

    def snap_up(self, speed: float) -> float:
        return min(max(speed, self._s_min if self._s_min > 0 else 1e-9), 1.0)

    def bracket(self, speed: float) -> Tuple[float, float]:
        s = self.snap_up(speed)
        return (s, s)

    def levels(self) -> Tuple[float, ...]:
        return ()

    def voltage_ratio(self, speed: float) -> float:
        if speed < 0 or speed > 1 + 1e-12:
            raise PowerModelError(f"speed {speed} outside [0, 1]")
        return speed


class DiscretePowerModel(PowerModel):
    """A processor with a finite voltage/frequency table.

    Speeds requested between levels snap up to the next level; the
    voltage of each level comes from the table, so power/energy reflect
    the *real* (non-linear) voltage/frequency relation the paper uses.
    """

    def __init__(self, table: Sequence[FreqVolt], name: str = "discrete",
                 idle_fraction: float = DEFAULT_IDLE_FRACTION):
        table = list(table)
        if len(table) < 2:
            raise PowerModelError("need at least two voltage/frequency levels")
        freqs = [f for f, _ in table]
        if len(set(freqs)) != len(freqs):
            raise PowerModelError("duplicate frequencies in level table")
        if any(f <= 0 for f, _ in table) or any(v <= 0 for _, v in table):
            raise PowerModelError("frequencies and voltages must be positive")
        pairs = sorted(table)
        volts = [v for _, v in pairs]
        if any(v2 < v1 for v1, v2 in zip(volts, volts[1:])):
            raise PowerModelError("voltage must be non-decreasing in frequency")
        if not (0.0 <= idle_fraction <= 1.0):
            raise PowerModelError(
                f"idle_fraction must be in [0, 1], got {idle_fraction}")
        self.name = name
        self.table = pairs
        self.f_max_mhz = pairs[-1][0]
        self.idle_fraction = idle_fraction
        norm = normalized_levels(pairs)
        # level_index and the batch kernels' index-based switch test
        # both resolve speeds to levels within 1e-9
        for (f1, _), (f2, _), (s1, _), (s2, _) in zip(
                pairs, pairs[1:], norm, norm[1:]):
            if s2 - s1 <= 1e-9:
                raise PowerModelError(
                    f"frequencies {f1} and {f2} MHz normalize to speeds "
                    f"within 1e-9 of each other")
        self._speeds: List[float] = [s for s, _ in norm]
        self._vratio: List[float] = [v for _, v in norm]
        # power lookup is the simulator's hottest call (profiled: the
        # bisect in level_index dominated); exact level speeds hit the
        # dict, anything else falls back to snap-up + dict
        self._power_by_speed: Dict[float, float] = {
            s: v * v * s for s, v in zip(self._speeds, self._vratio)}

    @property
    def s_min(self) -> float:
        return self._speeds[0]

    def levels(self) -> Tuple[float, ...]:
        return tuple(self._speeds)

    def level_index(self, speed: float) -> int:
        """Index of the level whose speed equals ``speed`` (within fp noise)."""
        i = bisect.bisect_left(self._speeds, speed - 1e-12)
        if i >= len(self._speeds) or abs(self._speeds[i] - speed) > 1e-9:
            raise PowerModelError(f"{speed} is not an available level")
        return i

    def snap_up(self, speed: float) -> float:
        if speed <= self._speeds[0]:
            return self._speeds[0]
        if speed >= self._speeds[-1] - 1e-12:
            return self._speeds[-1]
        i = bisect.bisect_left(self._speeds, speed - 1e-12)
        return self._speeds[i]

    def bracket(self, speed: float) -> Tuple[float, float]:
        hi = self.snap_up(speed)
        i = self.level_index(hi)
        lo = self._speeds[max(i - 1, 0)]
        if lo > speed:  # speed below s_min: both ends clamp to s_min
            lo = hi
        return (lo, hi)

    def voltage_ratio(self, speed: float) -> float:
        i = self.level_index(speed)
        return self._vratio[i]

    def power(self, speed: float) -> float:
        # snapping here keeps callers honest: only level speeds draw power
        p = self._power_by_speed.get(speed)
        if p is not None:
            return p
        return self._power_by_speed[self.snap_up(speed)]

    def level_speed_table(self) -> np.ndarray:
        """The level speeds as a read-only ascending float array (the
        vector counterpart of :meth:`levels`, cached on the instance)."""
        table = self.__dict__.get("_level_speed_table")
        if table is None:
            table = np.asarray(self._speeds, dtype=np.float64)
            table.setflags(write=False)
            self._level_speed_table = table
        return table

    def snap_thresholds(self) -> np.ndarray:
        """The snap-up thresholds of every level but the top one, as a
        read-only float array (the vector counterpart of
        :meth:`snap_up`, cached on the instance).

        Threshold ``X[i]`` is the largest double ``x`` with
        ``x - 1e-12 <= levels[i]`` in floating point.  Subtraction is
        monotone, so for every double ``t`` (``±inf`` included)
        ``n_levels - 1 - count(X >= t)`` equals
        ``levels[:-1].searchsorted(t - 1e-12, side="left")``, the index
        of ``snap_up(min(t, s_max))``; a NaN compares false everywhere
        and lands on the top level, as it does in the search.
        """
        table = self.__dict__.get("_snap_thresholds")
        if table is None:
            xs = []
            for level in self._speeds[:-1]:
                x = level + 1e-12
                while x - 1e-12 > level:
                    x = math.nextafter(x, -math.inf)
                while math.nextafter(x, math.inf) - 1e-12 <= level:
                    x = math.nextafter(x, math.inf)
                xs.append(x)
            table = np.asarray(xs, dtype=np.float64)
            table.setflags(write=False)
            self._snap_thresholds = table
        return table

    def level_power_table(self) -> np.ndarray:
        """Power draw at each level, cached (see :meth:`power_table`)."""
        return self.power_table(self._speeds)


def transmeta_model(idle_fraction: float = DEFAULT_IDLE_FRACTION) -> DiscretePowerModel:
    """The paper's Table 1 processor (Transmeta TM5400, 16 levels)."""
    return DiscretePowerModel(TRANSMETA_TM5400, name="transmeta",
                              idle_fraction=idle_fraction)


def xscale_model(idle_fraction: float = DEFAULT_IDLE_FRACTION) -> DiscretePowerModel:
    """The paper's Table 2 processor (Intel XScale, 5 levels)."""
    return DiscretePowerModel(INTEL_XSCALE, name="xscale",
                              idle_fraction=idle_fraction)


_NAMED = {
    "transmeta": transmeta_model,
    "xscale": xscale_model,
}

#: every name :func:`make_power_model` accepts (case-insensitively)
POWER_MODEL_NAMES = tuple(_NAMED) + ("continuous",)


def make_power_model(name: str, **kwargs) -> PowerModel:
    """Build a power model by name (``transmeta``, ``xscale``, ``continuous``)."""
    key = name.lower()
    if key == "continuous":
        return ContinuousPowerModel(**kwargs)
    try:
        return _NAMED[key](**kwargs)
    except KeyError:
        raise PowerModelError(
            f"unknown power model {name!r}; choose from "
            f"{list(POWER_MODEL_NAMES)}") from None
