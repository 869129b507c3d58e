"""The CPU cores this process may use.

One definition for both parallelism levels: the batch kernels
(:mod:`repro.sim.kernels.interp`) size their in-process threads with
it, and the experiment engine (:mod:`repro.experiments.engine`) its
process pools.
"""

from __future__ import annotations

import os


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
