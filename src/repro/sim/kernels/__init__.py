"""The batch simulation kernels and their tape form.

`repro.sim.compiled` exposes two batch entry points —
``run_fixed_batch`` and ``run_dynamic_batch`` — implemented once, in
:mod:`.interp`, over a program lowered to flat arrays (:mod:`.tape`).
Both are pinned bit-identical to the dict engine by the golden suites.
"""

from __future__ import annotations

from typing import Dict

from .tape import (  # noqa: F401  (re-exported)
    ProgramTape,
    SectionTape,
    build_tape,
    clear_tape_cache,
    tape_cache_stats,
)


def kernel_meta() -> Dict[str, object]:
    """Observability snapshot for ``series.meta["kernel"]``: the
    compile-side cache counters."""
    from ..compiled import program_cache_stats
    from ..sweepc import stacked_cache_stats

    return {
        "program_cache": program_cache_stats(),
        "tape_cache": tape_cache_stats(),
        "stacked_cache": stacked_cache_stats(),
    }
