"""The batch simulation kernels and their tape form.

`repro.sim.compiled` exposes two batch entry points —
``run_fixed_batch`` and ``run_dynamic_batch`` — implemented once, in
:mod:`.interp`, over a program lowered to flat arrays (:mod:`.tape`).
Both are pinned bit-identical to the dict engine by the golden suites.
"""

from __future__ import annotations

from .tape import (  # noqa: F401  (re-exported)
    ProgramTape,
    SectionTape,
    build_tape,
    clear_tape_cache,
    tape_cache_stats,
)

