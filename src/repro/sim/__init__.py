"""The online-phase simulator (Figure 2's protocol).

Public surface: :func:`simulate` (one run of one scheme on one
realization) and realization sampling.
"""

from .compiled import (
    CompiledKernel,
    CompiledPlan,
    DynamicBatchResult,
    FixedBatchResult,
    compile_plan,
    run_dynamic_batch,
    run_fixed_batch,
    simulate_compiled,
    supports_dynamic_batch,
)
from .engine import simulate
from .event_engine import simulate_events
from .power_trace import (
    PowerProfile,
    compare_profiles,
    power_profile,
    render_profile,
)
from .realization import (
    Realization,
    RealizationBatch,
    sample_realization,
    sample_realization_batch,
    sample_realizations,
    worst_case_realization,
)

__all__ = [
    "simulate",
    "simulate_compiled",
    "simulate_events",
    "CompiledKernel",
    "CompiledPlan",
    "DynamicBatchResult",
    "FixedBatchResult",
    "compile_plan",
    "run_dynamic_batch",
    "run_fixed_batch",
    "supports_dynamic_batch",
    "PowerProfile",
    "power_profile",
    "render_profile",
    "compare_profiles",
    "Realization",
    "RealizationBatch",
    "sample_realization",
    "sample_realization_batch",
    "sample_realizations",
    "worst_case_realization",
]
