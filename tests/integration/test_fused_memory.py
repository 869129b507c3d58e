"""Peak memory of a fused load sweep, traced with ``tracemalloc``.

A fused sweep allocates each scheme's per-run energy and switch arrays
once, over the whole run axis; the batch kernels write into them, the
dynamic kernel reuses one block workspace, and every point's result is
a view of them.  ``tracemalloc`` counts NumPy's allocations, so the
traced peak of one sweep is a property of the code, not of the host.
"""

import tracemalloc

from repro.experiments import figure5

#: traced peak, in bytes, of ``figure5(n_runs=500)`` — two fused load
#: sweeps of 10 points × 500 runs — while each kernel returned its own
#: result arrays that were then copied into place and copied again per
#: point (measured with NumPy 2.4 on CPython 3.11)
COPYING_PEAK = 5_290_600


def _traced_peak(call) -> int:
    if tracemalloc.is_tracing():  # pragma: no cover - e.g. -X tracemalloc
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fused_sweep_peak_is_a_quarter_below_copying():
    # warm the plan, program, stack and tape caches: their one-time
    # allocations are not the sweep's
    figure5(n_runs=500)
    peak = _traced_peak(lambda: figure5(n_runs=500))
    assert peak <= 0.75 * COPYING_PEAK, (
        f"traced peak {peak / 1e6:.2f} MB exceeds 0.75 x "
        f"{COPYING_PEAK / 1e6:.2f} MB")
