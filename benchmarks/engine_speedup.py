"""Before/after wall-clock numbers for the Monte-Carlo evaluation engine.

Times one Figure-5-style Monte-Carlo point (ATR, dual-processor, load
0.8, Transmeta) and writes the numbers to ``BENCH_engine.json`` so CI
and EXPERIMENTS.md can track the engine's throughput over time:

1. **dict kernel** — ``_simulate_runs`` (the reference string-keyed
   engine) on prebuilt plans and a presampled realization batch;
2. **compiled kernel** — ``fused.evaluate_batch`` (the integer-
   indexed section program and its tape-interpreted batch kernels) on
   the same plans and batch, verified bit-identical;
3. **evaluation** — one plain ``evaluate_application`` call at
   ``--runs`` (plans, sampling and the compiled kernels end to end).

The kernel comparison is serial and single-point on purpose: it
isolates the per-run simulation cost from sampling and plan building,
which is the quantity the compiled engine optimizes.

Usage::

    PYTHONPATH=src python benchmarks/engine_speedup.py \
        [--runs 200] [--load 0.8] [--out BENCH_engine.json] \
        [--budget-seconds 0] [--min-kernel-speedup 0]

``--budget-seconds`` (> 0) fails the invocation if the evaluation
exceeds the budget — the CI smoke guard against perf regressions.
``--min-kernel-speedup`` (> 0) requires the compiled kernel to beat the
dict kernel by at least that factor — CI runs it at 1.0 so a regression
that makes the default engine *slower* than the reference engine fails
the build.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _common import best_of, effective_cores, peak_rss_mb, write_record
from repro.core.registry import get_policy
from repro.experiments import RunConfig, evaluate_application
from repro.experiments.figures import ATR_ALPHA
from repro.experiments.fused import evaluate_batch
from repro.experiments.runner import _simulate_runs, build_plans
from repro.sim.realization import sample_realization_batch
from repro.workloads import AtrConfig, application_with_load, atr_graph


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--load", type=float, default=0.8)
    ap.add_argument("--procs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=2002)
    ap.add_argument("--reps", type=int, default=3,
                    help="kernel timing repetitions (best-of)")
    ap.add_argument("--out", type=str, default="BENCH_engine.json")
    ap.add_argument("--budget-seconds", type=float, default=0.0)
    ap.add_argument("--min-kernel-speedup", type=float, default=0.0)
    args = ap.parse_args(argv)

    graph = atr_graph(AtrConfig(alpha=ATR_ALPHA))
    app = application_with_load(graph, args.load, args.procs)
    cfg = RunConfig(power_model="transmeta", n_processors=args.procs,
                    n_runs=args.runs, seed=args.seed)

    # -- per-run kernel comparison (serial, single point) -------------------
    power = cfg.make_power()
    plan_dyn, plan_static = build_plans(app, cfg, power)
    scheme_names = tuple(get_policy(n).name for n in cfg.schemes)
    rng = np.random.default_rng(cfg.seed)
    batch = sample_realization_batch(plan_static.structure, rng, args.runs,
                                     sigma_fraction=cfg.sigma_fraction)

    def dict_kernel():
        return _simulate_runs(plan_dyn, plan_static, scheme_names, power,
                              cfg.overhead, batch)

    def compiled_kernel():
        return evaluate_batch(plan_dyn, plan_static, scheme_names, power,
                              cfg.overhead, batch)

    d_npm, d_abs, _, _, d_keys = dict_kernel()   # warm-up + reference
    c_npm, c_abs, _, _, c_keys = compiled_kernel()  # warm-up + check
    assert d_keys == c_keys, "compiled kernel diverged on path keys"
    assert np.array_equal(d_npm, c_npm), "compiled kernel diverged on NPM"
    for scheme in d_abs:
        assert np.array_equal(d_abs[scheme], c_abs[scheme]), \
            f"compiled kernel diverged for {scheme}"

    t_dict = best_of(dict_kernel, args.reps)
    t_compiled = best_of(compiled_kernel, args.reps)
    kernel_speedup = t_dict / t_compiled if t_compiled > 0 else float("inf")

    # -- one plain evaluation, end to end -----------------------------------
    t0 = time.perf_counter()
    result = evaluate_application(app, cfg)
    t_eval = time.perf_counter() - t0
    assert result.path_keys == d_keys, "evaluation diverged on path keys"
    for scheme in d_abs:
        assert np.array_equal(result.absolute[scheme], d_abs[scheme]), \
            f"evaluation diverged for {scheme}"

    record = {
        "benchmark": "engine_speedup",
        "n_runs": args.runs,
        "load": args.load,
        "n_processors": args.procs,
        "cores": effective_cores(),
        "dict_kernel_seconds": round(t_dict, 4),
        "compiled_kernel_seconds": round(t_compiled, 4),
        "dict_us_per_run": round(t_dict / args.runs * 1e6, 1),
        "compiled_us_per_run": round(t_compiled / args.runs * 1e6, 1),
        "kernel_speedup": round(kernel_speedup, 3),
        "serial_seconds": round(t_eval, 4),
        "peak_rss_mb": peak_rss_mb(),
        "bit_identical": True,
    }
    write_record(record, args.out)

    print(f"engine_speedup: {args.runs} runs, load={args.load}, "
          f"m={args.procs}")
    print(f"  dict kernel     {t_dict:8.4f} s "
          f"({t_dict / args.runs * 1e6:7.1f} us/run)")
    print(f"  compiled kernel {t_compiled:8.4f} s "
          f"({t_compiled / args.runs * 1e6:7.1f} us/run)")
    print(f"  kernel speedup  {kernel_speedup:8.2f} x  (dict -> compiled)")
    print(f"  evaluation      {t_eval:8.3f} s  ({args.runs} runs)  "
          f"-> {args.out}")

    if args.budget_seconds > 0 and t_eval > args.budget_seconds:
        print(f"FAIL: evaluation took {t_eval:.1f}s "
              f"(budget {args.budget_seconds:.1f}s)", file=sys.stderr)
        return 1
    if args.min_kernel_speedup > 0 and kernel_speedup < args.min_kernel_speedup:
        print(f"FAIL: compiled kernel speedup {kernel_speedup:.2f}x below "
              f"required {args.min_kernel_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
