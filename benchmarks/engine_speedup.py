"""Before/after wall-clock numbers for the Monte-Carlo evaluation engine.

Times one Figure-5-style Monte-Carlo point (ATR, dual-processor, load
0.8, Transmeta) three ways and writes the numbers to
``BENCH_engine.json`` so CI and EXPERIMENTS.md can track the engine's
throughput over time:

1. **dict kernel** — ``_simulate_runs`` (the reference string-keyed
   engine) on prebuilt plans and a presampled realization batch;
2. **compiled kernel** — ``_simulate_runs_compiled`` (the integer-
   indexed section program and its tape-interpreted batch kernels) on
   the same plans and batch, verified bit-identical;
3. **pool (small)** — ``evaluate_application`` sequential vs a
   default-config multi-worker request at ``--runs``, verified
   bit-identical.  Since run-level pooling became opt-in
   (``RunConfig.run_level_pool``), the default request is *demoted to
   serial* — ``speedup_small`` records the ratio and must sit at ~1.0;
4. **pool (large)** — the same comparison at ``--large-runs``
   (default: ``parallel_min_runs``).  ``speedup_large`` is the
   default-path ratio that ``--min-speedup`` gates: after the run-level
   pool regression fix it must never drop below 1.0 (the historical bug
   was a 0.11x *slowdown* here, because compiled kernels at ~15-30 us
   per run are ~9x faster than the per-chunk pickling they were chunked
   behind).  ``speedup_large_pooled`` records the same point with the
   legacy pool explicitly opted in (``run_level_pool=True``) so the
   chunked path stays measured without gating the default.

The kernel comparison is serial and single-point on purpose: it
isolates the per-run simulation cost from sampling, plan building and
pool plumbing, which is the quantity the compiled engine optimizes.

Usage::

    PYTHONPATH=src python benchmarks/engine_speedup.py \
        [--runs 200] [--jobs 0] [--load 0.8] [--out BENCH_engine.json] \
        [--budget-seconds 0] [--min-speedup 0] [--min-kernel-speedup 0]

``--budget-seconds`` (> 0) fails the invocation if the *sequential*
small-point evaluation exceeds the budget — the CI smoke guard against
perf regressions in the dispatch loop.  ``--min-speedup`` (> 0)
requires ``speedup_large >= min-speedup`` up to 5% timing noise (the
demoted default path is two timings of the same serial work, so the
ratio hovers around 1.0).  ``--min-kernel-speedup`` (> 0) requires the
compiled kernel to beat the dict kernel by at least that factor — CI
runs it at 1.0 so a regression that makes the default engine *slower*
than the reference engine fails the build.
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
from repro.experiments.runner import (
    _simulate_runs,
    _simulate_runs_compiled,
    build_plans,
)
from repro.sim.realization import sample_realization_batch
from repro.workloads import AtrConfig, application_with_load, atr_graph


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--large-runs", type=int, default=0, dest="large_runs",
                    help="run count for the pool-engaged timing "
                         "(0 = parallel_min_runs, the smallest batch "
                         "that does not fall back to serial)")
    ap.add_argument("--jobs", type=int, default=0,
                    help="pooled worker count (0 = all cores)")
    ap.add_argument("--runs-per-chunk", type=int, default=0)
    ap.add_argument("--load", type=float, default=0.8)
    ap.add_argument("--procs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=2002)
    ap.add_argument("--reps", type=int, default=3,
                    help="kernel timing repetitions (best-of)")
    ap.add_argument("--out", type=str, default="BENCH_engine.json")
    ap.add_argument("--budget-seconds", type=float, default=0.0)
    ap.add_argument("--min-speedup", type=float, default=0.0)
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
        return _simulate_runs_compiled(plan_dyn, plan_static, scheme_names,
                                       power, cfg.overhead, batch)

    d_npm, d_abs, _, d_keys = dict_kernel()   # warm-up + reference output
    c_npm, c_abs, _, c_keys = compiled_kernel()  # warm-up + check
    assert d_keys == c_keys, "compiled kernel diverged on path keys"
    assert np.array_equal(d_npm, c_npm), "compiled kernel diverged on NPM"
    for scheme in d_abs:
        assert np.array_equal(d_abs[scheme], c_abs[scheme]), \
            f"compiled kernel diverged for {scheme}"

    t_dict = best_of(dict_kernel, args.reps)
    t_compiled = best_of(compiled_kernel, args.reps)
    kernel_speedup = t_dict / t_compiled if t_compiled > 0 else float("inf")

    # -- serial vs default multi-worker request (demoted to serial) ---------
    t0 = time.perf_counter()
    serial = evaluate_application(app, cfg, n_jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = evaluate_application(app, cfg, n_jobs=args.jobs,
                                  runs_per_chunk=args.runs_per_chunk)
    t_pooled = time.perf_counter() - t0

    for scheme in serial.normalized:
        assert np.array_equal(serial.normalized[scheme],
                              pooled.normalized[scheme]), \
            f"pooled result diverged for {scheme}"
    assert serial.path_keys == pooled.path_keys

    speedup_small = t_serial / t_pooled if t_pooled > 0 else float("inf")

    # -- the gated large batch: default path, pool demoted ------------------
    large_runs = args.large_runs or max(cfg.parallel_min_runs, 1)
    # clamp the fallback threshold so an opted-in pool would engage here
    cfg_large = cfg.with_(
        n_runs=large_runs,
        parallel_min_runs=min(cfg.parallel_min_runs, large_runs))
    t0 = time.perf_counter()
    serial_large = evaluate_application(app, cfg_large, n_jobs=1)
    t_serial_large = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled_large = evaluate_application(app, cfg_large, n_jobs=args.jobs,
                                        runs_per_chunk=args.runs_per_chunk)
    t_pooled_large = time.perf_counter() - t0

    for scheme in serial_large.normalized:
        assert np.array_equal(serial_large.normalized[scheme],
                              pooled_large.normalized[scheme]), \
            f"pooled large-batch result diverged for {scheme}"
    assert serial_large.path_keys == pooled_large.path_keys

    speedup_large = (t_serial_large / t_pooled_large
                     if t_pooled_large > 0 else float("inf"))

    # -- the legacy chunked pool, explicitly opted in -----------------------
    # kept measured (not gated) so the chunked path's cost stays visible
    cfg_opted = cfg_large.with_(run_level_pool=True)
    t0 = time.perf_counter()
    opted_large = evaluate_application(app, cfg_opted, n_jobs=args.jobs,
                                       runs_per_chunk=args.runs_per_chunk)
    t_opted_large = time.perf_counter() - t0

    for scheme in serial_large.normalized:
        assert np.array_equal(serial_large.normalized[scheme],
                              opted_large.normalized[scheme]), \
            f"opted-in pooled result diverged for {scheme}"
    assert serial_large.path_keys == opted_large.path_keys

    speedup_large_pooled = (t_serial_large / t_opted_large
                            if t_opted_large > 0 else float("inf"))
    record = {
        "benchmark": "engine_speedup",
        "n_runs": args.runs,
        "load": args.load,
        "n_processors": args.procs,
        "cores": effective_cores(),
        "jobs": args.jobs,
        "dict_kernel_seconds": round(t_dict, 4),
        "compiled_kernel_seconds": round(t_compiled, 4),
        "dict_us_per_run": round(t_dict / args.runs * 1e6, 1),
        "compiled_us_per_run": round(t_compiled / args.runs * 1e6, 1),
        "kernel_speedup": round(kernel_speedup, 3),
        "serial_seconds": round(t_serial, 4),
        "parallel_seconds": round(t_pooled, 4),
        "speedup_small": round(speedup_small, 3),
        "large_runs": large_runs,
        "serial_seconds_large": round(t_serial_large, 4),
        "parallel_seconds_large": round(t_pooled_large, 4),
        "speedup_large": round(speedup_large, 3),
        "pooled_seconds_large": round(t_opted_large, 4),
        "speedup_large_pooled": round(speedup_large_pooled, 3),
        "run_level_pool_default": False,
        "parallel_min_runs": cfg.parallel_min_runs,
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
    print(f"  serial eval     {t_serial:8.3f} s  ({args.runs} runs)")
    print(f"  default eval    {t_pooled:8.3f} s  (jobs={args.jobs}, "
          f"cores={effective_cores()}, pool demoted)")
    print(f"  default speedup {speedup_small:8.2f} x  (small batch)")
    print(f"  serial eval     {t_serial_large:8.3f} s  ({large_runs} runs)")
    print(f"  default eval    {t_pooled_large:8.3f} s  (pool demoted)")
    print(f"  default speedup {speedup_large:8.2f} x  (large batch)")
    print(f"  opted-in pool   {t_opted_large:8.3f} s  "
          f"({speedup_large_pooled:.2f} x, run_level_pool=True)  "
          f"-> {args.out}")

    if args.budget_seconds > 0 and t_serial > args.budget_seconds:
        print(f"FAIL: sequential point took {t_serial:.1f}s "
              f"(budget {args.budget_seconds:.1f}s)", file=sys.stderr)
        return 1
    # 5% tolerance: the demoted path times the same serial work twice,
    # so the honest ratio sits at 1.0 +/- scheduler noise
    if args.min_speedup > 0 and speedup_large < args.min_speedup * 0.95:
        print(f"FAIL: large-batch speedup {speedup_large:.2f}x below "
              f"required {args.min_speedup:.2f}x (with 5% tolerance)",
              file=sys.stderr)
        return 1
    if args.min_kernel_speedup > 0 and kernel_speedup < args.min_kernel_speedup:
        print(f"FAIL: compiled kernel speedup {kernel_speedup:.2f}x below "
              f"required {args.min_kernel_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
