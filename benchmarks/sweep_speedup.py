"""Sweep-scale execution-engine benchmark: fused vs point pool vs cache.

Times the same Figure-5-shaped load sweep (widened ATR graph, six
processors) three ways and emits ``BENCH_sweep.json``:

1. **fused** — the default engine: the whole sweep is stacked into one
   array program (:mod:`repro.sim.sweepc`) and executed in the parent
   without a single worker pool;
2. **warm** — the point-level pool (``fused=False``): one point per
   task on one persistent
   :class:`~repro.experiments.ExecutionContext` shared across all
   points, so pool spin-up is paid once for the whole sweep.  An
   :class:`~repro.experiments.EvaluationCache` in a scratch directory
   is attached, so this pass also populates the on-disk cache (the
   ``put`` cost is charged to the warm timing, as in real use);
3. **cache** — the identical sweep re-run against the now-populated
   cache: every point is served from disk without touching a pool.

A fourth **fused_shard** section times the sharded fused path at a
larger run count (``--shard-runs``): the same sweep executed
monolithically in one process versus split into ``--shards``
seed-aligned run-range shards (0 = auto: one per schedulable core,
raised to fit ``--shard-mem-mb``) on a warmed worker pool.
``shard_speedup`` is monolithic/sharded; both passes are asserted
bit-identical and the record carries the resolved shard count,
transport and the high-water RSS of the parent and its pool workers.
On a single-core host auto-sharding correctly resolves to one shard
(the monolithic pass), so the ratio sits at ~1.0 by construction.

All passes are asserted bit-identical to the fused pass point by point
before any timing is reported — a speedup that changes results is a
bug, not a feature — and the fused pass is asserted to create **zero**
pools.

``--budget-seconds`` (> 0) fails the invocation if the *warm* sweep
exceeds the budget.  ``--min-cache-speedup`` (> 0) gates
``cache_speedup`` (warm over cache).  ``--min-fused-speedup`` (> 0)
gates ``fused_vs_warm_speedup`` — the headline number: the fused array
program must beat the point-level pool on a persistent context.
``--min-shard-speedup`` (> 0) gates ``shard_speedup`` with the usual
5% timing-noise tolerance.  CI smoke runs both at 1.0.

Run from the repo root::

    PYTHONPATH=src python benchmarks/sweep_speedup.py
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from _common import (
    FIG5_ATR,
    assert_series_equal,
    effective_cores,
    peak_rss_mb,
    write_record,
)
from repro.experiments import (EvaluationCache, ExecutionContext, RunConfig,
                               sweep_load)
from repro.workloads import AtrConfig, atr_graph


def _warm_task(x):
    """Pool warm-up no-op: spin the workers up outside the timing."""
    return x


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=10,
                    help="number of load-sweep points (grid 0.1..1.0)")
    ap.add_argument("--runs", type=int, default=120,
                    help="Monte-Carlo runs per point")
    ap.add_argument("--jobs", type=int, default=4,
                    help="worker count of the point-level pool")
    ap.add_argument("--procs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=2002)
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--out", default="BENCH_sweep.json")
    ap.add_argument("--budget-seconds", type=float, default=0.0,
                    dest="budget_seconds")
    ap.add_argument("--min-cache-speedup", type=float, default=0.0,
                    dest="min_cache_speedup")
    ap.add_argument("--min-fused-speedup", type=float, default=0.0,
                    dest="min_fused_speedup",
                    help="required fused-vs-warm speedup (0 = no gate)")
    ap.add_argument("--shards", type=int, default=0,
                    help="shard count for the fused_shard section "
                         "(0 = auto: one per schedulable core)")
    ap.add_argument("--shard-runs", type=int, default=360,
                    dest="shard_runs",
                    help="Monte-Carlo runs per point for the "
                         "fused_shard section (larger than --runs so "
                         "the fan-out has work to amortize against)")
    ap.add_argument("--shard-mem-mb", type=int, default=0,
                    dest="shard_mem_mb",
                    help="per-shard memory budget for auto shard "
                         "selection (0 = unbudgeted)")
    ap.add_argument("--min-shard-speedup", type=float, default=0.0,
                    dest="min_shard_speedup",
                    help="required monolithic-vs-sharded speedup "
                         "(0 = no gate; 5%% timing-noise tolerance)")
    args = ap.parse_args(argv)
    if args.points < 1:
        ap.error("--points must be >= 1")

    graph = atr_graph(AtrConfig(alpha=args.alpha, **FIG5_ATR))
    loads = [round(0.1 + 0.9 * i / max(args.points - 1, 1), 4)
             for i in range(args.points)]
    cfg = RunConfig(n_runs=args.runs, seed=args.seed,
                    n_processors=args.procs, engine="compiled")

    print(f"sweep_speedup: {args.points} points x {args.runs} runs, "
          f"m={args.procs}, jobs={args.jobs}, cores={effective_cores()}")

    with ExecutionContext(n_jobs=1) as ctx:
        t0 = time.perf_counter()
        series_fused = sweep_load(graph, cfg, loads, context=ctx)
        t_fused = time.perf_counter() - t0
        fused_pools = ctx.pools_created
    assert fused_pools == 0, \
        f"fused sweep engaged {fused_pools} pool(s); it must use none"
    print(f"  fused (one array program){t_fused:8.3f} s  (pools: 0)")

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = EvaluationCache(tmp)
        with ExecutionContext(n_jobs=args.jobs, cache=cache) as ctx:
            t0 = time.perf_counter()
            series_warm = sweep_load(graph, cfg, loads, context=ctx,
                                     fused=False)
            t_warm = time.perf_counter() - t0
            pools_created = ctx.pools_created
        print(f"  warm  (point-level pool) {t_warm:8.3f} s  "
              f"(pools created: {pools_created})")

        before = cache.stats()
        with ExecutionContext(n_jobs=args.jobs, cache=cache) as ctx:
            t0 = time.perf_counter()
            series_hit = sweep_load(graph, cfg, loads, context=ctx,
                                    fused=False)
            t_hit = time.perf_counter() - t0
            stats = {k: ctx.cache_stats()[k] - before[k] for k in before}
        print(f"  cache (hits from disk)   {t_hit:8.3f} s  "
              f"({stats['hits']} hits / {stats['misses']} misses)")
        assert stats["hits"] >= args.points, \
            "cache pass did not hit on every sweep point"

    # -- fused_shard: the sharded fused path at a larger run count ----------
    cfg_shard_scale = cfg.with_(n_runs=args.shard_runs)
    rss_before_shards = peak_rss_mb()
    with ExecutionContext(n_jobs=1) as ctx:
        t0 = time.perf_counter()
        series_mono = sweep_load(graph, cfg_shard_scale, loads, context=ctx)
        t_mono = time.perf_counter() - t0
    rss_mono = peak_rss_mb()
    print(f"  mono  ({args.shard_runs} runs, 1 proc) {t_mono:8.3f} s")

    shard_request = args.shards if args.shards > 0 else effective_cores()
    pool_jobs = max(1, min(shard_request, args.shard_runs))
    cfg_sharded = cfg_shard_scale.with_(shards=args.shards or 0,
                                        shard_mem_mb=args.shard_mem_mb)
    with ExecutionContext(n_jobs=pool_jobs) as ctx:
        if pool_jobs > 1:  # spin the workers up outside the timing
            ctx.map(_warm_task, [(i,) for i in range(pool_jobs)])
        t0 = time.perf_counter()
        series_shard = sweep_load(graph, cfg_sharded, loads, context=ctx)
        t_shard = time.perf_counter() - t0
    rss_shard = peak_rss_mb()
    shard_meta = series_shard.meta.get("fused", {})
    shards_ran = shard_meta.get("shards", 1)
    shard_transport = shard_meta.get("transport", "inline")
    print(f"  shard ({shards_ran} shards, {shard_transport})"
          f"{t_shard:11.3f} s  "
          f"(rss self {rss_shard['self']:.0f} MiB, "
          f"workers {rss_shard['children']:.0f} MiB)")
    assert_series_equal(series_mono, series_shard, "sharded vs mono")
    shard_speedup = t_mono / t_shard if t_shard > 0 else float("inf")

    assert_series_equal(series_fused, series_warm, "warm vs fused")
    assert_series_equal(series_fused, series_hit, "cache vs fused")

    cache_speedup = t_warm / t_hit if t_hit > 0 else float("inf")
    fused_vs_warm = t_warm / t_fused if t_fused > 0 else float("inf")
    record = {
        "benchmark": "sweep_speedup",
        "bit_identical": True,
        "points": args.points,
        "n_runs": args.runs,
        "n_processors": args.procs,
        "jobs": args.jobs,
        "cores": effective_cores(),
        "fused_seconds": round(t_fused, 4),
        "warm_seconds": round(t_warm, 4),
        "cache_seconds": round(t_hit, 4),
        "fused_vs_warm_speedup": round(fused_vs_warm, 3),
        "cache_speedup": round(cache_speedup, 3),
        "fused_pools_created": fused_pools,
        "warm_pools_created": pools_created,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "shard_runs": args.shard_runs,
        "shards_requested": args.shards,
        "shards_ran": shards_ran,
        "shard_transport": shard_transport,
        "mono_seconds": round(t_mono, 4),
        "shard_seconds": round(t_shard, 4),
        "shard_speedup": round(shard_speedup, 3),
        "peak_rss_mb": {"baseline": rss_before_shards,
                        "monolithic": rss_mono,
                        "sharded": rss_shard},
    }
    write_record(record, args.out)
    print(f"  fused vs warm {fused_vs_warm:8.2f} x")
    print(f"  shard speedup {shard_speedup:8.2f} x  "
          f"({shards_ran} shards vs mono at {args.shard_runs} runs)")
    print(f"  cache speedup {cache_speedup:8.2f} x  (vs warm)  "
          f"-> {args.out}")

    if args.budget_seconds > 0 and t_warm > args.budget_seconds:
        print(f"FAIL: warm sweep took {t_warm:.2f} s, budget "
              f"{args.budget_seconds:.2f} s", file=sys.stderr)
        return 1
    if args.min_cache_speedup > 0 and cache_speedup < args.min_cache_speedup:
        print(f"FAIL: cache speedup {cache_speedup:.2f}x below required "
              f"{args.min_cache_speedup:.2f}x", file=sys.stderr)
        return 1
    if args.min_fused_speedup > 0 and fused_vs_warm < args.min_fused_speedup:
        print(f"FAIL: fused-vs-warm speedup {fused_vs_warm:.2f}x below "
              f"required {args.min_fused_speedup:.2f}x", file=sys.stderr)
        return 1
    # 5% tolerance: on a single-core host auto-sharding resolves to one
    # shard and the honest ratio is two timings of identical work
    if args.min_shard_speedup > 0 and \
            shard_speedup < args.min_shard_speedup * 0.95:
        print(f"FAIL: shard speedup {shard_speedup:.2f}x below required "
              f"{args.min_shard_speedup:.2f}x (with 5% tolerance)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
