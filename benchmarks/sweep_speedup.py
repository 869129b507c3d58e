"""Sweep-scale execution-engine benchmark: fused, cache, pool, shards.

Times the same Figure-5-shaped load sweep (widened ATR graph, six
processors) and emits ``BENCH_sweep.json``:

1. **fused** — the sweep's one execution route: the whole sweep is
   stacked into one array program (:mod:`repro.sim.sweepc`) and
   executed in the parent without a single worker pool.  An
   :class:`~repro.experiments.EvaluationCache` in a scratch directory
   is attached, so this pass also populates the on-disk cache (the
   ``put`` cost is charged to the fused timing, as in real use);
2. **cache** — the identical sweep re-run against the now-populated
   cache: every point is served from disk without touching a pool.

A **point_pool** section times the route of sweeps that cannot fuse:
``sweep_overhead`` over ``--pool-points`` adjust times at
``--pool-runs`` runs per point, serially on a one-worker context and
fanned out one point per worker on a warmed ``ExecutionContext(n_jobs=2)``.
``pool_speedup`` is serial/pooled; the two passes are asserted
bit-identical and the pooled one to create exactly one pool.

A third **fused_shard** section times the sharded fused path at a
larger run count (``--shard-runs``): the same sweep executed
monolithically in one process versus split into ``--shards``
seed-aligned run-range shards (0 = auto: one per schedulable core,
raised to fit ``--shard-mem-mb``) on a warmed worker pool.
``shard_speedup`` is monolithic/sharded; both passes are asserted
bit-identical and the record carries the resolved shard count,
transport and the high-water RSS of the parent and its pool workers.
On a single-core host auto-sharding correctly resolves to one shard
(the monolithic pass), so the ratio sits at ~1.0 by construction.

The cache pass is asserted bit-identical to the fused pass point by
point before any timing is reported — a speedup that changes results
is a bug, not a feature — and the fused pass is asserted to create
**zero** pools.

``--budget-seconds`` (> 0) fails the invocation if the *fused* or the
*pooled* sweep exceeds the budget.  ``--min-cache-speedup`` (> 0) gates
``cache_speedup`` (fused over cache).  ``--min-shard-speedup`` (> 0)
gates ``shard_speedup`` with the usual 5% timing-noise tolerance.

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
                               sweep_load, sweep_overhead)
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
    ap.add_argument("--procs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=2002)
    ap.add_argument("--alpha", type=float, default=0.9)
    ap.add_argument("--out", default="BENCH_sweep.json")
    ap.add_argument("--budget-seconds", type=float, default=0.0,
                    dest="budget_seconds")
    ap.add_argument("--min-cache-speedup", type=float, default=0.0,
                    dest="min_cache_speedup")
    ap.add_argument("--pool-points", type=int, default=4,
                    dest="pool_points",
                    help="adjust-time points of the point_pool section")
    ap.add_argument("--pool-runs", type=int, default=2000,
                    dest="pool_runs",
                    help="Monte-Carlo runs per point for the "
                         "point_pool section")
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
    if args.points < 1 or args.pool_points < 1:
        ap.error("--points and --pool-points must be >= 1")

    graph = atr_graph(AtrConfig(alpha=args.alpha, **FIG5_ATR))
    loads = [round(0.1 + 0.9 * i / max(args.points - 1, 1), 4)
             for i in range(args.points)]
    cfg = RunConfig(n_runs=args.runs, seed=args.seed,
                    n_processors=args.procs, engine="compiled")

    print(f"sweep_speedup: {args.points} points x {args.runs} runs, "
          f"m={args.procs}, cores={effective_cores()}")

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = EvaluationCache(tmp)
        with ExecutionContext(n_jobs=1, cache=cache) as ctx:
            t0 = time.perf_counter()
            series_fused = sweep_load(graph, cfg, loads, context=ctx)
            t_fused = time.perf_counter() - t0
            fused_pools = ctx.pools_created
        assert fused_pools == 0, \
            f"fused sweep engaged {fused_pools} pool(s); it must use none"
        print(f"  fused (one array program){t_fused:8.3f} s  (pools: 0)")

        before = cache.stats()
        with ExecutionContext(n_jobs=1, cache=cache) as ctx:
            t0 = time.perf_counter()
            series_hit = sweep_load(graph, cfg, loads, context=ctx)
            t_hit = time.perf_counter() - t0
            stats = {k: ctx.cache_stats()[k] - before[k] for k in before}
        print(f"  cache (hits from disk)   {t_hit:8.3f} s  "
              f"({stats['hits']} hits / {stats['misses']} misses)")
        assert stats["hits"] >= args.points, \
            "cache pass did not hit on every sweep point"

    # -- point_pool: a non-fusable sweep, serial vs one point per worker ----
    cfg_pool = cfg.with_(n_runs=args.pool_runs)
    adjust_times = [0.005 * (i + 1) for i in range(args.pool_points)]
    with ExecutionContext(n_jobs=1) as ctx:
        t0 = time.perf_counter()
        series_serial = sweep_overhead(graph, cfg_pool, 0.6, adjust_times,
                                       context=ctx)
        t_serial = time.perf_counter() - t0
    with ExecutionContext(n_jobs=2) as ctx:
        ctx.map(_warm_task, [(i,) for i in range(2)])
        t0 = time.perf_counter()
        series_pool = sweep_overhead(graph, cfg_pool, 0.6, adjust_times,
                                     context=ctx)
        t_pool = time.perf_counter() - t0
        pool_pools = ctx.pools_created
    assert pool_pools == 1, \
        f"pooled sweep created {pool_pools} pools; it must reuse one"
    assert_series_equal(series_serial, series_pool, "pooled vs serial")
    pool_speedup = t_serial / t_pool if t_pool > 0 else float("inf")
    print(f"  serial ({args.pool_points} adjust times, {args.pool_runs} "
          f"runs) {t_serial:8.3f} s")
    print(f"  pool   (2 workers, one point each){t_pool:9.3f} s")

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

    assert_series_equal(series_fused, series_hit, "cache vs fused")

    cache_speedup = t_fused / t_hit if t_hit > 0 else float("inf")
    record = {
        "benchmark": "sweep_speedup",
        "bit_identical": True,
        "points": args.points,
        "n_runs": args.runs,
        "n_processors": args.procs,
        "cores": effective_cores(),
        "fused_seconds": round(t_fused, 4),
        "cache_seconds": round(t_hit, 4),
        "cache_speedup": round(cache_speedup, 3),
        "fused_pools_created": fused_pools,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "pool_points": args.pool_points,
        "pool_runs": args.pool_runs,
        "serial_seconds": round(t_serial, 4),
        "pool_seconds": round(t_pool, 4),
        "pool_speedup": round(pool_speedup, 3),
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
    print(f"  pool speedup  {pool_speedup:8.2f} x  (vs serial, "
          f"non-fusable sweep)")
    print(f"  shard speedup {shard_speedup:8.2f} x  "
          f"({shards_ran} shards vs mono at {args.shard_runs} runs)")
    print(f"  cache speedup {cache_speedup:8.2f} x  (vs fused)  "
          f"-> {args.out}")

    if args.budget_seconds > 0 and t_fused > args.budget_seconds:
        print(f"FAIL: fused sweep took {t_fused:.2f} s, budget "
              f"{args.budget_seconds:.2f} s", file=sys.stderr)
        return 1
    if args.budget_seconds > 0 and t_pool > args.budget_seconds:
        print(f"FAIL: pooled sweep took {t_pool:.2f} s, budget "
              f"{args.budget_seconds:.2f} s", file=sys.stderr)
        return 1
    if args.min_cache_speedup > 0 and cache_speedup < args.min_cache_speedup:
        print(f"FAIL: cache speedup {cache_speedup:.2f}x below required "
              f"{args.min_cache_speedup:.2f}x", file=sys.stderr)
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
