"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro tables
    python -m repro fig4 [--runs 1000] [--jobs 4] [--csv out.csv]
    python -m repro fig5 --runs 50000
    python -m repro fig6 ...
    python -m repro fig_online --runs 500 --arrival bursty
    python -m repro run --app atr --load 0.5 --model xscale --procs 2
    python -m repro online --arrival poisson --rate 0.8 --horizon 50
    python -m repro gantt --app fig3 --scheme GSS --load 0.5
    python -m repro report --runs 1000 -o results.md

Figures print the same series the paper plots (normalized energy per
scheme) as aligned tables plus the mean speed-change counts.  Each
figure and ``suite`` command opens one worker pool of ``--jobs``
processes and shares it across all its sweeps.  Load and α sweeps
(fig4/5/6) always fuse into one array program that runs in the
command's own process (its batch kernels thread a large call over the
cores); sweeps that cannot fuse (``--engine dict``, fig_online's rate
points) fan their points out over the pool.  ``report`` takes no
``--jobs``: its figures all fuse.

Every command runs under one :mod:`repro.obs` recording and ends with
one summary line on stderr: its wall time, the share of it the layer
spans account for, the slowest layers and every non-zero counter
(``--save`` keeps each series' own block, ``meta["obs"]``).  Profile a
command with ``python -m cProfile -m repro ...``.  Bad input ends with
one ``repro <command>: error: <message>`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Dict, List, Optional

from . import obs
from .core.registry import ALL_SCHEMES, PAPER_SCHEMES
from .errors import ReproError
from .experiments.engine import ExecutionContext, recording
from .experiments.figures import ALL_FIGURES
from .experiments.report import (
    render_online_meta,
    render_series,
    render_speed_changes,
    series_to_csv,
)
from .experiments.runner import RunConfig, evaluate_application
from .experiments.tables import all_tables
from .types import SeriesResult
from .workloads.atr import atr_graph
from .workloads.scaling import application_with_load
from .workloads.synthetic import figure3_graph

_APPS = {
    "atr": atr_graph,
    "fig3": figure3_graph,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Power Aware Scheduling for AND/OR Graphs in "
                    "Multi-Processor Real-Time Systems' (ICPP 2002)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Table 1 and Table 2")

    for fig in ("fig4", "fig5", "fig6", "fig_online"):
        fp = sub.add_parser(fig, help=f"regenerate {fig} (both power models)"
                            if fig != "fig_online" else
                            "arrival rate vs energy vs miss ratio through "
                            "the online streaming simulator")
        fp.add_argument("--runs", type=int, default=1000,
                        help="Monte-Carlo runs per point (paper: 1000); "
                             "for fig_online: expected arrivals per rate "
                             "point")
        if fig == "fig_online":
            fp.add_argument("--rates", nargs="*", type=float, default=None,
                            help="arrival rates to sweep, in mean arrivals "
                                 "per canonical worst-case length "
                                 "(default: 0.25..2.0)")
            fp.add_argument("--arrival", choices=("poisson", "bursty"),
                            default="poisson",
                            help="arrival process per stream (trace-driven "
                                 "streams: see 'repro online --trace')")
            fp.add_argument("--load", type=float, default=None,
                            help="per-job relative-deadline load "
                                 "D = T_worst/load (default: 0.7)")
        fp.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep points that "
                             "cannot fuse (0 = all cores)")
        fp.add_argument("--seed", type=int, default=2002)
        fp.add_argument("--engine", choices=("compiled", "dict"),
                        default="compiled",
                        help="simulation kernel (results are "
                             "bit-identical; 'dict' is the reference "
                             "engine, ~4x slower)")
        fp.add_argument("--max-retries", type=int, default=2,
                        dest="max_retries",
                        help="pool rebuilds after a worker dies before "
                             "the remaining points degrade to serial "
                             "execution")
        fp.add_argument("--no-degrade", action="store_true",
                        dest="no_degrade",
                        help="fail with an error once the rebuild budget "
                             "is exhausted instead of degrading to "
                             "serial execution in the parent")
        fp.add_argument("--no-cache", action="store_true",
                        help="recompute every point, bypassing the "
                             "on-disk evaluation cache")
        fp.add_argument("--cache-dir", type=str, default=None,
                        dest="cache_dir",
                        help="evaluation-cache directory (default: "
                             ".repro-cache)")
        fp.add_argument("--oracle", action="store_true",
                        help="include the clairvoyant single-speed "
                             "reference (not a lower bound)")
        fp.add_argument("--csv", type=str, default=None,
                        help="also write the series to this CSV file")
        fp.add_argument("--chart", action="store_true",
                        help="also render an ASCII chart of each series")
        fp.add_argument("--save", type=str, default=None,
                        help="persist the series bundle to this JSON file")

    rp = sub.add_parser("run", help="evaluate one application at one point")
    rp.add_argument("--app", choices=sorted(_APPS), default="atr")
    rp.add_argument("--load", type=float, default=0.5)
    rp.add_argument("--model", choices=("transmeta", "xscale"),
                    default="transmeta")
    rp.add_argument("--procs", type=int, default=2)
    rp.add_argument("--runs", type=int, default=1000)
    rp.add_argument("--seed", type=int, default=2002)
    rp.add_argument("--engine", choices=("compiled", "dict"),
                    default="compiled",
                    help="simulation kernel (results are bit-identical; "
                         "'dict' is the reference engine, ~4x slower)")
    rp.add_argument("--schemes", nargs="*", default=list(PAPER_SCHEMES),
                    help=f"subset of {list(ALL_SCHEMES)}")

    gp = sub.add_parser("gantt", help="trace one run and print its schedule")
    gp.add_argument("--app", choices=sorted(_APPS), default="fig3")
    gp.add_argument("--scheme", default="GSS")
    gp.add_argument("--load", type=float, default=0.5)
    gp.add_argument("--model", choices=("transmeta", "xscale"),
                    default="transmeta")
    gp.add_argument("--procs", type=int, default=2)
    gp.add_argument("--seed", type=int, default=2002)

    ap = sub.add_parser("analyze",
                        help="work/span, slack anatomy and plan summary")
    ap.add_argument("--app", choices=sorted(_APPS), default="atr")
    ap.add_argument("--load", type=float, default=0.5)
    ap.add_argument("--procs", type=int, default=2)

    sp = sub.add_parser("stream",
                        help="simulate a periodic frame mission")
    sp.add_argument("--app", choices=sorted(_APPS), default="atr")
    sp.add_argument("--load", type=float, default=0.5)
    sp.add_argument("--frames", type=int, default=100)
    sp.add_argument("--model", choices=("transmeta", "xscale"),
                    default="transmeta")
    sp.add_argument("--procs", type=int, default=2)
    sp.add_argument("--seed", type=int, default=2002)
    sp.add_argument("--schemes", nargs="*",
                    default=["NPM", "SPM", "GSS", "SS1", "SS2", "AS"])

    op = sub.add_parser("online",
                        help="simulate one sporadic-arrival stream with "
                             "admission control")
    op.add_argument("--app", choices=sorted(_APPS), default="fig3")
    op.add_argument("--arrival", choices=("poisson", "bursty", "trace"),
                    default="poisson",
                    help="arrival process feeding the admission test")
    op.add_argument("--rate", type=float, default=0.5,
                    help="mean arrivals per canonical worst-case length "
                         "(a utilization-like congestion knob)")
    op.add_argument("--horizon", type=float, default=50.0,
                    help="stream length in canonical worst-case lengths")
    op.add_argument("--load", type=float, default=0.7,
                    help="per-job relative-deadline load: D = T_worst/load")
    op.add_argument("--burstiness", type=float, default=1.8,
                    help="MMPP-2 burstiness in [1, 2] for --arrival bursty")
    op.add_argument("--dwell", type=float, default=5.0,
                    help="mean MMPP-2 state sojourn, in worst-case lengths")
    op.add_argument("--trace", type=str, default=None,
                    help="JSON arrival-trace file for --arrival trace "
                         "(a list of times, or {'arrivals': [...]}; in "
                         "worst-case-length units)")
    op.add_argument("--model", choices=("transmeta", "xscale"),
                    default="transmeta")
    op.add_argument("--procs", type=int, default=2)
    op.add_argument("--seed", type=int, default=2002)
    op.add_argument("--engine", choices=("compiled", "dict"),
                    default="compiled",
                    help="simulation kernel (results are bit-identical)")
    op.add_argument("--schemes", nargs="*", default=list(PAPER_SCHEMES),
                    help=f"subset of {list(ALL_SCHEMES)}")

    ex = sub.add_parser("exact",
                        help="deterministic path-enumeration evaluation")
    ex.add_argument("--app", choices=sorted(_APPS), default="fig3")
    ex.add_argument("--load", type=float, default=0.6)
    ex.add_argument("--model", choices=("transmeta", "xscale"),
                    default="transmeta")
    ex.add_argument("--procs", type=int, default=2)

    mp = sub.add_parser("misprofile",
                        help="robustness to wrong branch probabilities")
    mp.add_argument("--app", choices=sorted(_APPS), default="fig3")
    mp.add_argument("--load", type=float, default=0.7)
    mp.add_argument("--model", choices=("transmeta", "xscale"),
                    default="transmeta")
    mp.add_argument("--procs", type=int, default=2)
    mp.add_argument("--runs", type=int, default=300)
    mp.add_argument("--gammas", nargs="*", type=float,
                    default=[-2.0, 0.25, 1.0, 4.0])
    mp.add_argument("--seed", type=int, default=2002)

    rep = sub.add_parser("report",
                         help="regenerate all figures into a markdown "
                              "report")
    rep.add_argument("-o", "--output", type=str, default="results.md")
    rep.add_argument("--runs", type=int, default=1000)
    rep.add_argument("--seed", type=int, default=2002)
    rep.add_argument("--figures", nargs="*", default=None,
                     choices=["fig4", "fig5", "fig6"])

    su = sub.add_parser("suite",
                        help="evaluate every workload x scheme x model")
    su.add_argument("--runs", type=int, default=300)
    su.add_argument("--loads", nargs="*", type=float, default=[0.4, 0.7])
    su.add_argument("--models", nargs="*", default=["transmeta",
                                                    "xscale"])
    su.add_argument("--procs", type=int, default=2)
    su.add_argument("--seed", type=int, default=2002)
    su.add_argument("--jobs", type=int, default=1,
                    help="worker processes across suite cells "
                         "(0 = all cores)")
    su.add_argument("--no-cache", action="store_true",
                    help="recompute every cell, bypassing the on-disk "
                         "evaluation cache")
    su.add_argument("--cache-dir", type=str, default=None, dest="cache_dir",
                    help="evaluation-cache directory (default: "
                         ".repro-cache)")
    su.add_argument("--max-retries", type=int, default=2,
                    dest="max_retries",
                    help="pool rebuilds after a worker dies before the "
                         "remaining cells degrade to serial execution")
    su.add_argument("--no-degrade", action="store_true", dest="no_degrade",
                    help="error out instead of degrading to serial "
                         "execution when the rebuild budget is exhausted")
    return p


def _make_context(n_jobs: int, no_cache: bool, cache_dir: Optional[str]):
    """One ExecutionContext per CLI command: shared pool + optional cache."""
    cache = None
    if not no_cache:
        from .experiments.evalcache import DEFAULT_CACHE_DIR, EvaluationCache
        cache = EvaluationCache(cache_dir or DEFAULT_CACHE_DIR)
    return ExecutionContext(n_jobs=n_jobs, cache=cache)


def _emit_figure(series_by_model: Dict[str, SeriesResult],
                 csv_path: Optional[str], chart: bool = False) -> None:
    chunks = []
    for model, series in series_by_model.items():
        print(render_series(series))
        if chart:
            from .experiments.chart import render_chart
            print(render_chart(series))
        print(render_speed_changes(series))
        if series.meta.get("online"):
            print(render_online_meta(series))
        chunks.append(series_to_csv(series))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(chunks))
        print(f"(csv written to {csv_path})")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with contextlib.ExitStack() as stack:
            context = None
            if hasattr(args, "cache_dir"):  # figure and suite commands
                context = stack.enter_context(_make_context(
                    args.jobs, args.no_cache, args.cache_dir))
            with recording(context) as rec:
                _run(args, context)
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(f"repro {args.command}: {obs.summary(rec.totals())}",
          file=sys.stderr)
    return 0


def _run(args: argparse.Namespace, context) -> None:
    if args.command == "tables":
        print(all_tables())
    elif args.command in ALL_FIGURES:
        schemes = list(PAPER_SCHEMES)
        if args.oracle:
            schemes.append("ORACLE")
        fig_kwargs = dict(
            n_runs=args.runs, seed=args.seed, context=context,
            schemes=tuple(schemes), engine=args.engine,
            max_retries=args.max_retries, degrade=not args.no_degrade)
        if args.command == "fig_online":
            fig_kwargs["arrival"] = args.arrival
            if args.rates:
                fig_kwargs["rates"] = tuple(args.rates)
            if args.load is not None:
                fig_kwargs["load"] = args.load
        series = ALL_FIGURES[args.command](**fig_kwargs)
        _emit_figure(series, args.csv, chart=args.chart)
        if args.save:
            from .experiments.persist import save_series
            save_series(series, args.save)
            print(f"(series bundle written to {args.save})")
    elif args.command == "run":
        graph = _APPS[args.app]()
        app = application_with_load(graph, args.load, args.procs)
        cfg = RunConfig(schemes=tuple(args.schemes),
                        power_model=args.model,
                        n_processors=args.procs, n_runs=args.runs,
                        seed=args.seed, engine=args.engine)
        result = evaluate_application(app, cfg)
        print(f"app={args.app} load={args.load} model={args.model} "
              f"m={args.procs} runs={args.runs}")
        print(f"{'scheme':>8} {'E/E_NPM':>10} {'switches':>10}")
        means = result.mean_normalized()
        switches = result.mean_speed_changes()
        for scheme in result.normalized:
            print(f"{scheme:>8} {means[scheme]:>10.4f} "
                  f"{switches[scheme]:>10.1f}")
    elif args.command == "gantt":
        from .sim.trace import render_gantt, trace_one_run
        graph = _APPS[args.app]()
        app = application_with_load(graph, args.load, args.procs)
        result = trace_one_run(app, args.scheme, power_model=args.model,
                               seed=args.seed)
        print(render_gantt(result, app.deadline))
    elif args.command == "analyze":
        from .analysis import graph_metrics, slack_profile
        from .offline import build_plan
        graph = _APPS[args.app]()
        app = application_with_load(graph, args.load, args.procs)
        plan = build_plan(app, args.procs)
        m = graph_metrics(plan.structure)
        prof = slack_profile(plan)
        print(f"app={args.app}  load={args.load}  m={args.procs}  "
              f"D={app.deadline:.2f}")
        print(f"offline: T_worst={plan.t_worst:.2f}  "
              f"T_avg={plan.t_avg:.2f}  sections="
              f"{len(plan.sections)}")
        print(f"work: expected={m.expected_work:.2f}  "
              f"max={m.max_work:.2f}")
        print(f"span: expected={m.expected_span:.2f}  "
              f"max={m.max_span:.2f}")
        print(f"parallelism: {m.expected_parallelism:.2f}  "
              f"(effective of {args.procs}: "
              f"{m.effective_processors(args.procs):.2f})")
        print(f"slack: static={prof.static_slack:.2f} "
              f"({prof.static_fraction:.0%} of D)  "
              f"path={prof.expected_path_slack:.2f}  "
              f"runtime={prof.expected_runtime_slack:.2f}")
    elif args.command == "stream":
        from .workloads.frames import compare_streams, render_stream_report
        from .workloads.scaling import worst_case_length
        graph = _APPS[args.app]()
        period = worst_case_length(graph, args.procs) / args.load
        schemes = list(dict.fromkeys(["NPM"] + list(args.schemes)))
        results = compare_streams(graph, period, schemes, args.frames,
                                  power_model=args.model,
                                  n_processors=args.procs,
                                  seed=args.seed)
        print(f"mission: {args.frames} frames, period {period:.2f} "
              f"(load {args.load}), {args.model}, m={args.procs}")
        print(render_stream_report(results))
    elif args.command == "online":
        from .experiments.online import (
            OnlineConfig,
            render_online_report,
            simulate_online,
        )
        graph = _APPS[args.app]()
        cfg = RunConfig(schemes=tuple(args.schemes),
                        power_model=args.model,
                        n_processors=args.procs, seed=args.seed,
                        engine=args.engine)
        online = OnlineConfig(arrival=args.arrival, rate=args.rate,
                              horizon=args.horizon, load=args.load,
                              burstiness=args.burstiness,
                              burst_dwell=args.dwell,
                              trace_path=args.trace)
        print(render_online_report(simulate_online(graph, cfg, online)))
    elif args.command == "exact":
        from .experiments.exact import exact_evaluation, render_exact
        graph = _APPS[args.app]()
        app = application_with_load(graph, args.load, args.procs)
        cfg = RunConfig(power_model=args.model,
                        n_processors=args.procs, n_runs=1)
        print(f"exact path-enumeration: app={args.app} load={args.load} "
              f"model={args.model} m={args.procs}")
        print(render_exact(exact_evaluation(app, cfg)))
    elif args.command == "misprofile":
        from .experiments.misprofile import (
            misprofile_evaluation,
            render_misprofile,
        )
        graph = _APPS[args.app]()
        cfg = RunConfig(power_model=args.model,
                        n_processors=args.procs, n_runs=args.runs,
                        seed=args.seed)
        results = {g: misprofile_evaluation(graph, args.load, cfg, g)
                   for g in args.gammas}
        print(f"misprofiling regret: app={args.app} load={args.load} "
              f"model={args.model} ({args.runs} runs/γ)")
        print(render_misprofile(results))
    elif args.command == "report":
        from .experiments.report_md import write_report
        write_report(args.output, n_runs=args.runs, seed=args.seed,
                     figures=args.figures)
        print(f"report written to {args.output}")
    elif args.command == "suite":
        from .experiments.suite import SuiteConfig, render_suite, run_suite
        cfg = SuiteConfig(loads=tuple(args.loads),
                          models=tuple(args.models),
                          n_processors=args.procs, n_runs=args.runs,
                          seed=args.seed,
                          max_retries=args.max_retries,
                          degrade=not args.no_degrade)
        print(render_suite(run_suite(cfg, context=context)))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
