"""One benchmark process: set-up sample, reference output, or timed run.

Started by ``run.py`` with every ``REPRO_*`` variable removed from the
environment and ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints one JSON object as its last line of standard output.

* ``--mode setup``: import ``repro``, make the workload's first (cold)
  call, report the time both took.
* ``--mode reference``: compute the reference output another way (the
  dict engine, or an uncached compiled pass) and save it to ``--ref``.
* ``--mode main``: a set-up sample, then timed calls for ``--seconds``,
  each checked against the reference outside the timed region.  With
  ``--trace 1`` the time is split between untraced calls and calls made
  with the layer wrappers installed, and the spans go to ``--spans``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


class Checks:
    """Counts calls whose output fails the workload's checks."""

    def __init__(self, workload, ref) -> None:
        self.workload = workload
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, out) -> None:
        self.attempted += 1
        found = self.workload.problems(out, self.ref)
        if found:
            self.failed += 1
            self.problems.extend(found[:5 - len(self.problems)])


def timed_calls(workload, seconds: float, checks: Checks, around=None):
    """Call until ``seconds`` of call time have passed; per-call times."""
    times = []
    while not times or sum(times) < seconds:
        t = time.perf_counter()
        out = around(workload.call) if around else workload.call()
        times.append(time.perf_counter() - t)
        checks.check(out)
    return times


def load_ref(path):
    import numpy as np
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def environment(root: Path) -> dict:
    import numpy
    import repro
    from repro.experiments.engine import effective_cores
    src = Path(repro.__file__).resolve()
    if root.resolve() / "src" not in src.parents:
        raise SystemExit(f"imported repro from {src}, not from {root}/src")
    return {"effective_cores": effective_cores(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "repro_env": sorted(k for k in os.environ
                                if k.startswith("REPRO_"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "reference", "main"),
                    required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--ref", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, toy=args.toy)
    if args.mode == "reference":
        import numpy as np
        np.savez(args.ref, **workload.fingerprint(workload.reference()))
        print(json.dumps({"reference": str(args.ref)}))
        return 0

    workload.prepare(args.workdir)
    try:
        out = workload.call()
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if args.mode == "main":
            result.update(run_main(args, workload, out))
    finally:
        workload.cleanup()
    print(json.dumps(result))
    return 0


def run_main(args, workload, warm) -> dict:
    env = environment(args.root)
    ref = load_ref(args.ref) if args.ref else workload.fingerprint(warm)
    checks = Checks(workload, ref)
    checks.check(warm)
    result = {"env": env, "work": workload.work(warm)}
    if args.trace:
        from tracer import Tracer
        untraced = timed_calls(workload, args.seconds / 2, checks)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_calls(workload, args.seconds / 2, checks,
                                 around=tracer.root)
        finally:
            tracer.uninstall()
        result["times"] = untraced
        result["traced_times"] = traced
        result["missing_sites"] = tracer.missing_sites
        result["broken_layers"] = sorted(tracer.broken)
        result["layers"] = tracer.metrics(statistics.median(traced),
                                          statistics.median(untraced))
        tracer.write_jsonl(args.spans)
    else:
        result["times"] = timed_calls(workload, args.seconds, checks)
    result.update(attempted=checks.attempted, failed=checks.failed,
                  problems=checks.problems,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


if __name__ == "__main__":
    sys.exit(main())
