"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fig5_paper --seed 2002 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced pass.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, per-call
times, check failures) is stored under ``.perfbench/`` in the checkout,
next to the span JSONL of a traced run.

Every workload process runs with each ``REPRO_*`` variable removed from
its environment and ``PYTHONPATH`` set to this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "runs_per_s": "realizations/s",
              "setup_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "fraction"}

#: wall_s is this percentile of the per-call times.  The host's speed
#: alternates between a contended and a faster mode for seconds to
#: minutes at a time, so the median of a run moves with how long the
#: faster mode lasted; the 80th percentile, the highest with ten calls
#: beyond it on fig5_paper, tracks the contended mode that nearly every
#: run sees
WALL_PERCENTILE = 80

#: fresh processes whose import + cold call give setup_s (the timed
#: process is one of them)
SETUP_SAMPLES = 3

#: every process started for one invocation must end within this
BUDGET_S = 170.0


def clean_env() -> tuple:
    """The workload processes' environment, and the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in removed}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, removed


def _command_output(cmd) -> str | None:
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Starts worker processes one at a time within the time budget."""

    def __init__(self, args, env, workdir: Path) -> None:
        self.args = args
        self.env = env
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S

    def worker(self, mode: str, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--root", str(ROOT), "--workdir", str(self.workdir), *extra]
        if a.toy:
            cmd.append("--toy")
        left = self.deadline - time.monotonic()
        # subprocess.run kills the child on timeout and waits for it
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                              stdout=subprocess.PIPE, timeout=left)
        if done.returncode != 0:
            raise RuntimeError(f"{mode} process exited {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    """Run the workload's processes; the stored record of this run."""
    env, removed = clean_env()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    try:
        runner = Runner(args, env, workdir)
        # the build: byte-compile so every process imports alike
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src")], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        extra = []
        if WORKLOADS[args.workload].has_reference:
            ref = workdir / "reference.npz"
            runner.worker("reference", "--ref", str(ref))
            extra += ["--ref", str(ref)]
        setups = []
        if not args.trace:
            setups = [runner.worker("setup")["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        if args.trace:
            extra += ["--spans", str(spans)]
        main = runner.worker("main", *extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(main["setup_s"])

    env_record = dict(main["env"])
    env_record.update(
        nproc=_command_output(["nproc"]) or str(os.cpu_count()),
        git_commit=(_command_output(["git", "rev-parse", "HEAD"])
                    if (ROOT / ".git").exists() else None),
        seed=args.seed, repro_env_removed=removed)
    wall = float(np.percentile(main["times"], WALL_PERCENTILE))
    attempted, failed = main["attempted"], main["failed"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": env_record, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted,
              "problems": main["problems"], "times": main["times"],
              "wall_median_s": statistics.median(main["times"]),
              "setup_samples": setups}
    if args.trace:
        record["traced_times"] = main["traced_times"]
        record["missing_sites"] = main["missing_sites"]
        record["broken_layers"] = main["broken_layers"]
        record["spans"] = str(spans.relative_to(ROOT))
        record["metrics"] = {name: {"value": main["layers"][name],
                                    "unit": METRICS[name][0]}
                             for name in METRICS}
    else:
        values = {"wall_s": wall, "runs_per_s": main["work"] / wall,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main["peak_rss_mb"],
                  "pass_ratio": (attempted - failed) / attempted}
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Print the environment and every metric with its unit."""
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    n = len(record["times"])
    print(f"# {record['workload']}: {record['attempted']} call(s) checked, "
          f"{record['failed']} failed, failed_ratio "
          f"{record['failed_ratio']:.4f} fraction")
    for problem in record["problems"]:
        print(f"# check failed: {problem}")
    if record["trace"]:
        print(f"# per-layer metrics per workload call, from "
              f"{len(record['traced_times'])} traced call(s); "
              f"spans in {record['spans']}")
        for site in record["missing_sites"]:
            print(f"# site not found, not traced: {site}")
        for layer in record["broken_layers"]:
            print(f"# layer changed shape, not reported: {layer}")
    else:
        print(f"# wall_s is the {WALL_PERCENTILE}th percentile of {n} timed "
              f"call(s), median {record['wall_median_s']:.6g} s; setup_s "
              f"the median of {len(record['setup_samples'])} fresh "
              "process(es)")
    for name, m in record["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{record['workload']} {name} = {value} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=2002)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the harness self-check only")
    args = ap.parse_args(argv)
    # a terminated run raises here, so subprocess.run kills and reaps the
    # worker it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    record = measure(args)
    report(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
