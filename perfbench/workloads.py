"""The benchmark's workloads: inputs from a seed, the call, the checks.

Each workload makes one call into ``repro``'s public API per iteration
and sets no execution knob (no shards, backend, kernel tier or
``n_jobs``), so the default single-process path runs.  ``repro`` is
imported inside the methods, never at module import, because a
workload's set-up time includes the import.

Outputs are compared bit for bit through :meth:`Workload.fingerprint`,
which flattens a result into named arrays whose bytes must match.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: figure 5 sweeps 10 loads for each of the paper's 5 schemes
FIG5_LOADS = 10
FIG5_SCHEMES = 5
POWER_MODELS = ("transmeta", "xscale")


def _fig5_fingerprint(out) -> Dict[str, np.ndarray]:
    fp: Dict[str, np.ndarray] = {}
    for model in sorted(out):
        series = out[model]
        pts = series.points
        fp[f"{model}.x"] = np.array([p.x for p in pts], dtype=float)
        fp[f"{model}.scheme"] = np.array([p.scheme for p in pts])
        fp[f"{model}.n_runs"] = np.array([p.n_runs for p in pts])
        for f in ("mean", "std", "ci95"):
            fp[f"{model}.{f}"] = np.array([getattr(p, f) for p in pts],
                                          dtype=float)
        changes = [[x] + [v for _k, v in sorted(per.items())]
                   for x, per in series.meta["speed_changes"]]
        fp[f"{model}.speed_changes"] = np.array(changes, dtype=float)
    return fp


def _online_fingerprint(res) -> Dict[str, np.ndarray]:
    fp = {"arrivals": res.arrivals, "admitted": res.admitted,
          "npm_energy": res.npm_energy,
          "path_keys": np.array(res.path_keys)}
    for name, st in sorted(res.per_scheme.items()):
        for f in ("job_energy", "job_normalized", "job_finish", "job_miss",
                  "job_changes"):
            fp[f"{name}.{f}"] = getattr(st, f)
    return fp


def same(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    """Whether two fingerprints are bit-identical, array by array."""
    if sorted(a) != sorted(b):
        return False
    for k in a:
        x, y = np.asarray(a[k]), np.asarray(b[k])
        if x.dtype != y.dtype or x.shape != y.shape \
                or x.tobytes() != y.tobytes():
            return False
    return True


class Workload:
    """One named workload; subclasses define the call and its checks."""

    name = ""
    #: whether :meth:`reference` gives the expected output; without one,
    #: every call must equal the cold call
    has_reference = True

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = seed
        self.toy = toy

    def prepare(self, workdir: Path) -> None:
        """Create the workload's own state (before the cold call)."""

    def cleanup(self) -> None:
        """Remove what :meth:`prepare` created."""

    def call(self):
        raise NotImplementedError

    def reference(self):
        """The output every call must equal, computed another way."""
        raise NotImplementedError

    def fingerprint(self, out) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def work(self, out) -> int:
        """Realizations the call evaluated under every scheme."""
        raise NotImplementedError

    def problems(self, out, ref: Dict[str, np.ndarray]) -> List[str]:
        """Why ``out`` is wrong (empty when every check passes)."""
        return [] if same(self.fingerprint(out), ref) \
            else ["output differs bit-wise from the reference"]


class _Figure5(Workload):
    n_runs = 1000
    toy_runs = 20

    @property
    def runs(self) -> int:
        return self.toy_runs if self.toy else self.n_runs

    def _figure5(self, **kwargs):
        from repro import experiments
        return experiments.figure5(n_runs=self.runs, seed=self.seed,
                                   **kwargs)

    def call(self):
        return self._figure5()

    def reference(self):
        return self._figure5(engine="dict")

    def fingerprint(self, out):
        return _fig5_fingerprint(out)

    def work(self, out) -> int:
        return FIG5_LOADS * self.runs * len(POWER_MODELS)

    def problems(self, out, ref):
        found = super().problems(out, ref)
        for model in POWER_MODELS:
            pts = out[model].points
            if len(pts) != FIG5_LOADS * FIG5_SCHEMES:
                found.append(f"{model}: {len(pts)} points, expected "
                             f"{FIG5_LOADS * FIG5_SCHEMES}")
            bad = [p for p in pts if not 0.0 < p.mean <= 1.0]
            if bad:
                found.append(f"{model}: {len(bad)} normalized mean(s) "
                             "outside (0, 1]")
        return found


class Fig5Paper(_Figure5):
    name = "fig5_paper"


class Fig5Large(_Figure5):
    name = "fig5_50k"
    has_reference = False  # the dict engine would take minutes here
    n_runs = 50000
    toy_runs = 40


class Fig5Cached(_Figure5):
    """figure 5 with an evaluation cache filled by the cold call."""

    name = "fig5_cached"

    def __init__(self, seed: int, toy: bool = False) -> None:
        super().__init__(seed, toy)
        self.cache_dir: Optional[Path] = None
        self.n_calls = 0
        self.last_stats: Dict[str, int] = {}

    def prepare(self, workdir: Path) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(prefix="evalcache-",
                                               dir=workdir))

    def cleanup(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def call(self):
        from repro.experiments import EvaluationCache, ExecutionContext
        cache = EvaluationCache(self.cache_dir)
        with ExecutionContext(cache=cache) as ctx:
            out = self._figure5(context=ctx)
        self.n_calls += 1
        self.last_stats = cache.stats()
        return out

    def reference(self):
        # the same sweep computed without the cache
        return self._figure5()

    def problems(self, out, ref):
        found = super().problems(out, ref)
        points = FIG5_LOADS * len(POWER_MODELS)
        stats = self.last_stats
        if self.n_calls > 1 and (stats["hits"] != points
                                 or stats["misses"]):
            # every call after the cold one must be served from the cache
            found.append(f"cache served {stats['hits']} of {points} points")
        return found


class OnlinePoisson(Workload):
    name = "online_poisson"

    def _simulate(self, **config):
        from repro import experiments
        from repro.workloads.synthetic import figure3_graph
        arrivals = 60 if self.toy else 2000
        return experiments.simulate_online(
            figure3_graph(),
            experiments.RunConfig(power_model="transmeta", n_processors=2,
                                  seed=self.seed, **config),
            experiments.OnlineConfig(arrival="poisson", rate=1.0, load=0.7,
                                     target_arrivals=arrivals))

    def call(self):
        return self._simulate()

    def reference(self):
        return self._simulate(engine="dict")

    def fingerprint(self, out):
        return _online_fingerprint(out)

    def work(self, out) -> int:
        return out.n_admitted

    def problems(self, out, ref):
        found = super().problems(out, ref)
        if out.n_admitted + out.n_rejected != out.n_arrivals:
            found.append("admitted + rejected != arrivals")
        for name, st in out.per_scheme.items():
            if any(getattr(st, f).size != out.n_admitted
                   for f in ("job_energy", "job_normalized", "job_finish",
                             "job_miss", "job_changes")):
                found.append(f"{name}: per-job arrays are not of length "
                             "admitted")
        return found


WORKLOADS = {w.name: w for w in (Fig5Paper, Fig5Large, OnlinePoisson,
                                 Fig5Cached)}
