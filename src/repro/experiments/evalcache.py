"""Content-addressed on-disk cache of Monte-Carlo evaluation points.

A sweep point is fully determined by *what* is evaluated — the
application (graph + deadline) and the result-relevant
:class:`~repro.experiments.runner.RunConfig` fields — never by *how*
(worker counts, chunk sizes, transports are all bit-identical by
contract).  That makes evaluation results safely content-addressable:

``key = sha256(graph fingerprint, deadline, app name,
canonical config payload, code-version salt)``

so ``repro fig`` / ``repro suite`` regeneration is incremental —
unchanged points load from ``.repro-cache/``, changed points (any edit
to the graph, seed, run count, σ, schemes, engine, power or overhead
model) recompute.  Entries are single ``.npz`` files holding the raw
per-run arrays (exact float64 bits; ``normalized`` is re-derived by the
same division the runner performs, so a cache hit is bit-identical to a
recompute), written atomically (tmp + rename) so concurrent writers
can share one cache directory.  A corrupted, truncated or
wrong-schema entry is treated as a miss and **quarantined**: moved
aside into ``<root>/quarantine/`` (for post-mortem inspection) with a
single warning, after which the point is recomputed and re-written —
the cache can never poison results, and the broken bytes are kept as
evidence rather than destroyed.

``CACHE_SALT`` is the code-version component of the key: bump it
whenever a change alters simulation outputs, and every stale entry
silently becomes a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..core.registry import get_policy
from ..graph.andor import Application
from ..offline.plan import graph_fingerprint
from . import faults

#: bump when a code change alters simulation outputs (invalidates every
#: existing cache entry without touching the on-disk format)
CACHE_SALT = "eval-v1"

#: on-disk payload layout version (validated on load)
CACHE_FORMAT = 1

#: default cache directory, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: RunConfig fields that determine evaluation *results*.  Execution
#: knobs (n_jobs, runs_per_chunk, parallel_min_runs) are excluded by
#: design: they are bit-identical by contract and must share entries.
#: ``engine`` is included although engines are bit-identical too —
#: being conservative there keeps the cache trustworthy while engines
#: evolve.
_RESULT_FIELDS = ("power_model", "n_processors", "n_runs", "seed",
                  "sigma_fraction", "idle_fraction", "heuristic", "engine")


def config_payload(config) -> Dict[str, object]:
    """The canonical, JSON-stable view of a config's result-relevant part."""
    payload: Dict[str, object] = {
        field: getattr(config, field) for field in _RESULT_FIELDS
    }
    # aliases resolve to canonical labels: ("gss",) and ("GSS",) are the
    # same evaluation and must share a cache entry
    payload["schemes"] = [get_policy(name).name for name in config.schemes]
    payload["overhead"] = {
        "comp_cycles": config.overhead.comp_cycles,
        "adjust_time": config.overhead.adjust_time,
        "time_unit_us": config.overhead.time_unit_us,
    }
    return payload


def _digest(payload: Dict[str, object]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def evaluation_key(app: Application, config) -> str:
    """The content address of one ``evaluate_application(app, config)``."""
    return _digest({
        "salt": CACHE_SALT,
        "graph": graph_fingerprint(app.graph),
        "deadline": repr(float(app.deadline)),
        "app": app.name,
        "config": config_payload(config),
    })


def plan_setup_key(app: Application, config) -> str:
    """Fingerprint of the prepared per-evaluation worker state.

    Everything a worker builds once per evaluation — plans, compiled
    programs, policies, power/overhead models — depends on the graph,
    the deadline and the config *except* the Monte-Carlo draw
    (``n_runs``/``seed``/``sigma_fraction``), so repeated evaluations
    of one point reuse the worker's prepared setup across calls.
    """
    payload = config_payload(config)
    for draw_field in ("n_runs", "seed", "sigma_fraction"):
        payload.pop(draw_field, None)
    return _digest({
        "salt": CACHE_SALT,
        "graph": graph_fingerprint(app.graph),
        "deadline": repr(float(app.deadline)),
        "config": payload,
    })


class EvaluationCache:
    """A directory of content-addressed evaluation results.

    ``get``/``put`` never raise on storage problems: a broken entry or
    an unwritable directory degrades to recomputation with a warning,
    because caching is an optimization, not a correctness dependency.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        # two-level fan-out keeps directory listings small at scale
        return self.root / key[:2] / f"{key}.npz"

    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry aside (best-effort; unlink as fallback)."""
        qpath = self.quarantine_dir() / path.name
        try:
            qpath.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, qpath)
            self.quarantined += 1
            return qpath
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- read ---------------------------------------------------------------
    def get(self, key: str, app_name: str, config):
        """The cached :class:`EvaluationResult`, or ``None`` on a miss.

        ``config`` is re-attached to the reconstructed result (it is
        part of the key, so it describes the stored arrays exactly).
        """
        path = self.path_for(key)
        if not path.is_file():
            self.misses += 1
            return None
        if faults.fire("cache-read", key=key[:8]) == "corrupt":
            _truncate_entry(path)
        try:
            # open the handle ourselves: np.load leaks it when the
            # archive is truncated, and the quarantine move below wants
            # the file closed
            with open(path, "rb") as fh, \
                    np.load(fh, allow_pickle=False) as data:
                result = _payload_to_result(dict(data), app_name, config)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                EOFError) as exc:
            self.errors += 1
            self.misses += 1
            qpath = self._quarantine(path)
            where = (f"quarantined to {qpath}" if qpath is not None
                     else "deleted (quarantine unavailable)")
            warnings.warn(
                f"corrupted evaluation-cache entry {path}: {exc!r} — "
                f"{where}; the point will be recomputed",
                RuntimeWarning, stacklevel=2)
            return None
        self.hits += 1
        return result

    # -- write --------------------------------------------------------------
    def put(self, key: str, result) -> None:
        """Store one result (best-effort, atomic within the directory)."""
        path = self.path_for(key)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                np.savez(fh, **_result_to_payload(result))
            os.replace(tmp, path)
        except OSError as exc:
            warnings.warn(
                f"could not write evaluation-cache entry {path}: {exc!r}",
                RuntimeWarning, stacklevel=2)
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- bookkeeping --------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/error/quarantine counters since construction."""
        return {"hits": self.hits, "misses": self.misses,
                "errors": self.errors, "quarantined": self.quarantined}


def _truncate_entry(path: Path) -> None:
    """Injected 'torn write': chop the entry to half its bytes."""
    try:
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
    except OSError:  # pragma: no cover - injected path, best effort
        pass


def _result_to_payload(result) -> Dict[str, np.ndarray]:
    """EvaluationResult → flat array mapping for ``np.savez``.

    Only the independent arrays are stored: ``normalized`` is exactly
    ``absolute / npm_energy`` and is re-derived on load by the same
    division, so a round-trip is bit-identical.
    """
    schemes = list(result.absolute)
    payload: Dict[str, np.ndarray] = {
        "format": np.asarray(CACHE_FORMAT),
        "schemes": np.asarray(schemes),
        "npm_energy": result.npm_energy,
        "path_keys": np.asarray(result.path_keys),
    }
    for name in schemes:
        payload[f"abs::{name}"] = result.absolute[name]
        payload[f"chg::{name}"] = result.speed_changes[name]
    return payload


def _payload_to_result(data: Dict[str, np.ndarray], app_name: str, config):
    """Inverse of :func:`_result_to_payload` (validating)."""
    from .runner import EvaluationResult  # runner does not import us
    if int(data["format"]) != CACHE_FORMAT:
        raise ValueError(f"unsupported cache entry format {data['format']}")
    schemes = [str(s) for s in data["schemes"]]
    expected = [get_policy(name).name for name in config.schemes]
    if schemes != expected:
        raise ValueError(
            f"cache entry schemes {schemes} do not match config {expected}")
    npm = data["npm_energy"]
    if npm.shape != (config.n_runs,):
        raise ValueError(
            f"cache entry holds {npm.shape} runs, config asks "
            f"{config.n_runs}")
    keys = data["path_keys"]
    if keys.shape != npm.shape:
        raise ValueError(
            f"cache entry holds {keys.shape} path keys for "
            f"{config.n_runs} runs")
    result = EvaluationResult(
        app_name=app_name, config=config, npm_energy=npm,
        path_keys=[str(k) for k in keys])
    for name in schemes:
        absolute = data[f"abs::{name}"]
        changes = data[f"chg::{name}"]
        if absolute.shape != npm.shape or changes.shape != npm.shape:
            raise ValueError(f"cache entry arrays for {name!r} are ragged")
        result.absolute[name] = absolute
        result.normalized[name] = absolute / npm
        result.speed_changes[name] = changes
    return result
