"""Content-addressed on-disk cache of Monte-Carlo evaluation points.

A sweep point is fully determined by *what* is evaluated — the
application (graph + deadline) and the result-relevant
:class:`~repro.experiments.runner.RunConfig` fields — never by *how*
(worker counts and retry policies are bit-identical by contract).
That makes evaluation results safely content-addressable:

``key = sha256(graph fingerprint, deadline, app name,
canonical config payload, code-version salt)``

so ``repro fig`` / ``repro suite`` regeneration is incremental —
unchanged points load from ``.repro-cache/``, changed points (any edit
to the graph, seed, run count, σ, schemes, engine, power or overhead
model) recompute.

Each entry is one format-2 record, ``<root>/<key[:2]>/<key>.rec``:

* an 8-byte magic and a little-endian ``u32`` header length;
* a JSON header — ``format``, ``schemes``, ``n_runs``, ``paths`` (the
  distinct executed-path keys in first-seen order) and a ``crc32`` over
  the newline-joined path table and the body — padded with spaces so
  the body starts 8-byte aligned;
* the body: one little-endian float64 matrix of shape ``(1 + 2S, n)``
  (NPM energy, each scheme's absolute energy, each scheme's switch
  count), then ``int32[n]`` path ids indexing ``paths``.

A hit opens the file once (a missing file is a plain miss, so there is
no separate existence check), parses one JSON header and returns row
views of the matrix (exact float64 bits; ``normalized`` is re-derived
by the same division the runner performs, so a cache hit is
bit-identical to a recompute) and the stored ``int32`` path ids with
their table, from which ``path_keys`` is derived only on request.
Entries are written atomically (tmp + rename) so concurrent writers
can share one cache directory.  A corrupted,
truncated or wrong-schema entry — bad magic, unknown format, a body
whose length or crc32 does not match, path ids that do not cover every
run or fall outside the path table — is treated as a miss and
**quarantined**: moved aside into ``<root>/quarantine/`` (for
post-mortem inspection) with a single warning, after which the point
is recomputed and re-written — the cache can never poison results, and
the broken bytes are kept as evidence rather than destroyed.  Format-1
entries were ``.npz`` files; the ``.rec`` suffix means they are never
opened, only missed.

:func:`encode_record` / :func:`decode_record` are the only codec:
:mod:`repro.experiments.persist` saves and loads evaluations with it.

``CACHE_SALT`` is the code-version component of the key: bump it
whenever a change alters simulation outputs, and every stale entry
silently becomes a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import warnings
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..core.registry import get_policy
from ..graph.andor import Application
from ..offline.plan import graph_fingerprint
from . import faults

#: bump when a code change alters simulation outputs (invalidates every
#: existing cache entry without touching the on-disk format)
CACHE_SALT = "eval-v1"

#: on-disk record layout version (validated on load)
CACHE_FORMAT = 2

#: opens every record: 8-byte magic, then the JSON header's length
_MAGIC = b"REPROEV\n"
_PREAMBLE = struct.Struct("<8sI")

#: the first bytes of a format-1 ``.npz`` (a zip archive)
_ZIP_MAGIC = b"PK\x03\x04"

#: default cache directory, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: RunConfig fields that determine evaluation *results*.  Execution
#: knobs (max_retries, degrade) are excluded by design: they are
#: bit-identical by contract and must share entries.
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


#: ``(config, canonical scheme labels, config JSON)`` of the last config
#: object seen: a sweep keys and reads every point with one frozen
#: config, so its schemes resolve and its payload encodes once per sweep
_last_config: Optional[Tuple[object, List[str], str]] = None


def _config_parts(config) -> Tuple[List[str], str]:
    """A config's canonical scheme labels and its payload's JSON."""
    global _last_config
    memo = _last_config
    if memo is None or memo[0] is not config:
        payload = config_payload(config)
        memo = _last_config = (config, payload["schemes"], json.dumps(
            payload, sort_keys=True, separators=(",", ":")))
    return memo[1], memo[2]


@obs.span("experiments.evalcache.key")
def evaluation_key(app: Application, config) -> str:
    """The content address of one ``evaluate_application(app, config)``.

    The SHA-256 of one sorted-key compact JSON object — ``app``,
    ``config`` (:func:`config_payload`), ``deadline`` (its ``repr``),
    ``graph`` (the fingerprint), ``salt`` — written out field by field
    around the config's memoized JSON (a string encodes the same with
    any separators).
    """
    dumps = json.dumps
    blob = (f'{{"app":{dumps(app.name)},'
            f'"config":{_config_parts(config)[1]},'
            f'"deadline":{dumps(repr(float(app.deadline)))},'
            f'"graph":{dumps(graph_fingerprint(app.graph))},'
            f'"salt":{dumps(CACHE_SALT)}}}')
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class EvaluationCache:
    """A directory of content-addressed evaluation results.

    ``get``/``put`` never raise on storage problems: a broken entry or
    an unwritable directory degrades to recomputation with a warning,
    because caching is an optimization, not a correctness dependency.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self._prefix = os.path.join(os.fspath(self.root), "")
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        return Path(self._path_str(key))

    def _path_str(self, key: str) -> str:
        # two-level fan-out keeps directory listings small at scale
        return f"{self._prefix}{key[:2]}{os.sep}{key}.rec"

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
    @obs.span("experiments.evalcache.get")
    def get(self, key: str, app_name: str, config):
        """The cached :class:`EvaluationResult`, or ``None`` on a miss.

        ``config`` is re-attached to the reconstructed result (it is
        part of the key, so it describes the stored arrays exactly).
        """
        path = self._path_str(key)
        try:
            buf = read_record(path)
            # only an entry that exists can be torn
            if faults.fire("cache-read", key=key[:8]) == "corrupt":
                _truncate_entry(path)
                buf = read_record(path)
            result = decode_record(buf, app_name, config)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            # no entry, or one another process moved aside since
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.errors += 1
            self.misses += 1
            qpath = self._quarantine(Path(path))
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
    @obs.span("experiments.evalcache.put")
    def put(self, key: str, result) -> None:
        """Store one result (best-effort, atomic within the directory)."""
        path = self.path_for(key)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(encode_record(result))
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


def _truncate_entry(path: str) -> None:
    """Injected 'torn write': chop the entry to half its bytes."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
    except OSError:  # pragma: no cover - injected path, best effort
        pass


def _checksum(paths, body) -> int:
    """crc32 of the newline-joined path table followed by the body."""
    return zlib.crc32(body, zlib.crc32("\n".join(paths).encode("utf-8")))


def encode_record(result) -> bytes:
    """EvaluationResult → one format-2 record (see the module docstring).

    Only the independent arrays are stored: ``normalized`` is exactly
    ``absolute / npm_energy`` and is re-derived on decode by the same
    division, so a round-trip is bit-identical.
    """
    from .runner import first_seen_paths  # runner does not import us
    schemes = list(result.absolute)
    ids, paths = first_seen_paths(result.path_ids, result.path_table)
    matrix = np.stack(
        [result.npm_energy]
        + [result.absolute[name] for name in schemes]
        + [result.speed_changes[name] for name in schemes]
    ).astype("<f8", copy=False)
    body = matrix.tobytes() + ids.astype("<i4", copy=False).tobytes()
    header = json.dumps({
        "format": CACHE_FORMAT,
        "schemes": schemes,
        "n_runs": result.npm_energy.size,
        "paths": paths,
        "crc32": _checksum(paths, body),
    }, separators=(",", ":")).encode("utf-8")
    # pad with JSON whitespace so the float64 body starts 8-byte aligned
    header += b" " * (-(_PREAMBLE.size + len(header)) % 8)
    return _PREAMBLE.pack(_MAGIC, len(header)) + header + body


def read_record(path: Union[str, Path]) -> bytearray:
    """A record file's bytes, read once into one writable buffer."""
    with open(path, "rb", buffering=0) as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        got = fh.readinto(buf)
    del buf[got:]  # the file shrank since the stat: keep what was read
    return buf


def decode_record(buf: bytearray, app_name: str, config):
    """Inverse of :func:`encode_record` (validating).

    ``buf`` should be writable (see :func:`read_record`): the per-run
    arrays are row views of one matrix over it, writable like any
    computed result.  Every inconsistency raises ``ValueError``, or
    ``KeyError``/``TypeError`` for a header missing a field or holding
    one of the wrong type.
    """
    from .runner import EvaluationResult  # runner does not import us
    if buf[:4] == _ZIP_MAGIC:
        raise ValueError("found a format-1 .npz archive, expected a "
                         f"format-{CACHE_FORMAT} record")
    if len(buf) < _PREAMBLE.size:
        raise ValueError(f"record of {len(buf)} bytes has no preamble")
    magic, header_len = _PREAMBLE.unpack_from(buf)
    if magic != _MAGIC:
        raise ValueError(f"not an evaluation record (magic {magic!r})")
    start = _PREAMBLE.size + header_len
    header = json.loads(buf[_PREAMBLE.size:start])
    if not isinstance(header, dict):
        raise ValueError("record header is not a JSON object")
    if header.get("format") != CACHE_FORMAT:
        raise ValueError(
            f"unsupported evaluation record format {header.get('format')!r}")
    schemes = header["schemes"]
    expected = _config_parts(config)[0]
    if schemes != expected:
        raise ValueError(
            f"record schemes {schemes} do not match config {expected}")
    n = header["n_runs"]
    if n != config.n_runs:
        raise ValueError(f"record holds {n} runs, config asks "
                         f"{config.n_runs}")
    rows = 1 + 2 * len(schemes)
    floats = 8 * rows * n
    body = memoryview(buf)[start:]
    if len(body) != floats + 4 * n:
        raise ValueError(
            f"record body holds {len(body)} bytes, {n} runs of "
            f"{len(schemes)} schemes need {floats + 4 * n} (torn write, "
            f"or path ids that do not cover every run)")
    paths = header["paths"]
    if _checksum(paths, body) != header["crc32"]:
        raise ValueError("record path table or body fails its crc32")
    matrix = np.frombuffer(buf, dtype="<f8", count=rows * n,
                           offset=start).reshape(rows, n)
    ids = np.frombuffer(buf, dtype="<i4", count=n, offset=start + floats)
    if n and (ids.min() < 0 or ids.max() >= len(paths)):
        raise ValueError(
            f"record path ids outside its {len(paths)}-entry path table")
    npm = matrix[0]
    result = EvaluationResult(app_name=app_name, config=config,
                              npm_energy=npm, path_ids=ids, path_table=paths)
    for i, name in enumerate(schemes):
        absolute = matrix[1 + i]
        result.absolute[name] = absolute
        result.normalized[name] = absolute / npm
        result.speed_changes[name] = matrix[1 + len(schemes) + i]
    return result
