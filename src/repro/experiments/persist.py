"""Persistence of experiment results.

Full-size figure runs are cheap here but not free; persisting a
:class:`~repro.types.SeriesResult` as JSON lets EXPERIMENTS.md numbers
be re-rendered, diffed across code changes, and plotted without
re-simulating.  The format is versioned and validated on load.

Raw per-run arrays have their own binary persistence:
:func:`save_evaluation` / :func:`load_evaluation` round-trip one
:class:`~repro.experiments.runner.EvaluationResult` through the same
validated format-2 record the evaluation cache
(:mod:`repro.experiments.evalcache`) stores, so a saved evaluation is
bit-identical on reload — useful for archiving the exact arrays behind
a published figure, not just its summary statistics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..errors import ConfigError
from ..types import ExperimentPoint, SeriesResult, speed_change_items

FORMAT_VERSION = 1


def series_to_jsonable(series: SeriesResult) -> Dict:
    """SeriesResult → JSON-compatible dict."""
    meta = {}
    for k, v in series.meta.items():
        if k == "speed_changes" and isinstance(v, dict):
            # legacy in-memory dict keyed by raw float x: float keys are
            # not valid JSON, so persist in the aligned-list format
            meta[k] = [[x, per_x] for x, per_x in speed_change_items(v)]
        else:
            meta[k] = v
    return {
        "format_version": FORMAT_VERSION,
        "name": series.name,
        "x_label": series.x_label,
        "meta": meta,
        "points": [
            {"x": p.x, "scheme": p.scheme, "mean": p.mean,
             "std": p.std, "n_runs": p.n_runs, "ci95": p.ci95}
            for p in series.points
        ],
    }


def series_from_jsonable(data: Dict) -> SeriesResult:
    """JSON dict → SeriesResult (validating)."""
    try:
        version = data["format_version"]
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported series format version {version} "
                f"(expected {FORMAT_VERSION})")
        meta = dict(data.get("meta", {}))
        if "speed_changes" in meta:
            # old files stored a dict with stringified float keys;
            # normalize everything to the aligned-list format on read
            meta["speed_changes"] = [
                [x, per_x]
                for x, per_x in speed_change_items(meta["speed_changes"])]
        series = SeriesResult(name=str(data["name"]),
                              x_label=str(data["x_label"]), meta=meta)
        for p in data["points"]:
            series.points.append(ExperimentPoint(
                x=float(p["x"]), scheme=str(p["scheme"]),
                mean=float(p["mean"]), std=float(p["std"]),
                n_runs=int(p["n_runs"]), ci95=float(p.get("ci95", 0.0))))
        return series
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed series JSON: {exc}") from exc


def save_series(series_by_key: Dict[str, SeriesResult],
                path: Union[str, Path]) -> None:
    """Write a bundle of named series (e.g. one per power model)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "series": {k: series_to_jsonable(s)
                   for k, s in series_by_key.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True),
                          encoding="utf-8")


def load_series(path: Union[str, Path]) -> Dict[str, SeriesResult]:
    """Read a bundle written by :func:`save_series`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no such series file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict) or "series" not in payload:
        raise ConfigError(f"{path} is not a series bundle")
    return {k: series_from_jsonable(v)
            for k, v in payload["series"].items()}


def save_evaluation(result, path: Union[str, Path]) -> None:
    """Write one evaluation's raw per-run arrays as one record file.

    The record is the evaluation cache's on-disk format (schemes,
    per-run NPM energies, per-scheme absolute energies and switch
    counts, executed-path ids and their path table); ``normalized`` is
    re-derived exactly on load.
    """
    from .evalcache import encode_record
    Path(path).write_bytes(encode_record(result))


def load_evaluation(path: Union[str, Path], app_name: str, config):
    """Read an evaluation saved by :func:`save_evaluation` (validating).

    ``app_name``/``config`` re-attach the context the arrays were
    computed under; the config must describe the stored arrays (same
    schemes, same ``n_runs``) or a :class:`ConfigError` is raised, as
    it is for a file in any other format (a format-1 ``.npz`` included).
    """
    from .evalcache import decode_record, read_record
    try:
        return decode_record(read_record(path), app_name, config)
    except FileNotFoundError:
        raise ConfigError(f"no such evaluation file: {path}") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"malformed evaluation file {path}: {exc}") from exc


def merge_series(a: SeriesResult, b: SeriesResult) -> SeriesResult:
    """Concatenate two sweeps of the same experiment (disjoint x)."""
    if a.x_label != b.x_label:
        raise ConfigError(
            f"cannot merge series over different axes: {a.x_label} vs "
            f"{b.x_label}")
    overlap = set(a.xs()) & set(b.xs())
    if overlap:
        raise ConfigError(f"series overlap at x = {sorted(overlap)}")
    merged = SeriesResult(name=a.name, x_label=a.x_label,
                          meta={**a.meta, **b.meta})
    sc = (speed_change_items(a.meta.get("speed_changes"))
          + speed_change_items(b.meta.get("speed_changes")))
    if sc:
        merged.meta["speed_changes"] = [
            [x, per_x] for x, per_x in sorted(sc, key=lambda it: it[0])]
    merged.points = sorted(a.points + b.points, key=lambda p: p.x)
    return merged
