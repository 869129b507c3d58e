"""Run statistics: per-layer spans and event counters, recorded once.

A :func:`recording` keeps, while it is open, every ``span(name)`` (a
context manager or decorator around one layer call: one call and its
*self* seconds, its duration minus the spans it encloses), every
``count(name, n)``, and at its close the deltas of the cache counters
registered with :func:`watch` (or passed as its own ``probes``).

Recordings nest: spans and counts reach every open recording, while
each takes its own cache deltas.  A pool task runs under a ``detached``
recording in its worker, and the parent adds the totals it returns with
:func:`merge`.  Only the thread that opens recordings takes spans.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Mapping, Optional

Stats = Callable[[], Mapping[str, int]]

_WATCHED: Dict[str, Stats] = {}
_open: List["Recording"] = []
_frames: List[List[float]] = []  # [start, child seconds] per open span


def watch(prefix: str, stats: Stats) -> None:
    """Record ``stats()``'s counters but ``size`` as ``<prefix>.<name>``."""
    _WATCHED[prefix] = stats


def _read(probes: Mapping[str, Stats]) -> Dict[str, int]:
    return {f"{prefix}.{k}": v for prefix, stats in probes.items()
            for k, v in stats().items() if k != "size"}


class Recording:
    """Counters, spans (name -> ``[calls, self seconds]``), wall time."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.spans: Dict[str, List[float]] = {}
        self.wall_s = 0.0

    def add(self, totals: Mapping) -> None:
        """Add another recording's :meth:`totals`, but not its wall time."""
        for name, n in totals["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, sp in totals["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += sp["calls"]
            entry[1] += sp["s"]

    def totals(self) -> Dict[str, object]:
        """The JSON-ready block a series keeps as ``meta["obs"]``."""
        return {"wall_s": self.wall_s,
                "counters": dict(sorted(self.counters.items())),
                "spans": {name: {"calls": int(c), "s": s}
                          for name, (c, s) in sorted(self.spans.items())}}


@contextmanager
def recording(probes: Optional[Mapping[str, Stats]] = None,
              detached: bool = False) -> Iterator[Recording]:
    """Record until the block exits; ``detached`` hides the open ones."""
    global _open, _frames
    rec = Recording()
    probes = {**_WATCHED, **(probes or {})}
    before = _read(probes)
    saved = _open, _frames
    if detached:
        _open, _frames = [], []
    _open.append(rec)
    t0 = perf_counter()
    try:
        yield rec
    finally:
        rec.wall_s = perf_counter() - t0
        _open.remove(rec)
        _open, _frames = saved
        for name, n in _read(probes).items():
            rec.counters[name] = (rec.counters.get(name, 0) + n
                                  - before.get(name, 0))


class span:
    """Time one layer call: ``with span(name):`` or ``@span(name)``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> None:
        _frames.append([perf_counter(), 0.0])

    def __exit__(self, *exc_info) -> None:
        start, inner = _frames.pop()
        took = perf_counter() - start
        if _frames:
            _frames[-1][1] += took
        for rec in _open:
            entry = rec.spans.setdefault(self.name, [0, 0.0])
            entry[0] += 1
            entry[1] += took - inner

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)
        return timed


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` in every open recording."""
    for rec in _open:
        rec.counters[name] = rec.counters.get(name, 0) + n


def merge(totals: Mapping) -> None:
    """Add a worker's :meth:`Recording.totals` to every open recording."""
    for rec in _open:
        rec.add(totals)


def summary(totals: Mapping) -> str:
    """Wall time, span coverage, the 3 slowest spans, non-zero counters."""
    wall = totals["wall_s"]
    spans = sorted(totals["spans"].items(), key=lambda kv: -kv[1]["s"])
    line = f"{wall:.3f} s"
    if spans and wall > 0:
        covered = sum(sp["s"] for _name, sp in spans)
        line += f", {covered / wall:.0%} in spans: " + ", ".join(
            f"{name} {sp['s']:.3f} s" for name, sp in spans[:3])
    counters = [f"{k}={v}" for k, v in totals["counters"].items() if v]
    return line + ("; " + ", ".join(counters) if counters else "")
