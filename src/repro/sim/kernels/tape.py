"""Flat numeric tape form of a compiled section program.

A :class:`~repro.sim.compiled.CompiledPlan` (or a
:class:`~repro.sim.sweepc.StackedProgram`) stores each section as a
tuple of per-entry tuples — convenient to build, but the batch kernels
then pay CPython tuple unpacking and a nested ``for p in preds`` Python
reduction on every entry of every path group.  This module lowers a
program once into a **tape** per section —

* ``steps`` — one ``(is_and, slot, col, pred, crel)`` tuple per entry:
  the entry's row in the section's finishes buffer (its position in
  the section), its column in the realization matrix (``-1`` for AND),
  its intra-section predecessors' rows pre-split as ``None`` / a single
  ``int`` / an index array (so the readiness max-reduction is one
  gather + ``max`` instead of a Python loop), and its ordinal among the
  section's computation entries.  Predecessors never leave their
  section, so a kernel's finishes buffer needs only
  :attr:`ProgramTape.max_entries` rows — the longest section — instead of
  one per program slot.  AND entries that cannot change an output — a
  fork at the section root, a join at its sink — get no step, and
  their readers no predecessor row for them (see :func:`_noop_ands`);
* ``c`` — the WCET lane, plus the computation-entry selectors
  ``comp_sel``/``comp_cols`` and guard row ``c_guard`` for the
  hoisted WCET check;
* ``c_list``/``fb_list`` — the per-entry WCET and finish-bound
  constants as stored on the program;

plus, for stacked programs whose constants vary per sweep point,
``c_pt``/``fb_pt`` matrices of shape ``(n_entries, n_points)`` with
scalar rows broadcast — one fancy-index per section per block then
gathers *every* entry's per-run constants at once — and ``c_vary``,
whether the WCETs are among the varying constants (only then is
``c_pt`` gathered).  Broadcasting a
scalar to a vector changes no float: the kernels perform the same
elementwise operations on the same values, so tape execution stays
bit-identical to the dict engine.

Entry *names* survive only in ``names`` for error paths (WCET
violations, guarantee violations); the hot loop never touches a string.

The tape is built lazily and cached on the program instance
(``prog._tape``), so it compiles once per program per process and
travels with the program through the pool initializer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

_tape_hits = 0
_tape_misses = 0


def tape_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of this process's tape builds (hits = a program
    whose tape was already built, misses = fresh lowerings)."""
    return {"hits": _tape_hits, "misses": _tape_misses}


def clear_tape_cache() -> None:
    """Reset the tape hit/miss counters (tapes themselves live on their
    program instances and are dropped with them)."""
    global _tape_hits, _tape_misses
    _tape_hits = 0
    _tape_misses = 0


def _noop_ands(entries, pos_of) -> frozenset:
    """Positions of the section's AND entries whose step cannot change
    an output, so the tape leaves them out.

    An AND whose predecessors are all such ANDs (a fork at the section
    root) is ready at ``t_section``, which every reader's readiness
    ``max(t_section, ...)`` already includes.  An AND that no kept step
    reads (a join at the section sink) feeds only the section end
    ``max(sec_max, t_section)``, which every predecessor's finish
    already enters.  ``max`` is exact, so no float changes.
    """
    preds = [[pos_of[p] for p in entry[6]] for entry in entries]
    dropped = set()
    for e, entry in enumerate(entries):
        if entry[0] and all(p in dropped for p in preds[e]):
            dropped.add(e)
    readers = [0] * len(entries)
    for e in range(len(entries)):
        if e not in dropped:
            for p in preds[e]:
                readers[p] += 1
    # backwards, so an AND read only by a dropped sink AND goes too
    for e in range(len(entries) - 1, -1, -1):
        if entries[e][0] and e not in dropped and not readers[e]:
            dropped.add(e)
            for p in preds[e]:
                readers[p] -= 1
    return frozenset(dropped)


class SectionTape:
    """One section of a program, lowered to flat arrays."""

    __slots__ = ("n_entries", "c", "names", "steps",
                 "c_pt", "fb_pt", "c_vary", "c_list", "fb_list",
                 "comp_sel", "comp_cols", "c_guard")

    def __init__(self, sec, n_points: int):
        entries = sec.entries
        n = len(entries)
        self.n_entries = n
        c_lane = np.empty(n, dtype=np.float64)
        comp_sel = []
        comp_cols = []
        steps = []
        names = []
        c_cols = []
        fb_cols = []
        stacked = False
        c_vary = False
        n_comp = 0
        pos_of = {entry[1]: e for e, entry in enumerate(entries)}
        dropped = _noop_ands(entries, pos_of)
        for e, (is_and, _g, cl, c, fb, name, preds) in enumerate(entries):
            names.append(name)
            rows = [pos_of[p] for p in preds if pos_of[p] not in dropped]
            if not rows:
                pred = None
            elif len(rows) == 1:
                pred = rows[0]
            else:
                pred = np.asarray(rows, dtype=np.intp)
            # crel: this entry's ordinal among the section's computation
            # entries — its column in the interpreter's per-section
            # precomputed matrices (-1 for AND nodes, never used)
            crel = -1
            if not is_and:
                crel = n_comp
                n_comp += 1
                comp_sel.append(e)
                comp_cols.append(cl)
            if e not in dropped:
                steps.append((bool(is_and), e, int(cl), pred, crel))
            c_cols.append(c)
            fb_cols.append(fb)
            c_vec = isinstance(c, np.ndarray)
            c_vary = c_vary or c_vec
            stacked = stacked or c_vec or isinstance(fb, np.ndarray)
            # the scalar lane is only meaningful when c_pt is None
            c_lane[e] = np.nan if c_vec else float(c)
        self.c = c_lane
        self.names = tuple(names)
        self.steps = tuple(steps)
        self.c_list = tuple(c_cols)
        self.fb_list = tuple(fb_cols)
        #: computation entries only: their entry indices, realization
        #: columns, and WCET guard row (``c * (1 + 1e-9)``, the exact
        #: product the per-entry check computes) — lets the interpreter
        #: run one whole-section WCET check instead of one per entry
        self.comp_sel = np.asarray(comp_sel, dtype=np.intp)
        self.comp_cols = np.asarray(comp_cols, dtype=np.intp)
        self.c_guard = c_lane[self.comp_sel] * (1 + 1e-9)
        self.c_pt: Optional[np.ndarray] = None
        self.fb_pt: Optional[np.ndarray] = None
        if stacked and n_points:
            c_pt = np.empty((n, n_points))
            fb_pt = np.empty((n, n_points))
            for e in range(n):
                c_pt[e, :] = c_cols[e]   # broadcasts point-agreed scalars
                fb_pt[e, :] = fb_cols[e]
            self.c_pt = c_pt
            self.fb_pt = fb_pt
        #: whether any entry's WCET differs between points (``c_pt``
        #: then carries information the scalar ``c_list`` cannot); a
        #: load sweep varies only the finish bounds, so its kernels read
        #: the scalar WCETs and gather only ``fb_pt``
        self.c_vary = bool(c_vary and self.c_pt is not None)


class ProgramTape:
    """The tape of every section of one program, plus per-path caches."""

    __slots__ = ("sections", "n_points", "max_entries", "_wcet_cache")

    def __init__(self, sections: Dict[int, SectionTape], n_points: int):
        self.sections = sections
        self.n_points = n_points
        #: rows of a kernel's finishes buffer: the longest section
        self.max_entries = max(
            (st.n_entries for st in sections.values()), default=0)
        self._wcet_cache: Dict[Tuple[int, ...], tuple] = {}

    def path_wcet(self, path: Tuple[int, ...]) -> tuple:
        """Cached per-path WCET-check arrays ``(cols, offs, guard,
        g_pt, g_class)``: the realization columns of every computation entry on
        the path (section by section, path order), per-section offsets
        into that concatenation (section ``i``'s entries sit at
        ``cols[offs[i]:offs[i+1]]``), and the guard — the precomputed
        ``c * (1 + 1e-9)`` row for programs with scalar constants
        (``g_pt`` is then ``None``), or a per-point ``(n_comp,
        n_points)`` WCET matrix for stacked programs (``guard`` is then
        ``None``; scalar-collapsed sections are broadcast into it, the
        same floats either way).  ``g_class`` gives each point the
        lowest point whose ``g_pt`` column has the same bytes — points
        of one class pass or fail the WCET check on the same rows alike
        (``None`` without ``g_pt``)."""
        hit = self._wcet_cache.get(path)
        if hit is not None:
            return hit
        col_parts = []
        offs = [0]
        for sid in path:
            st = self.sections[sid]
            col_parts.append(st.comp_cols)
            offs.append(offs[-1] + st.comp_cols.size)
        cols = (np.concatenate(col_parts) if col_parts
                else np.empty(0, dtype=np.intp))
        offs_arr = np.asarray(offs, dtype=np.intp)
        guard = None
        g_pt = None
        g_class = None
        if self.n_points:
            rows = [self.sections[sid].c_pt[self.sections[sid].comp_sel]
                    if self.sections[sid].c_pt is not None
                    else np.broadcast_to(
                        self.sections[sid].c[
                            self.sections[sid].comp_sel][:, None],
                        (self.sections[sid].comp_sel.size, self.n_points))
                    for sid in path]
            g_pt = (np.concatenate(rows) if rows
                    else np.empty((0, self.n_points)))
            first: Dict[bytes, int] = {}
            g_class = tuple(first.setdefault(g_pt[:, p].tobytes(), p)
                            for p in range(self.n_points))
        else:
            guard = (np.concatenate([self.sections[sid].c_guard
                                     for sid in path]) if path
                     else np.empty(0))
        entry = (cols, offs_arr, guard, g_pt, g_class)
        self._wcet_cache[path] = entry
        return entry


def build_tape(prog) -> ProgramTape:
    """The program's tape, lowered once and cached on the instance."""
    global _tape_hits, _tape_misses
    tape = getattr(prog, "_tape", None)
    if tape is not None:
        _tape_hits += 1
        return tape
    _tape_misses += 1
    n_points = int(getattr(prog, "n_points", 0) or 0)
    tape = ProgramTape({sid: SectionTape(sec, n_points)
                        for sid, sec in prog.sections.items()}, n_points)
    prog._tape = tape
    return tape
