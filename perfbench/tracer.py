"""In-memory span recorder and the call-site wrappers of the traced pass.

The traced pass measures each layer of ``repro`` from outside.  A
wrapper replaces the attribute a caller looks up -- a module-level name
bound by ``from x import f``, or a class attribute for a method --
records a span around the original call, and adds counters taken from
the call's arguments, its result, and deltas of the program's own
``*_cache_stats()`` functions around the call.  :meth:`Tracer.uninstall`
puts every original back.

A site that no longer exists (a function renamed or deleted by a later
change) is skipped.  A layer with no installed site, or whose arguments
or result no longer have the shape its counters read, reports ``None``
for each of its metrics while the program's own result passes through
unchanged, so the same benchmark runs on a parent commit and on the
change.

Spans stay in memory as ``Span`` records (name, start, end, parent span,
call id) and are written out as JSONL by :meth:`Tracer.write_jsonl`.
A span's self time is its duration minus the time its child spans
cover; every ``.s`` and ``.self_s`` metric is a self time, so the layer
times of one call add up to the call's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

#: the root span around one workload call; its self time is the
#: unattributed remainder (``experiments.self_s``)
ROOT = "workload"

#: schemes whose batch-kernel self time is reported one by one
KERNEL_SCHEMES = ("NPM", "SPM", "GSS", "SS1", "SS2", "AS")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    call: int
    name: str
    start: float
    end: float = 0.0
    tag: Optional[str] = None


def _size(path) -> int:
    return path.stat().st_size if path.is_file() else 0


def _count_rows(add, bound, call):
    result = call()
    add("sim.realization.sample.rows", len(result))
    return result


def _count_paths(add, bound, call):
    result = call()
    groups, _keys = result
    add("sim.compiled.executed_paths.runs", bound["n"])
    add("sim.compiled.executed_paths.distinct", len(groups))
    return result


def _kernel_rows(kind):
    def hook(add, bound, call):
        add(f"sim.kernels.{kind}.rows", bound["matrix"].shape[0])
        return call()
    return hook


def _count_scalar(add, bound, call):
    add("sim.compiled.scalar.runs", 1)
    return call()


def _cache_get(add, bound, call):
    cache = bound["self"]
    size = _size(cache.path_for(bound["key"]))
    before = cache.stats()
    result = call()
    after = cache.stats()
    if result is not None:
        add("experiments.evalcache.get.bytes", size)
    for k in ("hits", "misses", "quarantined"):
        add(f"experiments.evalcache.{k}", after[k] - before[k])
    return result


def _cache_put(add, bound, call):
    result = call()
    add("experiments.evalcache.put.bytes",
        _size(bound["self"].path_for(bound["key"])))
    return result


def _count_arrivals(add, bound, call):
    result = call()
    add("sim.arrivals.sample.arrivals", len(result))
    return result


def _count_admission(add, bound, call):
    result = call()
    add("experiments.online.admitted", result.n_admitted)
    add("experiments.online.rejected", result.n_rejected)
    add("experiments.online.admit_retries", result.admit_retries)
    return result


@dataclass(frozen=True)
class Layer:
    """One wrapped layer: where its callers look it up and what it counts.

    ``span`` names both the span and the metric prefix.  ``timing`` lists
    the span-derived metrics it reports (``calls``, ``s``, ``self_s``);
    ``stats`` names cache-stats functions whose hit/miss deltas around
    each call are added as ``<prefix>.hits``/``.misses``; ``hook`` runs
    the call and adds counters; ``tag`` names the argument that tags the
    span (the scheme of a batch-kernel call); ``record`` is False for a
    per-run site that only counts.
    """

    span: str
    sites: Tuple[Tuple[str, str], ...]
    timing: Tuple[str, ...] = ("calls", "s")
    stats: Tuple[Tuple[str, str, str], ...] = ()
    hook: Optional[Callable] = None
    tag: Optional[str] = None
    record: bool = True


def _sites(attr, *modules):
    return tuple((m, attr) for m in modules)


_EVAL_MODULES = ("repro.experiments.fused", "repro.experiments.online",
                 "repro.experiments.runner")

LAYERS: Tuple[Layer, ...] = (
    Layer("workloads.app_with_load",
          _sites("application_with_load", "repro.experiments.parallel",
                 "repro.experiments.online", "repro.experiments.sweeps")),
    Layer("offline.build_plan",
          _sites("build_plan", "repro.experiments.runner",
                 "repro.workloads.scaling"),
          stats=(("repro.offline.plan", "plan_cache_stats",
                  "offline.plan_cache"),)),
    Layer("sim.compiled.compile_plan",
          _sites("compile_plan", *_EVAL_MODULES),
          stats=(("repro.sim.compiled", "program_cache_stats",
                  "sim.compiled.program_cache"),)),
    Layer("sim.sweepc.stack_programs",
          _sites("stack_programs", "repro.experiments.fused"),
          stats=(("repro.sim.sweepc", "stacked_cache_stats",
                  "sim.sweepc.stacked_cache"),)),
    Layer("sim.kernels.build_tape",
          _sites("build_tape", "repro.sim.kernels.interp"),
          stats=(("repro.sim.kernels.tape", "tape_cache_stats",
                  "sim.kernels.tape_cache"),)),
    Layer("sim.realization.sample",
          _sites("sample_realization_batch", *_EVAL_MODULES),
          hook=_count_rows),
    Layer("sim.compiled.executed_paths",
          (("repro.sim.compiled", "CompiledPlan.executed_paths"),
           ("repro.sim.sweepc", "StackedProgram.executed_paths")),
          hook=_count_paths),
    Layer("sim.kernels.fixed", _sites("run_fixed_batch", *_EVAL_MODULES),
          hook=_kernel_rows("fixed"), tag="scheme"),
    Layer("sim.kernels.dynamic",
          _sites("run_dynamic_batch", *_EVAL_MODULES),
          hook=_kernel_rows("dynamic"), tag="scheme"),
    Layer("sim.compiled.scalar",
          (("repro.sim.compiled", "CompiledKernel.run"),),
          timing=(), hook=_count_scalar, record=False),
    Layer("experiments.fused",
          _sites("evaluate_points_fused", "repro.experiments.fused"),
          timing=("calls", "self_s")),
    Layer("experiments.evalcache.key",
          _sites("evaluation_key", "repro.experiments.evalcache")),
    Layer("experiments.evalcache.get",
          (("repro.experiments.evalcache", "EvaluationCache.get"),),
          hook=_cache_get),
    Layer("experiments.evalcache.put",
          (("repro.experiments.evalcache", "EvaluationCache.put"),),
          hook=_cache_put),
    Layer("sim.arrivals.sample",
          (("repro.experiments.online", "OnlineConfig.arrival_times"),),
          hook=_count_arrivals),
    Layer("experiments.online",
          _sites("simulate_online", "repro.experiments"),
          timing=("self_s",), hook=_count_admission),
)

_C, _S, _R, _B = "count", "s", "ratio", "bytes"

#: every per-layer metric: name -> (unit, better, layers it needs)
METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {}


def _metric(name, unit, better, *needs):
    METRICS[name] = (unit, better, needs)


for _layer in LAYERS:
    for _t in _layer.timing:
        _metric(f"{_layer.span}.{_t}", _C if _t == "calls" else _S,
                "lower", _layer.span)
    for _mod, _fn, _prefix in _layer.stats:
        _metric(f"{_prefix}.hits", _C, "higher", _layer.span)
        _metric(f"{_prefix}.misses", _C, "lower", _layer.span)
_metric("sim.realization.sample.rows", _C, "lower", "sim.realization.sample")
for _n in ("runs", "distinct"):
    _metric(f"sim.compiled.executed_paths.{_n}", _C, "lower",
            "sim.compiled.executed_paths")
_metric("sim.compiled.executed_paths.decode_ratio", _R, "lower",
        "sim.compiled.executed_paths", "sim.realization.sample")
for _kind in ("fixed", "dynamic"):
    _metric(f"sim.kernels.{_kind}.rows", _C, "lower", f"sim.kernels.{_kind}")
for _scheme in KERNEL_SCHEMES:
    _metric(f"sim.kernels.{_scheme}.s", _S, "lower",
            "sim.kernels.fixed", "sim.kernels.dynamic")
_metric("sim.kernels.batched_ratio", _R, "higher", "sim.kernels.fixed",
        "sim.kernels.dynamic", "sim.compiled.scalar")
_metric("sim.compiled.scalar.runs", _C, "lower", "sim.compiled.scalar")
_metric("experiments.evalcache.get.bytes", _B, "lower",
        "experiments.evalcache.get")
for _n, _better in (("hits", "higher"), ("misses", "lower"),
                    ("quarantined", "lower")):
    _metric(f"experiments.evalcache.{_n}", _C, _better,
            "experiments.evalcache.get")
_metric("experiments.evalcache.put.bytes", _B, "lower",
        "experiments.evalcache.put")
_metric("sim.arrivals.sample.arrivals", _C, "lower", "sim.arrivals.sample")
for _n, _better in (("admitted", "higher"), ("rejected", "lower"),
                    ("admit_ratio", "higher"), ("admit_retries", "lower")):
    _metric(f"experiments.online.{_n}", _R if _n == "admit_ratio" else _C,
            _better, "experiments.online")
_metric("experiments.self_s", _S, "lower")
_metric("trace.overhead_ratio", _R, "lower")
_metric("trace.coverage", _R, "higher")


def _resolve(module: str, attr: str):
    """``(owner, name)`` for a ``"f"`` or ``"Class.f"`` site, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


def _stats_fn(module: str, fn: str):
    site = _resolve(module, fn)
    return None if site is None else getattr(*site)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.call = 0
        self.installed: Dict[str, int] = {}
        self.missing_sites: List[str] = []
        #: layers whose counting failed on a changed signature or result
        self.broken: Set[str] = set()
        self._stack: List[Span] = []
        self._saved: List[Tuple[object, str, bool, object]] = []

    # -- spans --------------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.call, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def root(self, fn: Callable):
        """Run one workload call under the root span."""
        span = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(span)
            self.call += 1

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        sig = inspect.signature(original)
        stats = [(_stats_fn(m, f), prefix) for m, f, prefix in layer.stats]
        stats = [(fn, prefix) for fn, prefix in stats if fn is not None]
        hook = layer.hook or (lambda add, bound, call: call())
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = {}

            def call():
                span = tracer._open(layer.span) if layer.record else None
                if span is not None and layer.tag is not None:
                    span.tag = str(state["bound"].get(layer.tag))
                try:
                    state["result"] = original(*args, **kwargs)
                except BaseException as exc:
                    state["error"] = exc
                    raise
                finally:
                    if span is not None:
                        tracer._close(span)
                return state["result"]

            try:
                state["bound"] = bound = sig.bind(*args, **kwargs).arguments
                before = [fn() for fn, _p in stats]
                result = hook(tracer.add, bound, call)
                for (fn, prefix), b in zip(stats, before):
                    a = fn()
                    tracer.add(f"{prefix}.hits", a["hits"] - b["hits"])
                    tracer.add(f"{prefix}.misses", a["misses"] - b["misses"])
                return result
            except Exception as exc:
                if state.get("error") is exc:
                    raise
                # the layer's arguments, result or counters changed
                # shape: stop reporting it, keep the program's result
                tracer.broken.add(layer.span)
                if "result" in state:
                    return state["result"]
                return original(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every resolvable site of every layer."""
        for layer in LAYERS:
            n = 0
            for module, attr in layer.sites:
                site = _resolve(module, attr)
                if site is None:
                    self.missing_sites.append(f"{module}:{attr}")
                    continue
                owner, name = site
                own = name in vars(owner)
                original = getattr(owner, name)
                self._saved.append((owner, name, own,
                                    vars(owner).get(name)))
                setattr(owner, name, self._wrap(layer, original))
                n += 1
            self.installed[layer.span] = n

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._saved:
            owner, name, own, original = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- results ------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        child: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - child[s.id] for s in self.spans}

    def metrics(self, traced_wall: float, untraced_wall: float
                ) -> Dict[str, Optional[float]]:
        """Per-layer metrics, per workload call (``None`` = layer gone)."""
        n = max(self.call, 1)
        selfs = self.self_times()
        calls: Dict[str, int] = defaultdict(int)
        busy: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            busy[s.name] += selfs[s.id]
            if s.tag is not None:
                busy[f"tag:{s.tag}"] += selfs[s.id]
        c = self.counters
        out: Dict[str, Optional[float]] = {}
        for layer in LAYERS:
            for t in layer.timing:
                out[f"{layer.span}.{t}"] = (calls[layer.span] / n
                                            if t == "calls"
                                            else busy[layer.span] / n)
        for name in METRICS:
            if name not in out and name in c:
                out[name] = c[name] / n
        for scheme in KERNEL_SCHEMES:
            out[f"sim.kernels.{scheme}.s"] = busy[f"tag:{scheme}"] / n
        out["sim.compiled.executed_paths.decode_ratio"] = _ratio(
            c["sim.compiled.executed_paths.runs"],
            c["sim.realization.sample.rows"])
        batched = c["sim.kernels.fixed.rows"] + c["sim.kernels.dynamic.rows"]
        out["sim.kernels.batched_ratio"] = _ratio(
            batched, batched + c["sim.compiled.scalar.runs"])
        out["experiments.online.admit_ratio"] = _ratio(
            c["experiments.online.admitted"],
            c["experiments.online.admitted"]
            + c["experiments.online.rejected"])
        root_total = sum(s.end - s.start for s in self.spans
                         if s.name == ROOT)
        out["experiments.self_s"] = busy[ROOT] / n
        out["trace.coverage"] = _ratio(root_total - busy[ROOT], root_total)
        out["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
        for name, (_unit, _better, needs) in METRICS.items():
            if any(not self.installed.get(layer) or layer in self.broken
                   for layer in needs):
                out[name] = None
            else:
                out.setdefault(name, 0.0)
        return {name: out[name] for name in METRICS}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "call": s.call,
                    "name": s.name, "start": s.start, "end": s.end,
                    "tag": s.tag}) + "\n")
