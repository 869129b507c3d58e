"""Self-check of the benchmark harness at toy sizes.

Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider

Checks that every workload emits every metric ``BENCHMARK.json`` names,
with its unit; that the traced pass restores every wrapper; that a
missing or changed layer reads ``None`` without stopping the run; and
that a corrupted output is counted as a failed call.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from worker import Checks, timed_calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_the_harness_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, (unit, _b, _n) in tracer.METRICS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def _site_values():
    out = {}
    for layer in tracer.LAYERS:
        for module, attr in layer.sites:
            owner, name = tracer._resolve(module, attr)
            out[(module, attr)] = vars(owner).get(name)
    return out


def _traced_call(tmp_path, workload="fig5_paper"):
    wl = WORKLOADS[workload](7, toy=True)
    wl.prepare(tmp_path)
    try:
        wl.call()
        t = tracer.Tracer()
        t.install()
        try:
            t.root(wl.call)
        finally:
            t.uninstall()
    finally:
        wl.cleanup()
    return t


def test_every_wrapper_is_restored(tmp_path):
    before = _site_values()
    t = tracer.Tracer()
    t.install()
    try:
        during = _site_values()
    finally:
        t.uninstall()
    assert not t.missing_sites
    assert all(during[k] is not before[k] for k in before)
    assert _site_values() == before
    _traced_call(tmp_path)
    assert all(v is before[k] for k, v in _site_values().items())


def test_missing_layer_reads_none(tmp_path, monkeypatch):
    resolve = tracer._resolve
    monkeypatch.setattr(
        tracer, "_resolve",
        lambda module, attr: None if attr.endswith("executed_paths")
        else resolve(module, attr))
    metrics = _traced_call(tmp_path).metrics(1.0, 1.0)
    gone = [n for n, v in metrics.items() if v is None]
    assert sorted(gone) == sorted(
        n for n in tracer.METRICS
        if n.startswith("sim.compiled.executed_paths."))
    assert metrics["sim.kernels.fixed.calls"] > 0


def test_layer_that_changed_shape_reads_none(tmp_path, monkeypatch):
    def hook(add, bound, call):
        call()
        return bound["no_such_argument"]

    layers = tuple(replace(layer, hook=hook)
                   if layer.span == "sim.compiled.executed_paths" else layer
                   for layer in tracer.LAYERS)
    monkeypatch.setattr(tracer, "LAYERS", layers)
    wl = WORKLOADS["fig5_paper"](7, toy=True)
    ref = wl.fingerprint(wl.call())
    t = tracer.Tracer()
    t.install()
    try:
        out = t.root(wl.call)
    finally:
        t.uninstall()
    assert not wl.problems(out, ref)
    assert t.broken == {"sim.compiled.executed_paths"}
    metrics = t.metrics(1.0, 1.0)
    assert metrics["sim.compiled.executed_paths.s"] is None
    assert metrics["sim.kernels.fixed.calls"] > 0


def test_layer_counts_of_a_toy_sweep(tmp_path):
    metrics = _traced_call(tmp_path).metrics(1.0, 1.0)
    assert metrics["sim.compiled.executed_paths.decode_ratio"] == 1.9
    assert metrics["sim.kernels.batched_ratio"] == 1.0
    assert metrics["sim.compiled.scalar.runs"] == 0
    assert 0.0 < metrics["trace.coverage"] <= 1.0


class _Corrupted:
    """A workload whose every call returns a one-ulp-perturbed output."""

    def __init__(self, inner):
        self.inner = inner

    def call(self):
        out = self.inner.call()
        if isinstance(out, dict):
            points = out["transmeta"].points
            points[0] = replace(points[0],
                                mean=np.nextafter(points[0].mean, 2.0))
        else:
            out.npm_energy[0] = np.nextafter(out.npm_energy[0], np.inf)
        return out

    def problems(self, out, ref):
        return self.inner.problems(out, ref)


@pytest.mark.parametrize("workload", ["fig5_paper", "online_poisson"])
def test_corrupted_output_is_counted_as_failed(workload):
    wl = WORKLOADS[workload](7, toy=True)
    checks = Checks(wl, wl.fingerprint(wl.call()))
    timed_calls(wl, 0.0, checks)
    assert checks.failed == 0
    timed_calls(_Corrupted(wl), 0.0, checks)
    timed_calls(_Corrupted(wl), 0.0, checks)
    assert (checks.attempted, checks.failed) == (3, 2)
    assert checks.problems
