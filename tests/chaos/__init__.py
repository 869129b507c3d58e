"""Chaos suite: deterministic fault injection against the engine.

These tests drive every recovery path of the resilient execution
engine — worker crashes, shared-memory attach failures, corrupt cache
entries, failed admission probes — through
:mod:`repro.experiments.faults` and prove the recovered results
bit-identical to the fault-free serial reference.  They kill pool
workers on purpose, so CI runs them as their own job; see
``docs/testing.md``.
"""
