"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common cases (malformed graphs, infeasible
deadlines, bad power-model parameters).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """A structural problem with an AND/OR graph.

    Raised for cycles, dangling edges, duplicate node names, OR branch
    probabilities that do not sum to one, and violations of the
    section-structured OR semantics the paper assumes (all processors
    synchronize at an OR node).
    """


class ValidationError(GraphError):
    """A graph failed explicit validation (:func:`repro.graph.validate`)."""


class InfeasibleError(ReproError):
    """The offline phase proved the application cannot meet its deadline.

    Mirrors the paper's off-line failure case: if the canonical schedule of
    the longest path exceeds the deadline the algorithm "fails to guarantee
    the deadline" and no online phase is attempted.
    """

    def __init__(self, worst_case: float, deadline: float, detail: str = ""):
        self.worst_case = worst_case
        self.deadline = deadline
        msg = (
            f"canonical worst-case finish time {worst_case:.6g} exceeds "
            f"deadline {deadline:.6g}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PowerModelError(ReproError):
    """Invalid power-model configuration (empty level table, bad voltage...)."""


class SimulationError(ReproError):
    """An internal inconsistency detected while simulating.

    These indicate bugs (e.g. a deadline miss under a scheme that is proven
    to meet deadlines) and are therefore *raised*, never swallowed.
    """


def invalid_actual(actual: float, name: str, wcet) -> SimulationError:
    """The engines' error for an actual execution time outside
    ``[0, wcet]``: over-WCET actuals keep the "exceeds WCET" wording;
    NaN and negative actuals are named as invalid."""
    if actual >= 0.0:
        return SimulationError(
            f"actual time {actual} of {name!r} exceeds WCET {wcet}")
    return SimulationError(
        f"invalid actual time {actual} of {name!r}: must lie in "
        f"[0, WCET {wcet}]")


class DeadlineMissError(SimulationError):
    """A simulated run finished after its deadline.

    For the paper's schemes this must never happen when the offline phase
    succeeded (Theorem 1); the simulator raises it eagerly so property tests
    can falsify the implementation rather than silently producing bad energy
    numbers.
    """

    def __init__(self, finish_time: float, deadline: float, scheme: str = "?"):
        self.finish_time = finish_time
        self.deadline = deadline
        self.scheme = scheme
        super().__init__(
            f"scheme {scheme!r} finished at {finish_time:.6g} past deadline "
            f"{deadline:.6g}"
        )


class ConfigError(ReproError):
    """Invalid experiment or workload configuration."""


class ParallelError(ReproError):
    """A worker process failed during a parallel fan-out.

    Wraps the original exception together with the failing work item's
    context (the sweep point's label), so a crash inside
    a process pool is attributable without digging through subprocess
    tracebacks.  The original exception is chained as ``__cause__``.
    """

    def __init__(self, label: str, cause: BaseException):
        self.label = label
        super().__init__(
            f"parallel worker failed for {label}: "
            f"{type(cause).__name__}: {cause}"
        )


class FaultInjected(ReproError):
    """An error raised on purpose by the fault-injection layer.

    Only ever raised when a :class:`repro.experiments.faults.FaultPlan`
    is installed (chaos tests); production code never constructs it.
    The ``online-admit`` site raises it to exercise the admission
    probe's retry.
    """
