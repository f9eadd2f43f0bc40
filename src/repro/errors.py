"""Exception hierarchy shared by every subpackage of :mod:`repro`.

Keeping all error types in a single module gives downstream users one
import point (``from repro.errors import PepaSyntaxError``) and lets the
CLI map any library failure to a non-zero exit code with a uniform
message format.
"""

from __future__ import annotations

from contextlib import contextmanager


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# PEPA / process-algebra front end
# ---------------------------------------------------------------------------


class PepaError(ReproError):
    """Base class for PEPA language and semantics errors."""


class PepaSyntaxError(PepaError):
    """Raised by the lexer or parser on malformed PEPA source.

    Carries ``line`` and ``column`` (1-based) when the location is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UnboundConstantError(PepaError):
    """A process constant is referenced but never defined."""


class UnboundRateError(PepaError):
    """A rate name is referenced but never defined."""


class CooperationError(PepaError):
    """Illegal cooperation, e.g. two passive participants synchronizing."""


class StateSpaceLimitError(PepaError):
    """State-space derivation exceeded the configured maximum state count."""


class DeadlockError(PepaError):
    """The derived transition system contains a deadlocked state where one
    was not expected (steady-state analysis of an absorbing chain)."""


class IllFormedModelError(PepaError):
    """Static well-formedness violation (self-loop rate 0, empty choice...)."""


# ---------------------------------------------------------------------------
# Bio-PEPA
# ---------------------------------------------------------------------------


class BioPepaError(ReproError):
    """Base class for Bio-PEPA model errors."""


class KineticLawError(BioPepaError):
    """A kinetic law references unknown species or has invalid parameters."""


class StoichiometryError(BioPepaError):
    """Inconsistent stoichiometry in a reaction definition."""


# ---------------------------------------------------------------------------
# GPEPA / fluid analysis
# ---------------------------------------------------------------------------


class GPepaError(ReproError):
    """Base class for grouped-PEPA model errors."""


class FluidSemanticsError(GPepaError):
    """The grouped model violates a precondition of the fluid translation."""


# ---------------------------------------------------------------------------
# Intermediate representation / solver backends
# ---------------------------------------------------------------------------


class IRError(ReproError):
    """Base class for intermediate-representation and backend errors.

    The frontend shims catch these and re-raise the frontend's own error
    type (``PepaError`` / ``BioPepaError`` / ``GPepaError``) with the
    same message, so existing callers keep their exception contracts.
    """


class BackendError(IRError):
    """Unknown capability/backend, or a backend rejected the given IR."""


class SimulationLimitError(IRError):
    """A stochastic simulation exceeded its event budget.

    Carries the structured ``budget`` (the configured ``max_events``)
    and ``events`` (jumps recorded when the budget tripped) so callers
    can distinguish a tight budget from a runaway model without parsing
    the message.
    """

    def __init__(
        self,
        message: str,
        *,
        budget: int | None = None,
        events: int | None = None,
    ):
        self.budget = budget
        self.events = events
        super().__init__(message)


class BatchedKernelError(BackendError):
    """The vectorized SSA kernel cannot serve this request.

    Raised when its padded jump table would be too large, or when its
    vectorized propensity evaluation fails the bit-identity self-check
    against the scalar law.  The ``ssa`` backend catches it and runs
    the ensemble on the scalar stepper instead of failing."""


@contextmanager
def reraise_ir_errors(error_type: type[ReproError]):
    """Convert :class:`IRError` raised in the block into ``error_type``.

    The frontend shims wrap their registry calls in this so callers keep
    seeing the frontend's own exception class with the backend's message.
    """
    try:
        yield
    except IRError as exc:
        raise error_type(str(exc)) from exc


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for execution-engine failures (pools, checkpoints)."""


class TaskTimeoutError(EngineError):
    """A task exceeded its per-task deadline on every allowed attempt.

    Raised rather than degraded to sequential: a task that hangs in a
    worker would hang the parent too.
    """


class TransportError(EngineError):
    """A transport could not deliver a task unit or its result.

    Covers unknown transport names, workers that exit without producing
    a sealed result, and result frames that fail their integrity check.
    Distinct from :class:`TaskTimeoutError` (the task ran too long) and
    from exceptions raised *by* the task, which transports re-raise
    as-is.
    """


class WorkerRejectedError(TransportError):
    """A fleet coordinator refused a worker's registration.

    Raised worker-side when registration is denied — a bad or missing
    fleet token (403) or an environment fingerprint that differs from
    the coordinator's (409).  A rejected worker must exit rather than
    retry: the refusal is deterministic, and a worker on a different
    numerical stack could silently break bit-identity if admitted.
    """


class ReplayError(EngineError):
    """A run manifest cannot be replayed, or the replay diverged.

    Raised for manifests that are malformed, not self-contained
    (``replayable`` false), produced by an incompatible manifest schema
    version, or — under ``--verify`` — whose re-execution failed to
    reproduce the recorded result digest bit-for-bit.
    """


class JobCancelledError(EngineError):
    """A workload was abandoned by its cancel scope.

    Raised cooperatively at task-unit boundaries (ensemble chunks,
    per-machine solves, sweep points) when the enclosing
    :class:`repro.engine.cancellation.CancelScope` was cancelled or its
    deadline passed.  ``reason`` is ``"cancelled"`` for an explicit
    cancellation and ``"deadline"`` for an overrun, so the job service
    can record the two as distinct terminal states.
    """

    def __init__(self, message: str, *, reason: str = "cancelled"):
        self.reason = reason
        super().__init__(message)


# ---------------------------------------------------------------------------
# Job service
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for solver-service failures (server and client side)."""


class JobRejectedError(ServiceError):
    """The service refused a submission under admission control.

    Carries the HTTP ``status`` the server answered with (429 for
    backpressure/rate limiting, 503 for overload shedding or draining)
    and the ``retry_after`` hint in seconds, so clients can implement
    honest backoff instead of parsing messages.
    """

    def __init__(self, message: str, *, status: int, retry_after: float | None = None):
        self.status = status
        self.retry_after = retry_after
        super().__init__(message)


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------


class NumericsError(ReproError):
    """Base class for numerical back-end failures."""


class SingularGeneratorError(NumericsError):
    """The CTMC generator does not admit a unique steady-state solution
    (reducible chain, absorbing states, or numerically singular system)."""


class ConvergenceError(NumericsError):
    """An iterative solver failed to converge within its iteration budget."""


class NumericalTrustError(NumericsError):
    """A solver result violated a structural invariant it must satisfy.

    Raised by the trust layer (:mod:`repro.ir.guards`) when a backend
    returns a plausible-looking but wrong answer — a steady-state vector
    off the probability simplex, a non-monotone passage CDF, an ODE
    trajectory with NaNs — or when a shadow re-solve on an independent
    backend disagrees beyond tolerance.  The structured attributes let
    the fallback chain and the chaos suite identify exactly which
    invariant failed on which backend.

    Attributes
    ----------
    invariant:
        Short name of the violated invariant (e.g. ``"simplex"``,
        ``"residual"``, ``"cdf_monotone"``, ``"shadow_mismatch"``).
    capability / backend:
        The registry dispatch that produced the untrusted result.
    token:
        The IR's cache-identity token when it has one (``None``
        otherwise), so a violation can be tied to a cached entry.
    detail:
        Free-form measurement backing the verdict (the defect size).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        capability: str | None = None,
        backend: str | None = None,
        token: object = None,
        detail: float | None = None,
    ):
        self.invariant = invariant
        self.capability = capability
        self.backend = backend
        self.token = token
        self.detail = detail
        where = f"{capability}/{backend}" if capability and backend else (backend or "?")
        super().__init__(f"[{invariant}] {where}: {message}")


# ---------------------------------------------------------------------------
# Container framework
# ---------------------------------------------------------------------------


class ContainerError(ReproError):
    """Base class for container-framework errors."""


class RecipeError(ContainerError):
    """Malformed build recipe (unknown section, missing bootstrap...)."""


class BuildError(ContainerError):
    """A build step failed (unknown command, unresolvable package...)."""


class PackageResolutionError(BuildError):
    """The simulated package universe cannot satisfy a requirement."""


class RuntimeLaunchError(ContainerError):
    """The container runtime could not start the requested entrypoint."""


class ImageFormatError(ContainerError):
    """An image file or manifest is corrupt or has an unsupported version."""


class HubError(ContainerError):
    """Registry-level failure (unknown collection, tag conflict...)."""


class ValidationFailure(ContainerError):
    """Container output diverged from the native reference output."""
