"""Transport abstraction: *where* chunked task units run.

The determinism contract lives one layer up — chunk boundaries and
per-task seeds are a function of the task list alone (see
:mod:`repro.engine.executor`) — so the engine is free to ship the same
task units anywhere.  A :class:`Transport` is exactly that freedom made
explicit: :meth:`~Transport.run` takes an ordered batch and returns
results in task order, and *bit-identity is transport-invariant*
because nothing about seeding, chunking or reduction order is the
transport's business.

Three transports ship:

``inline``
    Sequential, in the calling process.  No isolation, no fault
    injection, no pickling requirement — the reference execution.
``pool``
    The supervised process pool (:func:`repro.engine.resilience.supervised_map`)
    ported intact: bounded in-flight submission, per-task deadlines,
    bounded retries with backoff, broken-pool rebuild, degradation to
    sequential, deterministic fault injection.
``remote``
    Task units ship as integrity-sealed pickles over HTTP to a
    registered worker fleet (:mod:`repro.engine.remote`) under
    lease-based assignment with heartbeats, failover re-dispatch,
    straggler digest verification and per-worker circuit breakers.
    ``$REPRO_REMOTE_SPAWN=N`` starts N local workers on demand.
    Degrades to ``pool`` (and thence to sequential) when no healthy
    worker is reachable.  Registered lazily on first request to avoid a
    circular import.

Selection: ``run_tasks(transport=...)`` > ``parallel(transport=...)`` >
``$REPRO_TRANSPORT`` > automatic (inline when effectively sequential,
pool otherwise).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence

from repro.engine.cancellation import current_scope
from repro.engine.resilience import ResiliencePolicy, supervised_map
from repro.errors import TransportError

__all__ = [
    "Transport",
    "InlineTransport",
    "ProcessPoolTransport",
    "available_transports",
    "get_transport",
    "resolve_transport",
]


class Transport:
    """Interface for running a batch of independent task units.

    ``isolates_tasks`` tells callers that task units run outside the
    calling process (a crash cannot take the parent down; payloads
    must pickle).
    """

    name: str = "abstract"
    isolates_tasks: bool = False

    def run(
        self,
        fn: Callable,
        tasks: Sequence,
        *,
        workers: int = 1,
        policy: ResiliencePolicy = ResiliencePolicy(),
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """Run ``fn`` over ``tasks``; results in task order.
        ``on_result(index, value)`` sees each result as it lands.
        ``policy`` is the batch's resolved retry and timeout policy
        (:func:`~repro.engine.resilience.resolve_policy`)."""
        raise NotImplementedError


class InlineTransport(Transport):
    """Sequential execution in the calling process — the reference path.

    Exceptions propagate immediately; there are no retries because
    nothing here can fail transiently (no pool, no pipe, no pickling).
    A cancelled scope stops the batch before its next task.
    """

    name = "inline"

    def run(self, fn, tasks, *, workers=1, policy=ResiliencePolicy(), on_result=None):
        scope = current_scope()
        results = []
        for index, task in enumerate(tasks):
            scope.raise_if_cancelled()
            value = fn(task)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results


class ProcessPoolTransport(Transport):
    """The supervised process pool, behind the transport seam.

    Delegates to :func:`repro.engine.resilience.supervised_map`
    unchanged — every resilience behavior (timeouts, retries, rebuilds,
    sequential degradation, fault injection) is that function's,
    verified by the chaos suite.
    """

    name = "pool"
    isolates_tasks = True

    def run(self, fn, tasks, *, workers=1, policy=ResiliencePolicy(), on_result=None):
        tasks = list(tasks)
        workers = max(1, min(workers, len(tasks) or 1))
        return supervised_map(
            fn, tasks, workers=workers, policy=policy, on_result=on_result
        )


_TRANSPORTS: dict[str, Transport] = {
    t.name: t for t in (InlineTransport(), ProcessPoolTransport())
}

#: Transports registered on first use instead of at import time.  The
#: remote fleet transport lives in :mod:`repro.engine.remote`, which
#: imports this module — eager construction here would be circular.
_LAZY_TRANSPORTS = ("remote",)


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(set(_TRANSPORTS) | set(_LAZY_TRANSPORTS)))


def get_transport(name: str) -> Transport:
    """Resolve a transport by name; raises :class:`TransportError`."""
    transport = _TRANSPORTS.get(name)
    if transport is None and name in _LAZY_TRANSPORTS:
        from repro.engine.remote import RemoteWorkerTransport

        transport = _TRANSPORTS.setdefault(name, RemoteWorkerTransport())
    if transport is None:
        raise TransportError(
            f"unknown transport {name!r}; available: {list(available_transports())}"
        )
    return transport


def resolve_transport(name: str | None, workers: int) -> Transport:
    """The effective transport: explicit name, else ``$REPRO_TRANSPORT``,
    else automatic (inline when sequential, pool otherwise)."""
    if name is None:
        name = os.environ.get("REPRO_TRANSPORT") or None
    if name is not None:
        return get_transport(name)
    return _TRANSPORTS["inline" if workers <= 1 else "pool"]
