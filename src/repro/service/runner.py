"""Worker threads that execute admitted jobs under cancel scopes.

Each worker thread loops: take a job id from the admission queue, mark
it ``running`` (durably, via the journal), install a
:class:`~repro.engine.cancellation.CancelScope` carrying the job's
deadline, and execute the spec.  The scope is registered by job id so
the API's DELETE route can cancel a *running* job from another thread;
the engine raises :class:`~repro.errors.JobCancelledError` at the next
task-unit boundary, which the runner maps to the ``cancelled`` (or,
for deadline overruns, ``expired``) terminal state.

When the result cache has a disk layer, solves checkpoint into it, so
a crash — or a drain that suspends in-flight work — leaves completed
chunks on disk and the recovered job *resumes* instead of restarting.
"""

from __future__ import annotations

import threading
import time

from repro.engine.cancellation import CancelScope, cancel_scope
from repro.engine.executor import parallel
from repro.engine.metrics import get_registry
from repro.errors import JobCancelledError
from repro.service.jobs import JobSpec, execute_spec, encode_result

__all__ = ["JobRunner"]


class JobRunner:
    """A fixed pool of job-executing threads over one store + queue."""

    def __init__(
        self, store, admission, *, workers: int = 2, executor=None,
        transport: str | None = None,
    ):
        self.store = store
        self.admission = admission
        self.workers = workers
        # Engine transport jobs execute on (None = the engine default
        # chain); "remote" ships task units to the registered fleet.
        self.transport = transport
        # Seam for tests: a callable spec -> (result, manifest, digest).
        self._executor = executor or execute_spec
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._suspending = False
        self._scopes: dict[str, CancelScope] = {}
        self._scopes_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-job-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def resume_recovered(self) -> None:
        """Re-enqueue jobs the store recovered from an unsealed journal."""
        for job_id in self.store.recovered_ids:
            record = self.store.get(job_id)
            if record is not None and record.status == "queued":
                self.admission.requeue(
                    job_id, tenant=record.tenant, priority=record.priority
                )

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop taking new work; wait for in-flight jobs, then suspend.

        Returns True when every worker exited within ``timeout``.  Jobs
        still running at the deadline get their scopes cancelled — a
        *suspension*, not a loss: their completed chunks are
        checkpointed and the unsealed status in the journal re-enqueues
        them on the next start.
        """
        self._stop.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in self._threads):
            self._suspending = True
            with self._scopes_lock:
                for scope in self._scopes.values():
                    scope.cancel()
            for thread in self._threads:
                thread.join(max(0.5, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._threads)

    # -- cancellation -------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a *running* job's scope; False when it is not running."""
        with self._scopes_lock:
            scope = self._scopes.get(job_id)
        if scope is None:
            return False
        scope.cancel()
        return True

    # -- the worker loop ----------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            job_id = self.admission.take(timeout=0.2)
            if job_id is None:
                continue
            try:
                record = self.store.get(job_id)
                # Cancelled (or otherwise finished) while queued: skip.
                if record is not None and record.status == "queued":
                    self._execute(record)
            finally:
                self.admission.release()

    def _execute(self, record) -> None:
        reg = get_registry()
        self.store.set_status(record.job_id, "running")
        scope = CancelScope(deadline_seconds=record.deadline_seconds)
        with self._scopes_lock:
            self._scopes[record.job_id] = scope
        started = time.monotonic()
        try:
            with cancel_scope(scope):
                if self.transport is None:
                    result, manifest, digest = self._executor(
                        JobSpec.from_dict(record.spec)
                    )
                else:
                    with parallel(transport=self.transport):
                        result, manifest, digest = self._executor(
                            JobSpec.from_dict(record.spec)
                        )
            self.store.save_result(
                record.job_id,
                digest=digest,
                result=encode_result(result),
                manifest=manifest,
            )
            self.store.set_status(record.job_id, "done")
            reg.increment("service.completed")
            reg.observe("service.job_seconds", time.monotonic() - started)
        except JobCancelledError as exc:
            if self._suspending and exc.reason != "deadline":
                # A drain suspension, not a user cancellation: back to
                # queued (durably), so the next start resumes the job
                # from its checkpoints.
                self.store.set_status(record.job_id, "queued", reason="suspended")
                reg.increment("service.suspended")
            else:
                status = "expired" if exc.reason == "deadline" else "cancelled"
                self.store.set_status(record.job_id, status, reason=exc.reason)
                reg.increment(f"service.{status}")
        except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
            self.store.set_status(
                record.job_id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            reg.increment("service.failed")
        finally:
            with self._scopes_lock:
                self._scopes.pop(record.job_id, None)
