"""Fault-tolerant execution: supervised pools and retries.

The executor's original parallel path was one ``pool.map`` — a single
crashed worker, one hung task, or one unpicklable payload killed the
whole batch.  This module supplies the supervised replacement used by
:func:`repro.engine.executor.run_tasks`:

* **Supervised submit/collect loop** (:func:`supervised_map`): bounded
  in-flight submission (one task per worker, so per-task deadlines
  measure *run* time, not queue time), per-task timeout, bounded retry
  with exponential backoff, ``BrokenProcessPool`` recovery (terminate,
  rebuild, resubmit only unfinished work), and last-resort degradation
  to in-parent sequential execution when the pool keeps dying.

Its ``on_result`` hook is where :func:`~repro.engine.executor.run_tasks`
stores each completed task as a checkpoint entry of the result cache's
disk layer, so an interrupted batch resumes from its completed chunks.

Determinism is preserved by construction: a retried task re-runs the
*same* ``(fn, task)`` pair — seeds were spawned per task up front — and
results are always returned (and reduced by callers) in task order, so
a batch that survived a crash, a timeout, and a pool rebuild is
bit-identical to an undisturbed sequential run.

The per-task timeout and retry budget resolve, in order: explicit
``parallel(...)`` arguments, then the environment
(``REPRO_TASK_TIMEOUT``, ``REPRO_MAX_RETRIES``), then the defaults
below.  :func:`resolve_policy` does that once per batch, in
:func:`~repro.engine.executor.run_tasks`; the backoff and rebuild
limits are the module constants below.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.engine import faults
from repro.engine.cancellation import current_scope
from repro.engine.metrics import get_registry
from repro.errors import TaskTimeoutError

__all__ = [
    "ResiliencePolicy",
    "resolve_policy",
    "env_number",
    "supervised_map",
]

#: Exponential-backoff sleep before retry ``k`` is
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(k-1))`` seconds; 0 disables it.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: How many times a broken or wedged pool is rebuilt before the
#: remaining tasks degrade to sequential in-parent execution.
MAX_POOL_REBUILDS = 3


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the supervised loop reacts to failing tasks and pools.

    Attributes
    ----------
    task_timeout:
        Per-task wall-clock deadline in seconds (``None`` = no limit).
        Measured from submission; the loop keeps at most one task per
        worker in flight, so queueing time is not charged to the task.
    max_retries:
        How many times one task may be retried after a failure or a
        timeout before the batch gives up on it.
    """

    task_timeout: float | None = None
    max_retries: int = 2

    def __post_init__(self):
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


def env_number(name: str, default, convert):
    """``convert($name)``; unset or empty gives ``default``, and a
    malformed value warns (:class:`RuntimeWarning`) and gives ``default``."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return convert(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={raw!r}; using default {default!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def resolve_policy(
    task_timeout: float | None = None,
    max_retries: int | None = None,
) -> ResiliencePolicy:
    """Build the effective policy from arguments, environment, defaults."""
    if task_timeout is None:
        task_timeout = env_number("REPRO_TASK_TIMEOUT", None, float)
        if task_timeout is not None and task_timeout <= 0:
            task_timeout = None
    if max_retries is None:
        max_retries = env_number("REPRO_MAX_RETRIES", 2, int)
        if max_retries < 0:
            max_retries = 0
    return ResiliencePolicy(task_timeout=task_timeout, max_retries=max_retries)


# ---------------------------------------------------------------------------
# The supervised loop
# ---------------------------------------------------------------------------

def _invoke(fn: Callable, index: int, task):
    """Worker-side shim: enact planned faults, then run the task."""
    spec = faults.should_fire("worker_crash", task_index=index)
    if spec is not None:
        os._exit(70)
    spec = faults.should_fire("task_timeout", task_index=index)
    if spec is not None:
        time.sleep(spec.sleep)
    spec = faults.should_fire("task_error", task_index=index)
    if spec is not None:
        raise faults.InjectedFaultError(f"injected task error on task {index}")
    return fn(task)


def _is_pickle_error(exc: BaseException) -> bool:
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower()


def _terminate(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool without waiting for wedged or dying workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in (getattr(pool, "_processes", None) or {}).values():
        try:
            proc.terminate()
        except Exception:
            pass


def supervised_map(
    fn: Callable,
    tasks: Sequence,
    workers: int,
    policy: ResiliencePolicy = ResiliencePolicy(),
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Map ``fn`` over ``tasks`` on a supervised process pool.

    Returns results in task order.  ``on_result(index, value)`` fires as
    each task completes (in completion order) — the checkpointing hook.

    Failure handling, in escalating order:

    * a task raising an exception is retried up to ``max_retries`` times
      (with exponential backoff), then the exception propagates;
    * a task whose payload cannot be pickled runs in-parent instead
      (counted as ``engine.pickle_fallback``);
    * a task exceeding ``task_timeout`` abandons the pool, which is
      rebuilt; the task is retried and, once its retry budget is
      exhausted, raises :class:`~repro.errors.TaskTimeoutError` (a hung
      task would hang the parent too — degradation cannot help);
    * a broken pool (crashed worker) is rebuilt and only unfinished
      tasks are resubmitted, up to :data:`MAX_POOL_REBUILDS` times,
      after which the remainder runs sequentially in the parent.
    """
    reg = get_registry()
    scope = current_scope()
    n = len(tasks)
    results: dict[int, object] = {}
    attempts = [0] * n
    sequential: set[int] = set()
    rebuilds = 0

    def record(index: int, value) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    def backoff(attempt: int) -> None:
        if BACKOFF_BASE > 0:
            time.sleep(min(BACKOFF_CAP, BACKOFF_BASE * 2 ** max(0, attempt - 1)))

    pool = ProcessPoolExecutor(max_workers=workers)
    to_run: deque[int] = deque(range(n))
    pending: dict = {}
    deadlines: dict = {}
    try:
        while to_run or pending:
            # Cooperative cancellation: checked between rounds, never
            # inside on_result (whose exceptions the retry logic would
            # absorb as a task failure).  Already-completed chunks were
            # checkpointed by the caller, so a retried job resumes.
            if scope.cancelled():
                _terminate(pool)
                scope.raise_if_cancelled()
            broken = False
            # Bounded in-flight submission: one task per worker, so a
            # deadline measures execution, not time spent queued.
            while to_run and len(pending) < workers:
                index = to_run.popleft()
                try:
                    future = pool.submit(_invoke, fn, index, tasks[index])
                except (BrokenProcessPool, RuntimeError):
                    to_run.appendleft(index)
                    broken = True
                    break
                pending[future] = index
                if policy.task_timeout is not None:
                    deadlines[future] = time.monotonic() + policy.task_timeout
            if pending and not broken:
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values()) - time.monotonic())
                if scope.active:
                    # Wake periodically so a cancellation interrupts the
                    # wait instead of lingering until a task completes.
                    timeout = 0.1 if timeout is None else min(timeout, 0.1)
                done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    deadlines.pop(future, None)
                    try:
                        record(index, future.result())
                    except BrokenProcessPool:
                        broken = True
                        to_run.append(index)
                    except Exception as exc:
                        if _is_pickle_error(exc):
                            reg.increment("engine.pickle_fallback")
                            sequential.add(index)
                            continue
                        attempts[index] += 1
                        if attempts[index] > policy.max_retries:
                            raise
                        reg.increment("engine.retries")
                        backoff(attempts[index])
                        to_run.append(index)
                # Expire overdue tasks: the worker is wedged (or just too
                # slow); the whole pool is abandoned below because a
                # future of a ProcessPoolExecutor cannot be cancelled
                # once running.
                now = time.monotonic()
                overdue = [f for f, dl in deadlines.items() if now >= dl]
                for future in overdue:
                    index = pending.pop(future)
                    deadlines.pop(future)
                    attempts[index] += 1
                    reg.increment("engine.task_timeouts")
                    if attempts[index] > policy.max_retries:
                        _terminate(pool)
                        raise TaskTimeoutError(
                            f"task {index} exceeded its {policy.task_timeout:g}s "
                            f"deadline on every one of {attempts[index]} attempts"
                        )
                    reg.increment("engine.retries")
                    to_run.append(index)
                if overdue:
                    broken = True
            if broken:
                _terminate(pool)
                rebuilds += 1
                reg.increment("engine.pool_rebuilds")
                unfinished = [
                    i for i in range(n)
                    if i not in results and i not in sequential
                ]
                pending.clear()
                deadlines.clear()
                if rebuilds > MAX_POOL_REBUILDS:
                    # The pool keeps dying: degrade the remainder to
                    # sequential in-parent execution, the last resort
                    # that cannot be killed by worker failures.
                    reg.increment("engine.degraded_sequential")
                    sequential.update(unfinished)
                    to_run.clear()
                else:
                    to_run = deque(unfinished)
                    pool = ProcessPoolExecutor(max_workers=workers)
    finally:
        _terminate(pool)
    for index in sorted(sequential):
        if index not in results:
            record(index, fn(tasks[index]))
    return [results[i] for i in range(n)]
