"""Fault-tolerant execution: supervised pools, retries, checkpoints.

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
* **Checkpoint store** (:class:`CheckpointStore`): per-task partial
  results persisted under ``$REPRO_CHECKPOINT_DIR`` keyed by the same
  content hash as the result cache, so an interrupted ensemble resumes
  from its completed chunks.  Entries carry the cache's SHA-256
  integrity trailer; a torn chunk is quarantined and recomputed.

Determinism is preserved by construction: a retried task re-runs the
*same* ``(fn, task)`` pair — seeds were spawned per task up front — and
results are always returned (and reduced by callers) in task order, so
a batch that survived a crash, a timeout, and a pool rebuild is
bit-identical to an undisturbed sequential run.

Policy knobs resolve, in order: explicit ``parallel(...)`` arguments,
then the environment (``REPRO_TASK_TIMEOUT``, ``REPRO_MAX_RETRIES``,
``REPRO_RETRY_BACKOFF``), then the defaults below.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
import warnings
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.engine import faults
from repro.engine.cancellation import current_scope
from repro.engine.metrics import get_registry
from repro.errors import TaskTimeoutError

__all__ = [
    "ResiliencePolicy",
    "resolve_policy",
    "env_number",
    "supervised_map",
    "CheckpointStore",
    "configure_checkpoints",
    "get_checkpoint_store",
]


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
    backoff_base / backoff_cap:
        Exponential-backoff sleep before retry ``k`` is
        ``min(cap, base * 2**(k-1))``; base 0 disables the sleep.
    max_pool_rebuilds:
        How many times a broken/wedged pool is rebuilt before the
        remaining tasks degrade to sequential in-parent execution.
    """

    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_rebuilds: int = 3

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
    backoff = env_number("REPRO_RETRY_BACKOFF", 0.05, float)
    return ResiliencePolicy(
        task_timeout=task_timeout,
        max_retries=max_retries,
        backoff_base=max(0.0, backoff),
    )


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
    policy: ResiliencePolicy | None = None,
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
      tasks are resubmitted, up to ``max_pool_rebuilds`` times, after
      which the remainder runs sequentially in the parent.
    """
    if policy is None:
        policy = resolve_policy()
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
        if policy.backoff_base > 0:
            time.sleep(min(policy.backoff_cap, policy.backoff_base * 2 ** max(0, attempt - 1)))

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
                    except faults.InjectedFaultError as exc:
                        attempts[index] += 1
                        if attempts[index] > policy.max_retries:
                            raise
                        reg.increment("engine.retries")
                        backoff(attempts[index])
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
                if rebuilds > policy.max_pool_rebuilds:
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


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------

_CKPT_UNSET = object()
_CHECKPOINT_DIR: object = _CKPT_UNSET


_LAYOUT_NAME = "layout.json"


class CheckpointStore:
    """Per-task partial results on disk, keyed by content hash.

    One directory per batch key; one sealed pickle per completed task
    (``chunk-000042.pkl``).  The payload carries the cache layer's
    SHA-256 integrity trailer, so a partial write from an interrupted
    run is quarantined and recomputed instead of poisoning the resume.

    Alongside the chunks sits a ``layout.json`` recording the batch's
    chunk structure (task count).  :meth:`load` validates it against the
    resuming run: a batch key only hashes the *logical* request
    (model, grid, n_runs, seed), so a chunking-parameter change between
    the interrupted run and the resume would otherwise merge partials
    computed under different chunk boundaries into a silently corrupt
    reduction.  On mismatch the whole batch is discarded with a warning
    (``engine.checkpoint_layout_mismatch``) and recomputed from scratch.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _dir(self, key: str) -> Path:
        return self.root / key

    def _path(self, key: str, index: int) -> Path:
        return self._dir(key) / f"chunk-{index:06d}.pkl"

    def _validate_layout(self, key: str, n_tasks: int) -> bool:
        """True when the stored chunk layout matches this run's."""
        path = self._dir(key) / _LAYOUT_NAME
        if not path.exists():
            # Legacy batch (pre-layout): nothing to validate against.
            return True
        try:
            stored = json.loads(path.read_text()).get("n_tasks")
        except (OSError, ValueError):
            stored = None
        if stored == n_tasks:
            return True
        warnings.warn(
            f"checkpoint batch {key!r} was written with a different chunk "
            f"layout ({stored!r} tasks, this run has {n_tasks}); discarding "
            "it and recomputing from scratch",
            RuntimeWarning,
            stacklevel=3,
        )
        get_registry().increment("engine.checkpoint_layout_mismatch")
        self.discard(key)
        return False

    def load(self, key: str, n_tasks: int) -> dict[int, object]:
        """All intact completed partials for ``key`` (index -> value)."""
        from repro.engine.cache import unseal_payload

        reg = get_registry()
        done: dict[int, object] = {}
        directory = self._dir(key)
        if not directory.is_dir():
            return done
        if not self._validate_layout(key, n_tasks):
            return done
        for path in sorted(directory.glob("chunk-*.pkl")):
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if not 0 <= index < n_tasks:
                continue
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            payload = unseal_payload(blob)
            if payload is None:
                reg.increment("engine.checkpoint_corrupt")
                path.unlink(missing_ok=True)
                continue
            try:
                done[index] = pickle.loads(payload)
            except Exception:
                reg.increment("engine.checkpoint_corrupt")
                path.unlink(missing_ok=True)
        return done

    def save(self, key: str, index: int, value, n_tasks: int | None = None) -> None:
        """Persist one completed partial (atomic, integrity-sealed).

        ``n_tasks`` records the batch's chunk layout on first save so a
        later resume can validate it; ``None`` (legacy callers) skips
        the layout record.
        """
        from repro.engine.cache import seal_payload

        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return
        path = self._path(key, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        if n_tasks is not None:
            layout = path.parent / _LAYOUT_NAME
            if not layout.exists():
                ltmp = layout.with_name(f"{layout.name}.{os.getpid()}.tmp")
                try:
                    ltmp.write_text(json.dumps({"n_tasks": n_tasks}))
                    ltmp.replace(layout)
                except OSError:
                    ltmp.unlink(missing_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(seal_payload(payload))
        tmp.replace(path)
        get_registry().increment("engine.checkpoint_saved")

    def discard(self, key: str) -> None:
        """Drop a batch's checkpoints (it completed, or was abandoned)."""
        shutil.rmtree(self._dir(key), ignore_errors=True)

    def purge_expired(self, ttl_seconds: float) -> int:
        """Drop every batch untouched for ``ttl_seconds`` or longer.

        Abandoned partials — from jobs that crashed and were never
        retried — would otherwise accumulate forever under a long-lived
        service.  A batch's age is its *newest* entry's mtime, so a live
        job that keeps sealing chunks is never purged mid-run.  Returns
        the number of batches dropped (counted as
        ``engine.checkpoint_purged``); a purged job simply falls back to
        a clean run on its next attempt.
        """
        if ttl_seconds < 0:
            raise ValueError(f"ttl_seconds must be >= 0, got {ttl_seconds}")
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - ttl_seconds
        purged = 0
        for directory in self.root.iterdir():
            if not directory.is_dir():
                continue
            try:
                newest = max(
                    (entry.stat().st_mtime for entry in directory.iterdir()),
                    default=directory.stat().st_mtime,
                )
            except OSError:
                continue  # racing a concurrent discard; it wins
            if newest <= cutoff:
                self.discard(directory.name)
                purged += 1
        if purged:
            get_registry().increment("engine.checkpoint_purged", by=purged)
        return purged


def configure_checkpoints(directory: str | os.PathLike | None) -> None:
    """Set (or, with ``None``, disable) the process-wide checkpoint dir,
    overriding ``$REPRO_CHECKPOINT_DIR``."""
    global _CHECKPOINT_DIR
    _CHECKPOINT_DIR = None if directory is None else Path(directory)


def get_checkpoint_store() -> CheckpointStore | None:
    """The active checkpoint store, or ``None`` when checkpointing is off
    (no ``configure_checkpoints`` call and no ``$REPRO_CHECKPOINT_DIR``)."""
    if _CHECKPOINT_DIR is not _CKPT_UNSET:
        return None if _CHECKPOINT_DIR is None else CheckpointStore(_CHECKPOINT_DIR)
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    return CheckpointStore(env) if env else None
