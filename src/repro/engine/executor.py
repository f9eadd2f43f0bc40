"""Deterministic fan-out of independent work units over a transport.

The experiment layer has three embarrassingly parallel workloads — SSA
ensemble realizations, per-machine finishing-time CDFs, and parameter
sweep points.  All of them route through :func:`run_tasks`, which runs
sequentially by default and fans out over a selected transport
(:mod:`repro.engine.transport`: in-process, supervised process pool, or
the remote worker fleet) inside a :func:`parallel` context::

    from repro import engine

    with engine.parallel(workers=4):
        ens = ssa_ensemble(model, grid, n_runs=200)

Determinism contract
--------------------
Results must be *bit-identical* regardless of worker count **and of
transport**.  Two rules enforce this:

1. Randomness is assigned per task up front via
   :func:`spawn_seeds` (``numpy.random.SeedSequence.spawn``), never
   drawn from a shared stream during execution.
2. :func:`run_tasks` preserves task order in its result list, and
   callers reduce partial results in that fixed order; chunk boundaries
   must be a function of the task list alone, never of the worker
   count or the transport.

Callables or task payloads that cannot be pickled silently degrade to
in-process execution (counted as ``engine.pickle_fallback``) — every
isolating transport is an optimization, not a requirement.
"""

from __future__ import annotations

import os
import pickle
import warnings
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.engine import faults
from repro.engine.cache import get_cache
from repro.engine.cancellation import current_scope
from repro.engine.metrics import get_registry
from repro.engine.resilience import ResiliencePolicy, resolve_policy
from repro.engine.transport import get_transport, resolve_transport

__all__ = [
    "EngineConfig",
    "parallel",
    "current_config",
    "run_tasks",
    "spawn_seeds",
    "welford_merge",
]


@dataclass(frozen=True)
class EngineConfig:
    """Active execution configuration (workers=1 means sequential).

    ``task_timeout`` and ``max_retries`` override the environment
    defaults (``REPRO_TASK_TIMEOUT`` / ``REPRO_MAX_RETRIES``) for the
    supervised parallel path; ``None`` defers to the environment.
    ``transport`` pins a transport by name (``inline`` / ``pool`` /
    ``remote``); ``None`` defers to ``$REPRO_TRANSPORT``, then to
    automatic selection (inline when sequential, pool otherwise).
    """

    workers: int = 1
    task_timeout: float | None = None
    max_retries: int | None = None
    transport: str | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {self.task_timeout}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.transport is not None:
            get_transport(self.transport)  # raises on unknown names


_config_stack: list[EngineConfig] = []


def current_config() -> EngineConfig:
    """The innermost :func:`parallel` configuration, or the environment
    default (``$REPRO_WORKERS``, else sequential)."""
    if _config_stack:
        return _config_stack[-1]
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return EngineConfig(workers=max(1, int(env)))
        except ValueError:
            warnings.warn(
                f"ignoring malformed REPRO_WORKERS={env!r}; running sequentially",
                RuntimeWarning,
                stacklevel=2,
            )
    return EngineConfig()


@contextmanager
def parallel(
    workers: int | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
    transport: str | None = None,
):
    """Run enclosed engine workloads on ``workers`` parallel workers.

    ``workers=None`` uses the CPU count.  Contexts nest; the innermost
    wins.  ``task_timeout`` / ``max_retries`` tune the supervised loop
    (see :mod:`repro.engine.resilience`) and ``transport`` pins how task
    units are executed (see :mod:`repro.engine.transport`); unset values
    inherit from the enclosing context, then the environment.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    outer = current_config()
    config = EngineConfig(
        workers=workers,
        task_timeout=task_timeout if task_timeout is not None else outer.task_timeout,
        max_retries=max_retries if max_retries is not None else outer.max_retries,
        transport=transport if transport is not None else outer.transport,
    )
    _config_stack.append(config)
    try:
        yield config
    finally:
        _config_stack.pop()


def _is_picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


def run_tasks(
    fn: Callable,
    tasks: Iterable,
    workers: int | None = None,
    checkpoint: tuple | None = None,
    transport: str | None = None,
) -> list:
    """Map ``fn`` over ``tasks``, preserving order.

    Execution routes through a transport (:mod:`repro.engine.transport`)
    resolved as: the ``transport`` argument, else the enclosing
    :func:`parallel` context's, else ``$REPRO_TRANSPORT``, else inline
    when effectively sequential and the supervised pool otherwise.  The
    pickle probe covers ``fn`` and the first task only — per-task pickle
    failures are absorbed by the transports themselves, which also
    provide retries, per-task timeouts, and crashed-worker recovery
    (see :mod:`repro.engine.resilience`).

    ``checkpoint`` is a tuple of key parts naming the batch's content
    (the request, not its scheduling).  When the result cache is enabled
    and has a disk layer (``$REPRO_CACHE_DIR`` or
    ``configure_cache(disk_dir=...)``), each task's result is stored as
    a disk entry as it completes, the tasks an interrupted earlier run
    of the same batch completed are not recomputed, and the batch's
    entries are deleted once every task has finished.  The key covers
    the parts and the task count (:meth:`ResultCache.chunk_prefix`), and
    is only hashed when checkpointing is on.
    """
    tasks = list(tasks)
    reg = get_registry()
    config = current_config()
    scope = current_scope()
    scope.raise_if_cancelled()
    if workers is None:
        workers = config.workers
    workers = min(workers, len(tasks)) if tasks else 1
    if transport is None:
        transport = config.transport
    chosen = resolve_transport(transport, workers)
    if chosen.isolates_tasks and tasks and not _is_picklable(fn, tasks[0]):
        reg.increment("engine.pickle_fallback")
        chosen = get_transport("inline")

    cache = get_cache()
    prefix = cache.chunk_prefix(checkpoint, len(tasks)) if checkpoint else None
    results: dict[int, object] = {}
    if prefix is not None:
        results = cache.load_chunks(prefix, len(tasks))
        if results:
            reg.increment("engine.checkpoint_resumes")
            reg.increment("engine.checkpoint_loaded", by=len(results))
    missing = [i for i in range(len(tasks)) if i not in results]

    def on_result(index: int, value) -> None:
        results[index] = value
        if prefix is not None:
            cache.save_chunk(prefix, index, value)
        # Deterministic kill -9 for the service's crash-recovery suite:
        # die the instant this task unit's checkpoint is sealed, so a
        # restart provably resumes from exactly these chunks.
        if faults.should_fire("server_crash", task_index=index) is not None:
            os._exit(70)

    policy = ResiliencePolicy()
    if chosen.name == "inline":
        reg.increment("engine.sequential_batches")
        if prefix is None and not scope.active:
            return [fn(task) for task in tasks]
    elif missing:
        reg.increment("engine.parallel_batches")
        reg.increment("engine.tasks_dispatched", by=len(missing))
        policy = resolve_policy(config.task_timeout, config.max_retries)
    if missing:
        chosen.run(
            fn,
            [tasks[i] for i in missing],
            workers=min(workers, len(missing)),
            policy=policy,
            on_result=lambda j, value: on_result(missing[j], value),
        )
    if prefix is not None:
        cache.discard_chunks(prefix)
    return [results[i] for i in range(len(tasks))]


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child seed sequences of ``seed``.

    The assignment of child ``i`` to task ``i`` depends only on
    ``(seed, n)`` — this is what makes parallel stochastic results
    bit-identical to sequential ones.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} seeds")
    return list(np.random.SeedSequence(seed).spawn(n))


def welford_merge(
    a: tuple[int, np.ndarray, np.ndarray],
    b: tuple[int, np.ndarray, np.ndarray],
) -> tuple[int, np.ndarray, np.ndarray]:
    """Combine two Welford partials ``(count, mean, m2)`` (Chan et al.).

    Deterministic given its inputs; callers must fold partials in a
    fixed order for bit-identical results.
    """
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * (nb / n)
    m2 = m2a + m2b + delta * delta * (na * nb / n)
    return n, mean, m2
