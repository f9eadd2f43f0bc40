"""Admission control: bounded queue, rate limits, fair share, shedding.

The service must stay *predictably* degraded under overload, never
crashed.  Admission is decided at submit time, in order:

1. **Queue bound** — the priority queue holds at most ``capacity``
   jobs; beyond that the submission is refused with HTTP 429 and a
   ``Retry-After`` hint (backpressure, not buffering).
2. **Per-tenant rate limit** — each tenant has a token bucket
   (``rate`` tokens/second, ``burst`` capacity); an empty bucket is a
   429 for that tenant only, so one flooding tenant cannot starve the
   rest.
3. **Overload shedding** — when measured load (queue depth relative to
   capacity, or worker saturation, whichever is higher) reaches
   :data:`SHED_THRESHOLD`, *low-priority* work (numeric priority >=
   :data:`SHED_PRIORITY`; 0 is most urgent) is refused with HTTP 503.
   Urgent work still gets in until the hard queue bound.

Dispatch order is fair-share: the heap key is ``(priority, k, seq)``
where ``k`` is how many jobs the tenant already had queued at enqueue
time — a tenant's 10th queued job sorts behind every other tenant's
1st at equal priority, interleaving tenants instead of serving a burst
back-to-back.

The ``queue_overflow`` and ``tenant_flood`` fault kinds
(:mod:`repro.engine.faults`) force branches 1 and 2 for one submission
each, so the chaos suite can exercise refusal paths without real
floods.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import Counter

from repro.engine import faults
from repro.engine.metrics import get_registry
from repro.errors import JobRejectedError

__all__ = ["TokenBucket", "AdmissionController"]

#: Load in (0, 1] at which low-priority work is shed with a 503.
SHED_THRESHOLD = 0.85

#: Numeric priority at or above which work is sheddable.
SHED_PRIORITY = 5

#: ``Retry-After`` hint, in seconds, on refusals that have no better
#: estimate (full queue, shedding, draining).
RETRY_AFTER = 2.0


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = time.monotonic()

    def try_acquire(self, now: float | None = None) -> bool:
        if now is None:
            now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def seconds_until_token(self, now: float | None = None) -> float:
        if now is None:
            now = time.monotonic()
        available = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        return max(0.0, (1.0 - available) / self.rate)


class AdmissionController:
    """Decides what gets in and hands admitted jobs to worker threads."""

    def __init__(
        self,
        *,
        capacity: int = 64,
        workers: int = 2,
        tenant_rate: float = 10.0,
        tenant_burst: float = 20.0,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.capacity = capacity
        self.workers = workers
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self._cv = threading.Condition()
        self._heap: list[tuple[int, int, int, str, str]] = []
        self._seq = itertools.count()
        self._queued_by_tenant: Counter[str] = Counter()
        self._buckets: dict[str, TokenBucket] = {}
        self._busy = 0

    # -- load ---------------------------------------------------------------

    def depth(self) -> int:
        with self._cv:
            return len(self._heap)

    def busy(self) -> int:
        with self._cv:
            return self._busy

    def _load_locked(self) -> float:
        return max(len(self._heap) / self.capacity, self._busy / self.workers)

    def load(self) -> float:
        """Current load in [0, ~1]: queue pressure or worker saturation."""
        with self._cv:
            return self._load_locked()

    # -- admission ----------------------------------------------------------

    def admit(self, job_id: str, *, tenant: str = "default", priority: int = 5,
              on_admit=None):
        """Admit or refuse one submission.

        Raises :class:`~repro.errors.JobRejectedError` with the HTTP
        status the server should answer (429 backpressure / rate limit,
        503 shed) — admission never queues a refusal.

        ``on_admit()`` runs once the submission has passed every check
        and before its id becomes takeable, under the queue lock (which
        is re-entrant): the server records the job there, so a worker
        can never take an id whose record does not exist yet, and a
        refusal never records anything.  If it raises, nothing is
        queued.
        """
        reg = get_registry()
        with self._cv:
            full = (
                faults.should_fire("queue_overflow") is not None
                or len(self._heap) >= self.capacity
            )
            if full:
                reg.increment("service.rejected_full")
                raise JobRejectedError(
                    f"job queue is full ({self.capacity} jobs); retry later",
                    status=429,
                    retry_after=RETRY_AFTER,
                )
            bucket = self._buckets.setdefault(
                tenant, TokenBucket(self.tenant_rate, self.tenant_burst)
            )
            flooded = faults.should_fire("tenant_flood") is not None
            if flooded or not bucket.try_acquire():
                reg.increment("service.throttled")
                reg.increment(f"service.throttled.tenant.{tenant}")
                wait = RETRY_AFTER if flooded else bucket.seconds_until_token()
                raise JobRejectedError(
                    f"tenant {tenant!r} exceeded its submission rate",
                    status=429,
                    retry_after=max(wait, 0.1),
                )
            if priority >= SHED_PRIORITY and self._load_locked() >= SHED_THRESHOLD:
                reg.increment("service.shed")
                raise JobRejectedError(
                    f"service overloaded (load {self._load_locked():.2f}); "
                    f"shedding priority >= {SHED_PRIORITY} work",
                    status=503,
                    retry_after=RETRY_AFTER,
                )
            if on_admit is not None:
                on_admit()
            heapq.heappush(
                self._heap,
                (priority, self._queued_by_tenant[tenant], next(self._seq),
                 job_id, tenant),
            )
            self._queued_by_tenant[tenant] += 1
            reg.increment("service.admitted")
            reg.increment(f"service.admitted.tenant.{tenant}")
            self._cv.notify()

    def requeue(self, job_id: str, *, tenant: str = "default", priority: int = 5):
        """Re-enqueue without admission checks — crash recovery only.

        A recovered job was already admitted once; refusing it now would
        silently drop accepted work.
        """
        with self._cv:
            heapq.heappush(
                self._heap,
                (priority, self._queued_by_tenant[tenant], next(self._seq),
                 job_id, tenant),
            )
            self._queued_by_tenant[tenant] += 1
            self._cv.notify()

    # -- dispatch -----------------------------------------------------------

    def take(self, timeout: float | None = None) -> str | None:
        """Pop the next job id for a worker thread (None on timeout).

        The caller *must* pair every successful take with a
        :meth:`release` — the busy count is part of the load signal.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while not self._heap:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cv.wait(remaining)
            _, _, _, job_id, tenant = heapq.heappop(self._heap)
            self._queued_by_tenant[tenant] -= 1
            if self._queued_by_tenant[tenant] <= 0:
                del self._queued_by_tenant[tenant]
            self._busy += 1
            return job_id

    def release(self) -> None:
        """A worker finished (or skipped) the job it took."""
        with self._cv:
            self._busy = max(0, self._busy - 1)
