"""Fault-tolerant remote worker fleet: lease-based distributed transport.

This is the remote end of the transport seam
(:mod:`repro.engine.transport`): a stdlib-only coordinator + worker
pair that ships content-addressed task units — ``seal_payload(pickle((fn,
index, task)))`` in, a sealed ``("ok", value)`` / ``("err", exc)``
frame out (:func:`_execute_unit`) — over HTTP (:mod:`repro.engine.wire`)
to long-lived worker processes, possibly on other hosts.

The determinism contract is untouched: seeds are spawned per task
before submission and results are reduced in task order (see
:mod:`repro.engine.executor`), so re-running one unit anywhere, any
number of times, reproduces it bit-identically.  Everything in this
module exists to exploit that freedom safely when workers die, hang, or
partition mid-ensemble:

**Registration.**  A worker registers with the coordinator carrying its
environment fingerprint (:func:`repro.engine.environment
.environment_fingerprint`) and the shared-secret bearer token.  A bad
token is refused (403); a numerical stack that differs from the
coordinator's is refused (409, counted ``engine.remote_env_rejected``)
— a mismatched worker is rejected *at registration*, never trusted
with a unit whose float output could silently differ.

**Leases.**  A granted unit carries a deadline-bearing lease, renewed
by the worker's heartbeats and clamped to the submitting cancel
scope's own deadline.  A missed heartbeat or an expired lease marks
the worker suspect: only its unfinished units are re-dispatched (to
the front of the queue), each re-run bit-identical by the same-seed
rerun contract.  When a straggler's late result races its replacement,
the two result digests are compared — agreement is counted
(``engine.remote_digest_agreements``), divergence fails the batch
loudly (``engine.remote_digest_divergence``) because two answers for
one unit means the determinism contract itself is broken.

**Circuit breaker.**  Per worker: :data:`BREAKER_FAILURES` consecutive
delivery failures open the breaker (no grants) for an exponentially
growing backoff; a half-open probe unit then decides between closing
it and re-opening.
Flapping nodes stop receiving work without operator action.

**Degradation is total-order.**  No healthy worker for
``$REPRO_REMOTE_CONNECT_WAIT`` seconds degrades the remaining units to
the supervised pool transport (which itself degrades to sequential
in-parent execution) — remote → pool → inline, every step
bit-identical.  A single unit that keeps bouncing
(:data:`MAX_REDISPATCH` re-dispatches) runs in-parent instead of
starving the batch.

Fault kinds (:mod:`repro.engine.faults`) this layer enacts:
``heartbeat_loss`` (worker computes but stops heartbeating for
``sleep`` seconds), ``worker_partition`` (worker finishes, then all of
its traffic is black-holed for ``sleep`` seconds before the late
delivery), ``lease_expiry`` (the coordinator force-expires one unit's
lease despite a healthy worker).  ``worker_crash`` / ``task_timeout``
/ ``task_error`` work unchanged because units run through the same
:func:`repro.engine.resilience._invoke` shim as every other transport.

Knobs (all ``REPRO_REMOTE_*``, documented in ``docs/engine.md``):
``BIND``, ``TOKEN``, ``LEASE``, ``CONNECT_WAIT``, ``SPAWN``.  Workers
heartbeat every third of the lease.  ``repro worker`` (or
``python -m repro.engine.remote``) runs the worker loop; ``repro serve
--transport remote`` starts the coordinator inside the job service so
N workers form a shardable fleet.
"""

from __future__ import annotations

import argparse
import atexit
import base64
import hashlib
import itertools
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import ThreadingHTTPServer

from repro.engine import faults
from repro.engine.cache import seal_payload, unseal_payload
from repro.engine.cancellation import current_scope
from repro.engine.environment import environment_fingerprint
from repro.engine.metrics import get_registry
from repro.engine.resilience import ResiliencePolicy, _invoke, env_number
from repro.engine.transport import Transport
from repro.engine.wire import BadRequest, JsonHandler, check_token, request_json, start_http
from repro.errors import JobCancelledError, TransportError, WorkerRejectedError

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "RemoteWorkerTransport",
    "start_coordinator",
    "get_coordinator",
    "coordinator_url",
    "shutdown_fleet",
    "run_worker",
    "main",
]

#: Parent-side collect loop tick (lease expiry / cancellation latency).
_TICK_SECONDS = 0.05

#: Consecutive delivery failures that open a worker's circuit breaker.
BREAKER_FAILURES = 3

#: First open-breaker backoff in seconds, doubling per re-open up to
#: the cap.
BREAKER_BACKOFF = 0.5
BREAKER_BACKOFF_CAP = 30.0

#: Re-dispatches of one unit before it runs in the parent instead.
MAX_REDISPATCH = 5


@dataclass(frozen=True)
class FleetConfig:
    """Coordinator tuning, resolved from ``REPRO_REMOTE_*`` by default.

    ``lease_seconds`` is both the per-unit lease length and the worker
    liveness window (a worker silent for that long is suspect); the
    heartbeat interval is a third of it, so a healthy worker renews
    well inside it.
    """

    bind: str = "127.0.0.1:0"
    token: str | None = None
    lease_seconds: float = 15.0
    connect_wait: float = 10.0
    spawn: int = 0

    @property
    def heartbeat(self) -> float:
        return max(0.05, self.lease_seconds / 3.0)

    @classmethod
    def from_env(cls, **overrides) -> FleetConfig:
        values = {
            "bind": os.environ.get("REPRO_REMOTE_BIND") or "127.0.0.1:0",
            "token": os.environ.get("REPRO_REMOTE_TOKEN")
            or os.environ.get("REPRO_SERVE_TOKEN")
            or None,
            "lease_seconds": env_number("REPRO_REMOTE_LEASE", 15.0, float),
            "connect_wait": env_number("REPRO_REMOTE_CONNECT_WAIT", 10.0, float),
            "spawn": env_number("REPRO_REMOTE_SPAWN", 0, int),
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


# ---------------------------------------------------------------------------
# Coordinator-side state
# ---------------------------------------------------------------------------


class _Breaker:
    """Per-worker circuit breaker: closed → open → half-open → closed.

    A *delivery* failure (expired lease, missed heartbeat, worker
    death) counts against the worker; a task's own exception does not —
    the worker delivered a frame, the task simply failed.
    """

    def __init__(self):
        self.state = "closed"
        self.failures = 0
        self.open_until = 0.0
        self._backoff = BREAKER_BACKOFF
        self.probe_inflight = False

    def allow(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if now < self.open_until:
                return False
            self.state = "half-open"
            self.probe_inflight = False
            get_registry().increment("engine.remote_breaker_half_open")
        # half-open: exactly one probe unit in flight at a time.
        return not self.probe_inflight

    def record_failure(self, now: float) -> None:
        self.failures += 1
        self.probe_inflight = False
        if self.state == "half-open" or self.failures >= BREAKER_FAILURES:
            if self.state != "open":
                get_registry().increment("engine.remote_breaker_open")
            self.state = "open"
            self.open_until = now + self._backoff
            self._backoff = min(BREAKER_BACKOFF_CAP, self._backoff * 2.0)

    def record_success(self) -> None:
        if self.state != "closed":
            get_registry().increment("engine.remote_breaker_closed")
        self.state = "closed"
        self.failures = 0
        self.probe_inflight = False
        self._backoff = BREAKER_BACKOFF


class _Worker:
    """Coordinator-side view of one registered worker."""

    def __init__(self, worker_id: str, fingerprint: dict):
        self.worker_id = worker_id
        self.fingerprint = fingerprint
        self.last_seen = time.monotonic()
        self.alive = True
        self.breaker = _Breaker()
        self.leases: set[str] = set()


class _Unit:
    """One content-addressed task unit and its delivery state."""

    __slots__ = (
        "unit_id", "batch", "index", "payload", "attempts", "redispatches",
        "lease_worker", "lease_deadline", "no_renew", "done", "digest",
        "value", "local", "inbox",
    )

    def __init__(self, unit_id: str, batch: "_Batch", index: int, payload: bytes | None):
        self.unit_id = unit_id
        self.batch = batch
        self.index = index
        self.payload = payload
        self.attempts = 0          # task-level ("err") retries
        self.redispatches = 0      # delivery-level re-grants
        self.lease_worker: str | None = None
        self.lease_deadline: float | None = None
        self.no_renew = False      # a force-expired lease stays expired
        self.done = False
        self.digest: str | None = None
        self.value = None
        self.local = payload is None  # unpicklable unit: run in-parent
        self.inbox: list[tuple[str, bytes]] = []


class _Batch:
    """Parent-side record of one submitted batch."""

    def __init__(self, batch_id, fn, tasks, policy, on_result, scope, workers):
        self.batch_id = batch_id
        self.fn = fn
        self.tasks = tasks
        self.policy = policy
        self.on_result = on_result
        self.scope = scope
        self.workers = workers
        self.units: list[_Unit] = []
        self.results: dict[int, object] = {}
        self.failure: BaseException | None = None
        self.aborted = False

    def record(self, index: int, value) -> None:
        if index in self.results:
            return
        self.results[index] = value
        if self.on_result is not None:
            self.on_result(index, value)

    def done(self) -> bool:
        return len(self.results) == len(self.tasks)


class FleetCoordinator:
    """Lease-based dispatch of sealed task units to registered workers.

    One instance serves every concurrent batch of its process; the
    HTTP front end (:class:`_FleetHandler`) and the submitting threads
    (:class:`RemoteWorkerTransport`) both call straight into it.  All
    state is guarded by one lock; frame *processing* (unpickling
    results, retry decisions, digest comparison) happens in the
    submitting thread via :meth:`pump`, never in HTTP handler threads.
    """

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig.from_env()
        self._lock = threading.RLock()
        self._workers: dict[str, _Worker] = {}
        self._units: dict[str, _Unit] = {}
        self._pending: deque[_Unit] = deque()
        self._batch_seq = itertools.count()
        self.fingerprint = environment_fingerprint()

    # -- worker-facing API (HTTP threads) -----------------------------------

    def register(self, worker_id: str, fingerprint, token: str | None):
        """Admit (or refuse) a worker; returns ``(http_status, body)``."""
        reg = get_registry()
        if not check_token(self.config.token, token):
            reg.increment("engine.remote_auth_rejected")
            return 403, {"error": "bad or missing fleet token"}
        if not isinstance(fingerprint, dict) or fingerprint != self.fingerprint:
            reg.increment("engine.remote_env_rejected")
            return 409, {
                "error": "environment fingerprint mismatch",
                "coordinator": self.fingerprint,
                "worker": fingerprint,
            }
        with self._lock:
            known = worker_id in self._workers
            self._workers[worker_id] = _Worker(worker_id, fingerprint)
        if not known:
            reg.increment("engine.remote_workers_registered")
        return 200, {
            "ok": True,
            "heartbeat": self.config.heartbeat,
            "lease": self.config.lease_seconds,
        }

    def heartbeat(self, worker_id: str):
        """Renew the worker's liveness and every renewable lease it holds."""
        now = time.monotonic()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return 410, {"error": f"unknown worker {worker_id!r}"}
            worker.last_seen = now
            worker.alive = True
            for unit_id in worker.leases:
                unit = self._units.get(unit_id)
                if unit is not None and not unit.no_renew:
                    unit.lease_deadline = now + self._lease_span(unit, now)
            return 200, {"ok": True, "leases": len(worker.leases)}

    def grant(self, worker_id: str):
        """Lease the next pending unit to ``worker_id`` (pull model)."""
        now = time.monotonic()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return 410, {"error": f"unknown worker {worker_id!r}"}
            worker.last_seen = now
            worker.alive = True
            if not worker.breaker.allow(now):
                return 200, {"unit": None, "backoff": self.config.heartbeat}
            while self._pending:
                unit = self._pending.popleft()
                if unit.done or unit.local or unit.batch.aborted:
                    continue
                span = self._lease_span(unit, now)
                unit.lease_worker = worker_id
                unit.lease_deadline = now + span
                unit.no_renew = False
                # Chaos hook: force this lease to expire despite a
                # healthy, heartbeating worker.
                if faults.should_fire("lease_expiry", task_index=unit.index):
                    unit.no_renew = True
                    unit.lease_deadline = now + min(0.2, span)
                worker.leases.add(unit.unit_id)
                if worker.breaker.state == "half-open":
                    worker.breaker.probe_inflight = True
                get_registry().increment("engine.remote_units_granted")
                return 200, {
                    "unit": {
                        "id": unit.unit_id,
                        "payload": base64.b64encode(unit.payload).decode("ascii"),
                        "lease": span,
                    }
                }
            return 200, {"unit": None}

    def deliver(self, worker_id: str, unit_id: str, frame: bytes):
        """Accept a result frame; it is processed later by :meth:`pump`."""
        now = time.monotonic()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return 410, {"error": f"unknown worker {worker_id!r}"}
            worker.last_seen = now
            worker.alive = True
            worker.leases.discard(unit_id)
            unit = self._units.get(unit_id)
            if unit is None:
                # A straggler of an already-finished (or aborted) batch.
                get_registry().increment("engine.remote_orphan_results")
                return 200, {"accepted": False}
            if unit.lease_worker == worker_id:
                unit.lease_worker = None
                unit.lease_deadline = None
            unit.inbox.append((worker_id, frame))
            return 200, {"accepted": True}

    def status_snapshot(self) -> dict:
        with self._lock:
            return {
                "workers": {
                    w.worker_id: {
                        "alive": w.alive,
                        "breaker": w.breaker.state,
                        "leases": len(w.leases),
                    }
                    for w in self._workers.values()
                },
                "pending_units": len(self._pending),
                "units": len(self._units),
            }

    # -- parent-facing API (submitting threads) -----------------------------

    def submit_batch(self, fn, tasks, policy, on_result, scope, workers) -> _Batch:
        """Seal each ``(fn, index, task)`` into a content-addressed unit."""
        reg = get_registry()
        batch_id = f"b{next(self._batch_seq)}-{os.urandom(4).hex()}"
        batch = _Batch(batch_id, fn, list(tasks), policy, on_result, scope, workers)
        with self._lock:
            for index, task in enumerate(batch.tasks):
                try:
                    payload = seal_payload(
                        pickle.dumps(
                            (fn, index, task), protocol=pickle.HIGHEST_PROTOCOL
                        )
                    )
                except Exception:
                    # The unit does not pickle: it runs in-parent, like
                    # every other transport's pickle fallback.
                    reg.increment("engine.pickle_fallback")
                    payload = None
                content = (
                    "local" if payload is None
                    else hashlib.sha256(payload).hexdigest()[:16]
                )
                unit = _Unit(f"{batch_id}-{index:06d}-{content}", batch, index, payload)
                batch.units.append(unit)
                self._units[unit.unit_id] = unit
                if not unit.local:
                    self._pending.append(unit)
        return batch

    def _lease_span(self, unit: _Unit, now: float) -> float:
        """Lease length for ``unit``, clamped to its batch's deadline."""
        span = self.config.lease_seconds
        if unit.batch.policy.task_timeout is not None:
            span = min(span, unit.batch.policy.task_timeout)
        remaining = unit.batch.scope.remaining()
        if remaining is not None:
            span = min(span, max(0.05, remaining))
        return span

    def _expire_unit(self, unit: _Unit, now: float, metric: str) -> None:
        """Release an expired lease and queue the unit for re-dispatch."""
        reg = get_registry()
        worker = self._workers.get(unit.lease_worker or "")
        if worker is not None:
            worker.leases.discard(unit.unit_id)
            worker.breaker.record_failure(now)
        unit.lease_worker = None
        unit.lease_deadline = None
        reg.increment(metric)
        unit.redispatches += 1
        if unit.redispatches > MAX_REDISPATCH:
            # The unit keeps bouncing: guarantee progress in-parent.
            unit.local = True
        else:
            reg.increment("engine.remote_redispatched")
            self._pending.appendleft(unit)

    def tick(self) -> None:
        """Advance failure detection: lost workers, expired leases."""
        now = time.monotonic()
        with self._lock:
            for worker in self._workers.values():
                if worker.alive and now - worker.last_seen > self.config.lease_seconds:
                    worker.alive = False
                    get_registry().increment("engine.remote_workers_lost")
                    for unit_id in list(worker.leases):
                        unit = self._units.get(unit_id)
                        if unit is not None and not unit.done:
                            self._expire_unit(unit, now, "engine.remote_heartbeat_missed")
                    worker.leases.clear()
            for unit in list(self._units.values()):
                if (
                    not unit.done
                    and unit.lease_deadline is not None
                    and now >= unit.lease_deadline
                ):
                    self._expire_unit(unit, now, "engine.remote_lease_expired")

    def pump(self, batch: _Batch) -> list[tuple[int, object]]:
        """Process delivered frames for ``batch``; return completions.

        Runs in the submitting thread.  Handles the whole result state
        machine: first-wins completion, task-error retries, unpicklable
        degradation, and the straggler digest race.
        """
        reg = get_registry()
        now = time.monotonic()
        completions: list[tuple[int, object]] = []
        with self._lock:
            for unit in batch.units:
                while unit.inbox:
                    worker_id, frame = unit.inbox.pop(0)
                    worker = self._workers.get(worker_id)
                    payload = unseal_payload(frame)
                    if payload is None:
                        reg.increment("engine.remote_corrupt_frames")
                        if worker is not None:
                            worker.breaker.record_failure(now)
                        if not unit.done and not unit.local:
                            self._pending.appendleft(unit)
                        continue
                    digest = hashlib.sha256(payload).hexdigest()
                    try:
                        status, value = pickle.loads(payload)
                    except Exception:
                        reg.increment("engine.remote_corrupt_frames")
                        if not unit.done and not unit.local:
                            self._pending.appendleft(unit)
                        continue
                    if unit.done:
                        # The straggler race: a late result for a unit a
                        # replacement already finished.  Bit-identity
                        # means the digests must agree.
                        if status == "ok":
                            if digest == unit.digest:
                                reg.increment("engine.remote_digest_agreements")
                            else:
                                reg.increment("engine.remote_digest_divergence")
                                if batch.failure is None:
                                    batch.failure = TransportError(
                                        f"unit {unit.unit_id} produced two "
                                        "divergent results "
                                        f"({unit.digest[:12]}… vs {digest[:12]}…): "
                                        "the same-seed rerun contract is broken"
                                    )
                        continue
                    if status == "ok":
                        unit.done = True
                        unit.digest = digest
                        unit.value = value
                        if worker is not None:
                            worker.breaker.record_success()
                        completions.append((unit.index, value))
                    elif status == "unpicklable":
                        reg.increment("engine.pickle_fallback")
                        unit.local = True
                        if worker is not None:
                            worker.breaker.record_success()
                    else:  # "err" (a pickled exception) or "err_str"
                        exc = (
                            value
                            if isinstance(value, BaseException)
                            else TransportError(str(value))
                        )
                        if worker is not None:
                            # The worker delivered; the *task* failed.
                            worker.breaker.record_success()
                        unit.attempts += 1
                        if unit.attempts > batch.policy.max_retries:
                            if batch.failure is None:
                                batch.failure = exc
                        else:
                            reg.increment("engine.retries")
                            self._pending.appendleft(unit)
        return completions

    def take_local(self, batch: _Batch) -> list[_Unit]:
        """Units flagged for in-parent execution, claimed exactly once."""
        with self._lock:
            out = [
                u for u in batch.units
                if u.local and not u.done and u.index not in batch.results
            ]
            for unit in out:
                unit.done = True  # claimed; the caller records the value
            return out

    def healthy_count(self) -> int:
        now = time.monotonic()
        with self._lock:
            return sum(
                1
                for w in self._workers.values()
                if w.alive and w.breaker.allow(now)
            )

    def abort_batch(self, batch: _Batch) -> list[int]:
        """Withdraw a batch's unfinished units; returns their indexes."""
        with self._lock:
            batch.aborted = True
            remaining = []
            for unit in batch.units:
                if unit.index not in batch.results:
                    remaining.append(unit.index)
                if unit.lease_worker is not None:
                    worker = self._workers.get(unit.lease_worker)
                    if worker is not None:
                        worker.leases.discard(unit.unit_id)
                    unit.lease_worker = None
                    unit.lease_deadline = None
            self._pending = deque(
                u for u in self._pending if u.batch is not batch
            )
            return sorted(remaining)

    def finish_batch(self, batch: _Batch) -> None:
        """Drop a batch's units from the tables (the batch has returned)."""
        with self._lock:
            for unit in batch.units:
                self._units.pop(unit.unit_id, None)
            self._pending = deque(
                u for u in self._pending if u.batch is not batch
            )


# ---------------------------------------------------------------------------
# Coordinator HTTP front end
# ---------------------------------------------------------------------------


class _FleetHandler(JsonHandler):
    """Route table over :class:`FleetCoordinator` — no logic of its own.

    Registration carries the token itself: :meth:`FleetCoordinator.register`
    checks it so a refusal is a counted 403
    (``engine.remote_auth_rejected``), not a transport 401.  Every
    other route checks the bearer token before reading the body.
    """

    server_version = "repro-fleet/1"
    open_routes = frozenset({("POST", "/v1/fleet/register")})

    @property
    def coordinator(self) -> FleetCoordinator:
        return self.server.coordinator  # type: ignore[attr-defined]

    def token(self) -> str | None:
        return self.coordinator.config.token

    def _body(self) -> dict:
        body = self.read_json()
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    def _worker(self) -> str:
        return str(self._body().get("worker", ""))

    def _register(self):
        body = self._body()
        return self.coordinator.register(
            str(body.get("worker", "")), body.get("fingerprint"), self.bearer()
        )

    def _deliver(self):
        body = self._body()
        try:
            frame = base64.b64decode(body.get("frame", ""))
        except (ValueError, TypeError):
            raise BadRequest("frame must be base64") from None
        return self.coordinator.deliver(
            str(body.get("worker", "")), str(body.get("unit", "")), frame
        )

    routes = {
        ("POST", "/v1/fleet/register"): _register,
        ("POST", "/v1/fleet/lease"): lambda h: h.coordinator.grant(h._worker()),
        ("POST", "/v1/fleet/heartbeat"): lambda h: h.coordinator.heartbeat(h._worker()),
        ("POST", "/v1/fleet/result"): _deliver,
        ("GET", "/v1/fleet/status"): lambda h: (200, h.coordinator.status_snapshot()),
    }


# ---------------------------------------------------------------------------
# Process-wide fleet lifecycle
# ---------------------------------------------------------------------------

_FLEET_LOCK = threading.Lock()
_COORDINATOR: FleetCoordinator | None = None
_HTTPD: ThreadingHTTPServer | None = None
_URL: str | None = None
_SPAWNED: list[subprocess.Popen] = []
_ATEXIT_INSTALLED = False


def start_coordinator(
    bind: str | None = None,
    token: str | None = None,
    config: FleetConfig | None = None,
) -> tuple[FleetCoordinator, str]:
    """Start (or return) the process-wide coordinator and its URL.

    Idempotent: a second call returns the running instance.  The bind
    address defaults to ``$REPRO_REMOTE_BIND`` (``127.0.0.1:0`` — an
    ephemeral loopback port).
    """
    global _COORDINATOR, _HTTPD, _URL, _ATEXIT_INSTALLED
    with _FLEET_LOCK:
        if _COORDINATOR is not None:
            return _COORDINATOR, _URL  # type: ignore[return-value]
        cfg = config or FleetConfig.from_env(bind=bind, token=token)
        host, _, port_text = cfg.bind.partition(":")
        try:
            port = int(port_text or 0)
        except ValueError:
            raise TransportError(
                f"malformed fleet bind address {cfg.bind!r}; expected host:port"
            ) from None
        coordinator = FleetCoordinator(cfg)
        httpd = start_http(
            host or "127.0.0.1", port, _FleetHandler, coordinator=coordinator
        )
        _COORDINATOR = coordinator
        _HTTPD = httpd
        _URL = f"http://{host or '127.0.0.1'}:{httpd.server_address[1]}"
        if not _ATEXIT_INSTALLED:
            atexit.register(shutdown_fleet)
            _ATEXIT_INSTALLED = True
        return coordinator, _URL


def get_coordinator() -> FleetCoordinator | None:
    """The running coordinator, or ``None``."""
    return _COORDINATOR


def coordinator_url() -> str | None:
    """The running coordinator's base URL, or ``None``."""
    return _URL


def shutdown_fleet() -> None:
    """Stop the coordinator and reap any auto-spawned workers."""
    global _COORDINATOR, _HTTPD, _URL
    with _FLEET_LOCK:
        httpd, _COORDINATOR, _HTTPD, _URL = _HTTPD, None, None, None
        spawned, _SPAWNED[:] = list(_SPAWNED), []
    if httpd is not None:
        httpd.shutdown()
        httpd.server_close()
    for proc in spawned:
        if proc.poll() is None:
            proc.terminate()
    for proc in spawned:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # A spawned worker must import repro from a cold start; the parent's
    # sys.path is authoritative regardless of install layout.
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _maintain_spawned(url: str, config: FleetConfig) -> None:
    """Keep ``config.spawn`` local worker processes attached to ``url``."""
    if config.spawn <= 0:
        return
    with _FLEET_LOCK:
        _SPAWNED[:] = [p for p in _SPAWNED if p.poll() is None]
        while len(_SPAWNED) < config.spawn:
            _SPAWNED.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.engine.remote",
                        "--coordinator", url,
                        "--poll", f"{max(0.02, config.heartbeat / 2):g}",
                    ],
                    env=_worker_env(),
                    stdout=subprocess.DEVNULL,
                )
            )
            get_registry().increment("engine.remote_workers_spawned")


# ---------------------------------------------------------------------------
# The transport
# ---------------------------------------------------------------------------


class RemoteWorkerTransport(Transport):
    """Ship task units to the registered worker fleet under leases.

    Registered lazily as ``remote`` (see
    :func:`repro.engine.transport.get_transport`); selected like any
    other transport — ``run_tasks(transport="remote")``,
    ``parallel(transport="remote")`` or ``$REPRO_TRANSPORT=remote`` —
    so manifests record it automatically and the degradation chain
    remote → pool → inline rides the existing selection seam.
    """

    name = "remote"
    isolates_tasks = True

    def run(self, fn, tasks, *, workers=1, policy=ResiliencePolicy(), on_result=None):
        tasks = list(tasks)
        if not tasks:
            return []
        scope = current_scope()
        coordinator, url = start_coordinator()
        _maintain_spawned(url, coordinator.config)
        batch = coordinator.submit_batch(fn, tasks, policy, on_result, scope, workers)
        try:
            return self._collect(coordinator, batch, scope)
        finally:
            coordinator.finish_batch(batch)

    def _collect(self, coordinator: FleetCoordinator, batch: _Batch, scope) -> list:
        reg = get_registry()
        config = coordinator.config
        last_healthy = time.monotonic()
        while True:
            try:
                scope.raise_if_cancelled()
            except JobCancelledError:
                coordinator.abort_batch(batch)
                raise
            coordinator.tick()
            for index, value in coordinator.pump(batch):
                batch.record(index, value)
            if batch.failure is not None:
                coordinator.abort_batch(batch)
                raise batch.failure
            for unit in coordinator.take_local(batch):
                reg.increment("engine.remote_local_units")
                batch.record(unit.index, batch.fn(batch.tasks[unit.index]))
            if batch.done():
                return [batch.results[i] for i in range(len(batch.tasks))]
            now = time.monotonic()
            if coordinator.healthy_count() > 0:
                last_healthy = now
            elif now - last_healthy >= config.connect_wait:
                return self._degrade(coordinator, batch)
            time.sleep(_TICK_SECONDS)

    def _degrade(self, coordinator: FleetCoordinator, batch: _Batch) -> list:
        """No healthy workers: finish on the supervised pool transport.

        The pool itself degrades to sequential in-parent execution when
        it keeps dying, so the full chain is remote → pool → inline —
        every rung bit-identical because the task units and their seeds
        are unchanged.
        """
        from repro.engine.transport import get_transport

        get_registry().increment("engine.remote_degraded")
        remaining = coordinator.abort_batch(batch)
        if remaining:
            get_transport("pool").run(
                batch.fn,
                [batch.tasks[i] for i in remaining],
                workers=max(1, min(batch.workers, len(remaining))),
                policy=batch.policy,
                on_result=lambda j, value: batch.record(remaining[j], value),
            )
        return [batch.results[i] for i in range(len(batch.tasks))]


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


class _CoordinatorClient:
    """Worker-side calls to the coordinator (token header, JSON bodies).

    Connection failures raise :class:`OSError` (urllib's ``URLError``
    is one); HTTP error answers come back as ``(status, body)``.
    """

    def __init__(self, base_url: str, token: str | None, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout

    def post(self, path: str, body: dict) -> tuple[int, dict]:
        status, answer, _ = request_json(
            "POST", f"{self.base_url}{path}", body, self.token, self.timeout
        )
        return status, answer


class _WorkerState:
    """Mutable worker-side state shared with the heartbeat thread."""

    def __init__(self):
        self.suppress_until = 0.0  # monotonic; heartbeat_loss / partition
        self.stop = threading.Event()

    def suppressed(self) -> bool:
        return time.monotonic() < self.suppress_until


def _heartbeat_loop(
    client: _CoordinatorClient, worker_id: str, interval: float, state: _WorkerState
) -> None:
    while not state.stop.wait(interval):
        if state.suppressed():
            continue
        try:
            client.post("/v1/fleet/heartbeat", {"worker": worker_id})
        except OSError:
            pass  # the lease loop owns giving up; a beat is best-effort


def _execute_unit(payload: bytes, state: _WorkerState | None = None) -> tuple[bytes, int]:
    """Run one unsealed unit; returns ``(sealed frame, index)``.

    The one producer of the result frame :meth:`FleetCoordinator.pump`
    consumes: a sealed pickle of ``("ok", value)`` / ``("err", exc)`` /
    ``("err_str", traceback)`` / ``("unpicklable", message)``.  The
    task runs through the fault-injection shim so ``worker_crash``,
    ``task_timeout`` and ``task_error`` plans reach this transport
    unchanged.
    """
    import traceback

    try:
        fn, index, task = pickle.loads(payload)
    except BaseException as exc:  # the unit names something we cannot import
        body = pickle.dumps(
            ("err_str", f"worker cannot deserialize unit: "
             f"{type(exc).__name__}: {exc}"),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return seal_payload(body), None
    # Chaos hook: the worker keeps computing this unit but its
    # heartbeats go dark for ``sleep`` seconds — modeled as a stalled
    # beat thread plus an equally long compute, so the coordinator must
    # expire the lease and re-dispatch while the answer is still coming.
    spec = faults.should_fire("heartbeat_loss", task_index=index)
    if spec is not None and state is not None:
        state.suppress_until = max(
            state.suppress_until, time.monotonic() + spec.sleep
        )
        time.sleep(spec.sleep)
    try:
        value = _invoke(fn, index, task)
    except BaseException as exc:  # noqa: BLE001 - errors ride the channel
        try:
            body = pickle.dumps(("err", exc), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            body = pickle.dumps(
                ("err_str",
                 "".join(traceback.format_exception(type(exc), exc,
                                                    exc.__traceback__))),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
    else:
        try:
            body = pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            body = pickle.dumps(
                ("unpicklable", f"{type(exc).__name__}: {exc}"),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
    return seal_payload(body), index


def run_worker(
    coordinator: str,
    token: str | None = None,
    poll: float = 0.25,
    grace: float = 30.0,
    max_units: int | None = None,
) -> int:
    """The worker loop: register, lease, execute, deliver, heartbeat.

    Exits 0 after a clean stop (``max_units`` reached), 1 when the
    coordinator stays unreachable for ``grace`` seconds, and 2 when
    registration is refused (bad token or environment mismatch).
    """
    if token is None:
        token = (
            os.environ.get("REPRO_REMOTE_TOKEN")
            or os.environ.get("REPRO_SERVE_TOKEN")
            or None
        )
    client = _CoordinatorClient(coordinator, token)
    worker_id = f"{socket.gethostname()}-{os.getpid()}-{os.urandom(3).hex()}"
    state = _WorkerState()

    def register() -> float | None:
        """Attempt registration; heartbeat interval on success."""
        status, answer = client.post(
            "/v1/fleet/register",
            {"worker": worker_id, "fingerprint": environment_fingerprint()},
        )
        if status == 200:
            return float(answer.get("heartbeat", 5.0))
        raise WorkerRejectedError(
            f"coordinator refused registration ({status}): "
            f"{answer.get('error', 'unknown reason')}"
        )

    deadline = time.monotonic() + grace
    interval = None
    while interval is None:
        try:
            interval = register()
        except OSError:
            if time.monotonic() >= deadline:
                print(
                    f"worker {worker_id}: coordinator {coordinator} unreachable "
                    f"for {grace:g}s; giving up",
                    file=sys.stderr,
                )
                return 1
            time.sleep(min(0.2, poll))
        except WorkerRejectedError as exc:
            print(f"worker {worker_id}: {exc}", file=sys.stderr)
            return 2

    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(client, worker_id, interval, state),
        name="repro-worker-heartbeat",
        daemon=True,
    )
    beat.start()
    print(f"worker {worker_id}: registered with {coordinator}", flush=True)

    executed = 0
    last_contact = time.monotonic()
    try:
        while True:
            if state.suppressed():
                time.sleep(poll)
                continue
            try:
                status, answer = client.post("/v1/fleet/lease", {"worker": worker_id})
            except OSError:
                if time.monotonic() - last_contact >= grace:
                    print(
                        f"worker {worker_id}: lost the coordinator for "
                        f"{grace:g}s; exiting",
                        file=sys.stderr,
                    )
                    return 1
                time.sleep(poll)
                continue
            last_contact = time.monotonic()
            if status == 410:
                # The coordinator restarted (or evicted us): re-register.
                try:
                    register()
                except WorkerRejectedError as exc:
                    print(f"worker {worker_id}: {exc}", file=sys.stderr)
                    return 2
                except OSError:
                    pass
                continue
            unit = (answer or {}).get("unit")
            if not unit:
                time.sleep(poll)
                continue
            payload = unseal_payload(base64.b64decode(unit.get("payload", "")))
            if payload is None:
                # A torn unit must be reported, never deserialized.
                frame = seal_payload(pickle.dumps(
                    ("err_str", "task unit failed its integrity check"),
                    protocol=pickle.HIGHEST_PROTOCOL,
                ))
                index = None
            else:
                frame, index = _execute_unit(payload, state)
            # Chaos hook: deliver late, fully partitioned in between —
            # no heartbeats, no result — so the lease expires and the
            # re-dispatched replacement races this straggler.
            spec = (
                faults.should_fire("worker_partition", task_index=index)
                if index is not None
                else None
            )
            if spec is not None:
                state.suppress_until = max(
                    state.suppress_until, time.monotonic() + spec.sleep
                )
                time.sleep(spec.sleep)
            for attempt in range(3):
                try:
                    client.post(
                        "/v1/fleet/result",
                        {
                            "worker": worker_id,
                            "unit": unit.get("id"),
                            "frame": base64.b64encode(frame).decode("ascii"),
                        },
                    )
                    break
                except OSError:
                    # Undeliverable results are the coordinator's
                    # problem: the lease expires and the unit re-runs.
                    time.sleep(min(0.2 * (attempt + 1), 1.0))
            executed += 1
            if max_units is not None and executed >= max_units:
                return 0
    finally:
        state.stop.set()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="join a repro fleet: pull sealed task units from a "
        "coordinator under lease-based assignment",
    )
    parser.add_argument(
        "--coordinator", required=True,
        help="coordinator base URL (printed by 'repro serve --transport remote')",
    )
    parser.add_argument(
        "--token", default=None,
        help="fleet bearer token (default $REPRO_REMOTE_TOKEN, "
        "else $REPRO_SERVE_TOKEN)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.25,
        help="seconds between lease polls when idle",
    )
    parser.add_argument(
        "--grace", type=float, default=30.0,
        help="seconds of coordinator unreachability before exiting",
    )
    parser.add_argument(
        "--max-units", type=int, default=None,
        help="exit after executing this many units (default: run forever)",
    )
    args = parser.parse_args(argv)
    return run_worker(
        args.coordinator,
        token=args.token,
        poll=args.poll,
        grace=args.grace,
        max_units=args.max_units,
    )


if __name__ == "__main__":
    raise SystemExit(main())
