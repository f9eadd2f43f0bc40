"""The solver-as-a-service HTTP front end (stdlib ``http.server``).

Routes (all JSON)::

    POST   /v1/jobs             submit {spec, tenant?, priority?, deadline_seconds?}
    GET    /v1/jobs             list jobs
    GET    /v1/jobs/{id}        status of one job; ?wait=S holds the answer
                                until the job is terminal or S seconds
                                pass (S capped at MAX_STATUS_WAIT)
    GET    /v1/jobs/{id}/result result + run manifest (200 only when done)
    DELETE /v1/jobs/{id}        cancel (queued or running)
    GET    /healthz             liveness (200 while the process runs)
    GET    /readyz              readiness (503 when draining or saturated)
    GET    /v1/metrics          the process metrics snapshot

Submissions are deduplicated by content: a spec whose job id already
has a stored result answers 200 immediately (``deduped: true``) and
never re-solves; one that is already queued/running attaches to the
in-flight job.  Refusals carry ``Retry-After`` (429 backpressure and
rate limiting, 503 shedding and draining) — see
:mod:`repro.service.admission`.

Shutdown: SIGTERM (or ``JobService.drain``) stops admission, waits
``drain_timeout`` for in-flight jobs, suspends stragglers (their
checkpoints persist, the journal keeps them ``queued``), and seals the
journal.  A ``kill -9`` instead leaves the journal unsealed — the next
start recovers and resumes, which the crash suite asserts is
bit-identical.

Every ``REPRO_SERVE_*`` knob is documented in ``docs/engine.md``;
CLI flags override the environment.  The transport comes from
``$REPRO_TRANSPORT`` and the fleet coordinator's bind address from
``$REPRO_REMOTE_BIND``, as everywhere else in the engine; the
shedding thresholds and the ``Retry-After`` hint are
:mod:`repro.service.admission` constants.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass

from repro.engine.cache import get_cache
from repro.engine.metrics import get_registry
from repro.engine.resilience import env_number
from repro.engine.wire import BadRequest, JsonHandler, start_http
from repro.errors import JobRejectedError, ServiceError
from repro.service import admission
from repro.service.jobs import TERMINAL_STATES, JobSpec
from repro.service.journal import JobStore
from repro.service.runner import JobRunner

__all__ = ["MAX_STATUS_WAIT", "ServiceConfig", "JobService", "serve"]

#: Longest a ``GET /v1/jobs/{id}?wait=S`` holds its answer, in seconds;
#: a larger ``S`` is cut to this.
MAX_STATUS_WAIT = 30.0


@dataclass(frozen=True)
class ServiceConfig:
    """All service tuning in one place (env defaults, flag overrides)."""

    queue_capacity: int = 64
    workers: int = 2
    tenant_rate: float = 10.0
    tenant_burst: float = 20.0
    default_deadline: float | None = None
    drain_timeout: float = 10.0
    checkpoint_ttl: float | None = None
    #: Shared-secret bearer token for every ``/v1/*`` route (and the
    #: worker-registration credential when the fleet is on).  ``None``
    #: disables the check.
    token: str | None = None
    #: Transport the runner executes jobs on (``None`` = engine default;
    #: ``"remote"`` additionally starts the fleet coordinator).
    transport: str | None = None
    #: Bind address for the fleet coordinator (``host:port``, port 0 =
    #: ephemeral; ``None`` = ``$REPRO_REMOTE_BIND``).  Only meaningful
    #: with ``transport="remote"``.
    fleet_bind: str | None = None
    #: Online journal-compaction threshold in bytes (``None`` = compact
    #: only on clean seal).
    journal_max_bytes: int | None = None

    @classmethod
    def from_env(cls, **overrides) -> ServiceConfig:
        values = {
            "queue_capacity": env_number("REPRO_SERVE_QUEUE_CAPACITY", 64, int),
            "workers": env_number("REPRO_SERVE_WORKERS", 2, int),
            "tenant_rate": env_number("REPRO_SERVE_TENANT_RATE", 10.0, float),
            "tenant_burst": env_number("REPRO_SERVE_TENANT_BURST", 20.0, float),
            "default_deadline": env_number("REPRO_SERVE_DEADLINE", None, float),
            "drain_timeout": env_number("REPRO_SERVE_DRAIN_TIMEOUT", 10.0, float),
            "checkpoint_ttl": env_number("REPRO_SERVE_CHECKPOINT_TTL", None, float),
            "token": os.environ.get("REPRO_SERVE_TOKEN") or None,
            "transport": os.environ.get("REPRO_TRANSPORT") or None,
            "journal_max_bytes": env_number(
                "REPRO_SERVE_JOURNAL_MAX_BYTES", None, int
            ),
        }
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


class JobService:
    """The HTTP-free service core: submit/status/result/cancel/drain.

    Owns the store, admission controller and runner; the HTTP handler
    below (and the tests) call these methods directly.  Every method
    returns ``(http_status, body_dict, headers_dict)``.
    """

    def __init__(self, root, config: ServiceConfig | None = None, executor=None):
        self.config = config or ServiceConfig()
        self.store = JobStore(
            root, journal_max_bytes=self.config.journal_max_bytes
        )
        self.admission = admission.AdmissionController(
            capacity=self.config.queue_capacity,
            workers=self.config.workers,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
        )
        self.runner = JobRunner(
            self.store, self.admission,
            workers=self.config.workers, executor=executor,
            transport=self.config.transport,
        )
        self.draining = False
        self._drained = threading.Event()
        self._submit_lock = threading.Lock()
        if self.config.checkpoint_ttl is not None:
            get_cache().purge_chunks(self.config.checkpoint_ttl)

    def start(self) -> None:
        self.runner.start()
        self.runner.resume_recovered()

    # -- routes -------------------------------------------------------------

    def submit(self, payload) -> tuple[int, dict, dict]:
        reg = get_registry()
        reg.increment("service.submitted")
        if not isinstance(payload, dict):
            return 400, {"error": "submission must be a JSON object"}, {}
        try:
            spec = JobSpec.from_dict(payload.get("spec"))
        except ServiceError as exc:
            return 400, {"error": str(exc)}, {}
        tenant = str(payload.get("tenant", "default"))
        try:
            priority = int(payload.get("priority", 5))
        except (TypeError, ValueError):
            return 400, {"error": "priority must be an integer"}, {}
        deadline = payload.get("deadline_seconds", self.config.default_deadline)
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                return 400, {"error": "deadline_seconds must be a number"}, {}
            if deadline <= 0:
                return 400, {"error": "deadline_seconds must be positive"}, {}
        job_id = spec.job_id
        with self._submit_lock:
            if self.draining:
                return (
                    503,
                    {"error": "service is draining", "job_id": job_id},
                    {"Retry-After": f"{admission.RETRY_AFTER:g}"},
                )
            # Content-addressed dedupe: a finished identical job answers
            # from its stored result; an in-flight one is joined.
            existing = self.store.get(job_id)
            if (existing is not None and existing.status == "done") or (
                existing is None and self.store.has_result(job_id)
            ):
                reg.increment("service.deduped")
                return 200, {"job_id": job_id, "status": "done",
                             "deduped": True}, {}
            if existing is not None and existing.status not in TERMINAL_STATES:
                reg.increment("service.deduped")
                return 202, {"job_id": job_id, "status": existing.status,
                             "deduped": True}, {}
            try:
                self.admission.admit(
                    job_id, tenant=tenant, priority=priority,
                    on_admit=lambda: self.store.submit(
                        spec, tenant=tenant, priority=priority,
                        deadline_seconds=deadline,
                    ),
                )
            except JobRejectedError as exc:
                headers = {}
                if exc.retry_after is not None:
                    headers["Retry-After"] = f"{exc.retry_after:g}"
                return exc.status, {"error": str(exc), "job_id": job_id}, headers
        return 202, {"job_id": job_id, "status": "queued"}, {}

    def status(self, job_id: str, wait: float = 0.0) -> tuple[int, dict, dict]:
        """One job's status, held up to ``wait`` seconds (capped at
        :data:`MAX_STATUS_WAIT`) until the job is terminal.  Draining
        wakes every waiter when it seals the journal."""
        record = self.store.wait(job_id, min(wait, MAX_STATUS_WAIT))
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        return 200, record.to_public(), {}

    def result(self, job_id: str) -> tuple[int, dict, dict]:
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if record.status == "done":
            document = self.store.load_result(job_id)
            if document is None:
                return 500, {"error": "result file missing or corrupt"}, {}
            return 200, document, {}
        if record.status in TERMINAL_STATES:
            return 409, {"job_id": job_id, "status": record.status,
                         "error": record.error, "reason": record.reason}, {}
        return 202, {"job_id": job_id, "status": record.status}, {}

    def cancel(self, job_id: str) -> tuple[int, dict, dict]:
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if record.status == "queued":
            self.store.set_status(job_id, "cancelled", reason="cancelled")
            get_registry().increment("service.cancelled")
            return 200, {"job_id": job_id, "status": "cancelled"}, {}
        if record.status == "running":
            self.runner.cancel(job_id)
            return 202, {"job_id": job_id, "status": "cancelling"}, {}
        return 409, {"job_id": job_id, "status": record.status,
                     "error": "job already finished"}, {}

    def jobs(self) -> tuple[int, dict, dict]:
        return 200, {"jobs": [r.to_public() for r in self.store.list_records()]}, {}

    def healthz(self) -> tuple[int, dict, dict]:
        return 200, {"status": "ok"}, {}

    def readyz(self) -> tuple[int, dict, dict]:
        load = self.admission.load()
        body = {
            "load": load,
            "queue_depth": self.admission.depth(),
            "busy": self.admission.busy(),
            "draining": self.draining,
        }
        if self.draining or load >= 1.0:
            body["status"] = "unavailable"
            return 503, body, {"Retry-After": f"{admission.RETRY_AFTER:g}"}
        body["status"] = "ready"
        return 200, body, {}

    def metrics(self) -> tuple[int, dict, dict]:
        return 200, get_registry().snapshot(), {}

    # -- shutdown -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: refuse new work, finish/suspend, seal."""
        with self._submit_lock:
            already = self.draining
            self.draining = True
        if already:
            self._drained.wait()
            return True
        clean = self.runner.drain(
            self.config.drain_timeout if timeout is None else timeout
        )
        self.store.seal()
        get_registry().increment("service.drained")
        self._drained.set()
        return clean


class _Handler(JsonHandler):
    """Route table over :class:`JobService` — no logic of its own.

    Every ``/v1/*`` route demands the bearer token; ``healthz`` and
    ``readyz`` stay open so orchestrators probe them without
    credentials.
    """

    server_version = "repro-serve/1"
    auth_counter = "service.auth_rejected"

    @property
    def service(self) -> JobService:
        return self.server.service  # type: ignore[attr-defined]

    def token(self) -> str | None:
        return self.service.config.token

    def _status(self, job_id: str):
        raw = self.query.get("wait", "0")
        try:
            wait = float(raw)
        except ValueError:
            wait = math.nan
        if not (math.isfinite(wait) and wait >= 0):
            raise BadRequest(f"wait must be a finite number of seconds >= 0, not {raw!r}")
        return self.service.status(job_id, wait)

    def _submit(self):
        payload = self.read_json()
        if payload is None:
            raise BadRequest("request body must be JSON")
        return self.service.submit(payload)

    routes = {
        ("POST", "/v1/jobs"): _submit,
        ("GET", "/healthz"): lambda h: h.service.healthz(),
        ("GET", "/readyz"): lambda h: h.service.readyz(),
        ("GET", "/v1/metrics"): lambda h: h.service.metrics(),
        ("GET", "/v1/jobs"): lambda h: h.service.jobs(),
        ("GET", "/v1/jobs/*/result"): lambda h, job_id: h.service.result(job_id),
        ("GET", "/v1/jobs/*"): _status,
        ("DELETE", "/v1/jobs/*"): lambda h, job_id: h.service.cancel(job_id),
    }


def serve(
    root,
    host: str = "127.0.0.1",
    port: int = 8765,
    config: ServiceConfig | None = None,
    executor=None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain.  Returns 0."""
    config = config or ServiceConfig.from_env()
    service = JobService(root, config=config, executor=executor)
    httpd = start_http(host, port, _Handler, service=service)
    if config.transport == "remote":
        # The fleet coordinator rides in the serving process: jobs the
        # runner executes with transport="remote" submit batches to it,
        # and `repro worker` processes register against its URL.
        from repro.engine.remote import start_coordinator

        _, fleet_url = start_coordinator(
            bind=config.fleet_bind, token=config.token
        )
        print(f"fleet coordinator on {fleet_url}", flush=True)
    service.start()

    def _shutdown(signum, frame):
        # Drain off the main thread so in-flight jobs finish while the
        # listener keeps answering health checks; the main thread stops
        # the listener once the journal is sealed.
        threading.Thread(target=service.drain, name="repro-serve-drain").start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)

    actual_port = httpd.server_address[1]
    print(f"listening on http://{host}:{actual_port}", flush=True)
    try:
        service._drained.wait()
    finally:
        httpd.shutdown()
        httpd.server_close()
        if not service._drained.is_set():
            service.drain()
    print("drained cleanly", flush=True)
    return 0
