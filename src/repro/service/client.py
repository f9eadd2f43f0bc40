"""Stdlib HTTP client for the job service (``urllib``, no deps).

Backpressure is surfaced as a typed exception: a 429 or 503 answer
raises :class:`~repro.errors.JobRejectedError` carrying the HTTP status
and the server's ``Retry-After`` hint, so callers implement honest
backoff instead of parsing error strings::

    client = ServiceClient("http://127.0.0.1:8765")
    try:
        job = client.submit(spec, tenant="ci", priority=2)
    except JobRejectedError as exc:
        time.sleep(exc.retry_after or 1.0)

Transient connection failures (resets, refusals — a coordinator
restarting, a proxy blinking) are retried with capped, jittered
exponential backoff, but **only for idempotent GETs**: a retried
submission could double-submit if the first attempt was accepted but
its response lost.  A bearer token (``token=`` or
``$REPRO_SERVE_TOKEN``) rides every request when configured.
"""

from __future__ import annotations

import os
import random
import time
import urllib.error

from repro.engine.wire import request_json
from repro.errors import JobRejectedError, ServiceError
from repro.service.jobs import TERMINAL_STATES, JobSpec

__all__ = ["ServiceClient"]

#: Retries of an idempotent GET after a connection failure.
RETRIES = 4

#: First retry backoff in seconds, doubling per retry up to the cap.
RETRY_BACKOFF = 0.1
RETRY_BACKOFF_CAP = 2.0


class ServiceClient:
    """Typed access to one service instance's HTTP API."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        token: str | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = (
            token
            if token is not None
            else (os.environ.get("REPRO_SERVE_TOKEN") or None)
        )

    # -- plumbing -----------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        attempts = RETRIES + 1 if method == "GET" else 1
        last_reason = None
        for attempt in range(attempts):
            if attempt:
                # Capped exponential backoff, fully jittered so a herd
                # of recovering clients does not re-stampede in sync.
                span = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * (2 ** (attempt - 1)))
                time.sleep(random.uniform(span / 2, span))
            try:
                return self._request_once(method, path, body)
            except ConnectionError as exc:
                last_reason = exc
            except urllib.error.URLError as exc:
                # HTTP error answers never land here: request_json
                # returns them and _request_once types them.
                last_reason = exc.reason
        raise ServiceError(
            f"cannot reach service at {self.base_url}: {last_reason}"
        ) from None

    def _request_once(self, method: str, path: str, body: dict | None) -> dict:
        status, payload, headers = request_json(
            method, f"{self.base_url}{path}", body, self.token, self.timeout
        )
        if 200 <= status < 300:
            return payload
        message = payload.get("error") or f"HTTP {status}"
        if status in (429, 503):
            retry_after = headers.get("Retry-After")
            raise JobRejectedError(
                message,
                status=status,
                retry_after=None if retry_after is None else float(retry_after),
            )
        raise ServiceError(f"{method} {path}: {message}")

    # -- API ----------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec | dict,
        *,
        tenant: str = "default",
        priority: int = 5,
        deadline_seconds: float | None = None,
    ) -> dict:
        if isinstance(spec, JobSpec):
            spec = spec.to_dict()
        payload: dict = {"spec": spec, "tenant": tenant, "priority": priority}
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return self._request("POST", "/v1/jobs", payload)

    def status(self, job_id: str, wait: float = 0.0) -> dict:
        """One job's status.  With ``wait`` > 0 the server holds its
        answer until the job is terminal or ``wait`` seconds pass."""
        query = f"?wait={wait:.3f}" if wait > 0 else ""
        return self._request("GET", f"/v1/jobs/{job_id}{query}")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs").get("jobs", [])

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def readyz(self) -> dict:
        return self._request("GET", "/readyz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def wait(self, job_id: str, timeout: float = 120.0, poll: float = 0.2) -> dict:
        """Block until the job reaches a terminal state; returns its status.

        Each round is one long-poll status request that the server
        answers as soon as the job is terminal, so a job that finishes
        in time costs one request.  A round asks the server to wait less
        than this client's socket ``timeout``, so the server always
        answers first.  ``poll`` is accepted for older callers and
        unused.

        Raises :class:`~repro.errors.ServiceError` on timeout — the job
        keeps running server-side; this only gives up on waiting.
        """
        deadline = time.monotonic() + timeout
        longest = self.timeout - min(1.0, self.timeout / 2)
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            status = self.status(job_id, wait=min(remaining, longest))
            if status.get("status") in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status.get('status')!r} "
                    f"after {timeout:g}s"
                )
