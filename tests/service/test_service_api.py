"""End-to-end service API tests over a live in-process HTTP server.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven through
:class:`~repro.service.client.ServiceClient`, with a controllable fake
executor so tests dictate job duration without running real solves.
"""

import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.engine.cancellation import current_scope
import repro.service.admission as admission
import repro.service.client as client_module
import repro.service.server as server_module
from repro.engine.metrics import get_registry
from repro.engine.wire import request_json
from repro.errors import JobRejectedError, ServiceError
from repro.service import JobSpec, ServiceClient, ServiceConfig
from repro.service.server import JobService, _Handler

PEPA_SRC = "P = (think, 1.0).Q;\nQ = (work, 2.0).P;\nP\n"


def make_spec(rate="1.0"):
    return JobSpec(
        kind="solve",
        formalism="pepa",
        source=PEPA_SRC.replace("1.0", rate),
        capability="steady",
    )


class FakeExecutor:
    """Executor seam: cancellable busy-wait of ``delay`` seconds per job."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = 0
        self.release = threading.Event()
        self.release.set()
        self.started = threading.Event()

    def __call__(self, spec):
        self.calls += 1
        self.started.set()
        deadline = time.monotonic() + self.delay
        scope = current_scope()
        while not self.release.is_set() or time.monotonic() < deadline:
            scope.raise_if_cancelled()
            time.sleep(0.01)
        return {"rate": spec.source}, None, f"result-fake-{spec.job_id}"


class LiveService:
    def __init__(self, root, config, executor):
        self.service = JobService(root, config=config, executor=executor)
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self.service
        self.service.start()
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        port = self.httpd.server_address[1]
        self.client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)

    def stop(self):
        self.service.drain(timeout=2.0)
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5.0)


@pytest.fixture
def live(tmp_path):
    """Factory for a live service; everything started is stopped after."""
    started = []

    def _start(config=None, executor=None, subdir="svc"):
        config = config or ServiceConfig(workers=2, drain_timeout=2.0)
        instance = LiveService(tmp_path / subdir, config, executor)
        started.append(instance)
        return instance

    yield _start
    for instance in started:
        instance.stop()


class TestLifecycle:
    def test_submit_runs_to_done_with_result(self, live):
        executor = FakeExecutor()
        box = live(executor=executor)
        assert box.client.healthz() == {"status": "ok"}
        assert box.client.readyz()["status"] == "ready"

        answer = box.client.submit(make_spec(), tenant="alice", priority=2)
        job_id = answer["job_id"]
        assert answer["status"] == "queued"
        status = box.client.wait(job_id, timeout=10.0)
        assert status["status"] == "done"
        assert status["tenant"] == "alice"
        assert status["attempts"] == 1

        document = box.client.result(job_id)
        assert document["job_id"] == job_id
        assert document["digest"] == f"result-fake-{job_id}"
        assert document["result"]["encoding"] == "params"
        assert executor.calls == 1

    def test_resubmission_is_deduped_not_re_executed(self, live):
        executor = FakeExecutor()
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        box.client.wait(job_id, timeout=10.0)

        again = box.client.submit(make_spec())
        assert again == {"job_id": job_id, "status": "done", "deduped": True}
        assert executor.calls == 1
        metrics = box.client.metrics()
        assert metrics["counters"]["service.deduped"] >= 1

    def test_inflight_submission_joins_existing_job(self, live):
        executor = FakeExecutor()
        executor.release.clear()  # hold the job open
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        executor.started.wait(timeout=5.0)
        joined = box.client.submit(make_spec())
        assert joined["job_id"] == job_id
        assert joined["deduped"] is True
        assert joined["status"] in ("queued", "running")
        executor.release.set()
        assert box.client.wait(job_id, timeout=10.0)["status"] == "done"
        assert executor.calls == 1

    def test_jobs_listing_and_unknown_job(self, live):
        box = live(executor=FakeExecutor())
        job_id = box.client.submit(make_spec())["job_id"]
        box.client.wait(job_id, timeout=10.0)
        listed = box.client.jobs()
        assert [job["job_id"] for job in listed] == [job_id]
        with pytest.raises(ServiceError, match="unknown job"):
            box.client.status("job-nope")
        with pytest.raises(ServiceError, match="unknown job"):
            box.client.cancel("job-nope")

    def test_malformed_submissions_are_400(self, live):
        box = live(executor=FakeExecutor())
        with pytest.raises(ServiceError, match="unknown fields"):
            box.client.submit({"kind": "solve", "nope": 1})
        with pytest.raises(ServiceError, match="JSON object"):
            box.client.submit(["not", "a", "spec"])

    def test_failed_job_reports_error(self, live):
        def exploding(spec):
            raise RuntimeError("solver blew up")

        box = live(executor=exploding)
        job_id = box.client.submit(make_spec())["job_id"]
        status = box.client.wait(job_id, timeout=10.0)
        assert status["status"] == "failed"
        assert "RuntimeError: solver blew up" in status["error"]
        with pytest.raises(ServiceError):  # 409: terminal but not done
            box.client.result(job_id)


class TestConfiguration:
    def test_transport_comes_from_the_engine_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "remote")
        assert ServiceConfig.from_env().transport == "remote"
        assert ServiceConfig.from_env(transport="pool").transport == "pool"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert ServiceConfig.from_env().transport is None


class TestCancellation:
    def test_cancel_running_job(self, live):
        executor = FakeExecutor()
        executor.release.clear()
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        executor.started.wait(timeout=5.0)
        answer = box.client.cancel(job_id)
        assert answer["status"] == "cancelling"
        status = box.client.wait(job_id, timeout=10.0)
        assert status["status"] == "cancelled"
        assert status["reason"] == "cancelled"

    def test_cancel_queued_job_never_runs(self, live, monkeypatch):
        monkeypatch.setattr(admission, "SHED_PRIORITY", 99)
        executor = FakeExecutor()
        executor.release.clear()
        config = ServiceConfig(workers=1, drain_timeout=2.0)
        box = live(config=config, executor=executor)
        blocker = box.client.submit(make_spec("1.0"))["job_id"]
        executor.started.wait(timeout=5.0)
        queued = box.client.submit(make_spec("2.0"))["job_id"]
        answer = box.client.cancel(queued)
        assert answer["status"] == "cancelled"
        executor.release.set()
        box.client.wait(blocker, timeout=10.0)
        assert box.client.status(queued)["status"] == "cancelled"
        assert executor.calls == 1

    def test_cancel_finished_job_is_409(self, live):
        box = live(executor=FakeExecutor())
        job_id = box.client.submit(make_spec())["job_id"]
        box.client.wait(job_id, timeout=10.0)
        with pytest.raises(ServiceError, match="already finished"):
            box.client.cancel(job_id)

    def test_deadline_expires_job(self, live):
        executor = FakeExecutor()
        executor.release.clear()  # runs until cancelled
        box = live(executor=executor)
        job_id = box.client.submit(make_spec(), deadline_seconds=0.2)["job_id"]
        status = box.client.wait(job_id, timeout=10.0)
        assert status["status"] == "expired"
        assert status["reason"] == "deadline"


class TestOverload:
    def test_flood_degrades_gracefully_and_recovers(self, live, monkeypatch):
        """The chaos check: flood a tiny service; it must refuse politely,
        never crash, and complete everything it admitted."""
        monkeypatch.setattr(admission, "SHED_THRESHOLD", 0.7)
        monkeypatch.setattr(admission, "RETRY_AFTER", 1.5)
        executor = FakeExecutor(delay=0.15)
        config = ServiceConfig(
            queue_capacity=3, workers=1, tenant_rate=1000.0, tenant_burst=1000.0
        )
        box = live(config=config, executor=executor)

        admitted, codes = [], []
        for i in range(25):
            try:
                answer = box.client.submit(
                    make_spec(f"{i + 1}.0"), tenant=f"t{i % 4}", priority=9
                )
                codes.append(202)
                admitted.append(answer["job_id"])
            except JobRejectedError as exc:
                codes.append(exc.status)
                assert exc.retry_after is not None and exc.retry_after > 0

        assert set(codes) <= {202, 429, 503}
        assert 503 in codes, "overload never shed low-priority work"
        assert admitted, "flood admitted nothing at all"

        # The server survived and still answers.
        assert box.client.healthz() == {"status": "ok"}
        # Every admitted job still completes.
        for job_id in admitted:
            assert box.client.wait(job_id, timeout=20.0)["status"] == "done"
        # Once the backlog clears the service is ready again.
        deadline = time.monotonic() + 10.0
        ready = None
        while time.monotonic() < deadline:
            try:
                ready = box.client.readyz()
                break
            except JobRejectedError:  # still saturated: readyz is 503
                time.sleep(0.05)
        assert ready is not None and ready["status"] == "ready"
        assert ready["queue_depth"] == 0

        metrics = box.client.metrics()["counters"]
        assert metrics["service.shed"] >= 1
        assert metrics["service.completed"] >= len(admitted)

    def test_rate_limited_tenant_gets_retry_after(self, live):
        config = ServiceConfig(
            workers=1, tenant_rate=0.5, tenant_burst=1.0, drain_timeout=2.0
        )
        box = live(config=config, executor=FakeExecutor())
        box.client.submit(make_spec("1.0"), tenant="flooder")
        with pytest.raises(JobRejectedError) as excinfo:
            box.client.submit(make_spec("2.0"), tenant="flooder")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 0.1


class TestDrain:
    def test_drain_refuses_submissions_and_seals_journal(self, live):
        executor = FakeExecutor()
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        box.client.wait(job_id, timeout=10.0)

        assert box.service.drain(timeout=2.0) is True
        with pytest.raises(JobRejectedError) as excinfo:
            box.client.submit(make_spec("9.0"))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        with pytest.raises(JobRejectedError):  # readyz answers 503 too
            box.client.readyz()
        # journal carries the seal record
        from repro.service import JobJournal

        _, sealed = JobJournal.replay(box.service.store.journal.path)
        assert sealed

    def test_drain_suspends_long_job_back_to_queued(self, live):
        executor = FakeExecutor()
        executor.release.clear()  # job runs until cancelled
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        executor.started.wait(timeout=5.0)
        before = get_registry().counter("service.suspended")
        assert box.service.drain(timeout=0.3) is True
        assert get_registry().counter("service.suspended") == before + 1
        # Durable state is queued -> a restart would resume the job.
        assert box.service.store.get(job_id).status == "queued"
        assert box.service.store.get(job_id).reason == "suspended"


class TestLongPoll:
    """``GET /v1/jobs/{id}?wait=S`` and the client's wait built on it."""

    @staticmethod
    def get(box, path):
        started = time.monotonic()
        status, body, _ = request_json("GET", f"{box.client.base_url}{path}")
        return status, body, time.monotonic() - started

    @pytest.mark.parametrize("raw", ["abc", "", "-1", "nan", "inf", "-inf"])
    def test_invalid_wait_is_400(self, live, raw):
        box = live(executor=FakeExecutor())
        job_id = box.client.submit(make_spec())["job_id"]
        status, body, _ = self.get(box, f"/v1/jobs/{job_id}?wait={raw}")
        assert status == 400
        assert "wait must be" in body["error"]

    def test_unknown_job_is_404_without_waiting(self, live):
        box = live(executor=FakeExecutor())
        status, body, elapsed = self.get(box, "/v1/jobs/job-nope?wait=5")
        assert status == 404 and "unknown job" in body["error"]
        assert elapsed < 1.0

    def test_terminal_job_answers_at_once(self, live):
        box = live(executor=FakeExecutor())
        job_id = box.client.submit(make_spec())["job_id"]
        box.client.wait(job_id, timeout=10.0)
        status, body, elapsed = self.get(box, f"/v1/jobs/{job_id}?wait=5")
        assert (status, body["status"]) == (200, "done")
        assert elapsed < 1.0

    def test_running_job_answers_its_status_at_the_capped_wait(
        self, live, monkeypatch
    ):
        monkeypatch.setattr(server_module, "MAX_STATUS_WAIT", 0.3)
        executor = FakeExecutor()
        executor.release.clear()
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        executor.started.wait(timeout=5.0)
        status, body, elapsed = self.get(box, f"/v1/jobs/{job_id}?wait=60")
        assert (status, body["status"]) == (200, "running")
        assert 0.3 <= elapsed < 3.0
        executor.release.set()

    def test_a_waiter_wakes_when_the_job_finishes(self, live):
        executor = FakeExecutor()
        executor.release.clear()
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        executor.started.wait(timeout=5.0)
        threading.Timer(0.3, executor.release.set).start()
        status, body, elapsed = self.get(box, f"/v1/jobs/{job_id}?wait=8")
        assert (status, body["status"]) == (200, "done")
        assert elapsed < 3.0

    def test_client_wait_makes_at_most_two_status_calls(self, live, monkeypatch):
        # A sleep-poll loop (poll=0.2) would ask about five times in 1 s.
        box = live(executor=FakeExecutor(delay=1.0))
        calls = []
        real_status = box.client.status

        def counting(job_id, wait=0.0):
            calls.append(wait)
            return real_status(job_id, wait=wait)

        monkeypatch.setattr(box.client, "status", counting)
        job_id = box.client.submit(make_spec())["job_id"]
        assert box.client.wait(job_id, timeout=8.0)["status"] == "done"
        assert 1 <= len(calls) <= 2

    def test_drain_wakes_a_waiter_on_a_running_job(self, live):
        executor = FakeExecutor()
        executor.release.clear()  # runs until the drain suspends it
        box = live(executor=executor)
        job_id = box.client.submit(make_spec())["job_id"]
        executor.started.wait(timeout=5.0)
        answered = {}

        def waiter():
            answered["body"] = box.client.status(job_id, wait=8.0)
            answered["at"] = time.monotonic()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.2)  # let the request reach the server and block
        drained_at = time.monotonic()
        box.service.drain(timeout=0.2)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert answered["at"] - drained_at < 1.0
        assert answered["body"]["status"] == "queued"


@pytest.mark.parametrize("socket_timeout", [0.5, 2.0, 30.0])
def test_client_never_asks_to_wait_past_its_socket_timeout(
    monkeypatch, socket_timeout
):
    requested = []

    def fake_request_json(method, url, body, token, timeout):
        _, _, wait = url.partition("?wait=")
        requested.append((float(wait or 0.0), timeout))
        state = "done" if len(requested) == 4 else "running"
        return 200, {"job_id": "job-x", "status": state}, {}

    monkeypatch.setattr(client_module, "request_json", fake_request_json)
    client = ServiceClient("http://service.invalid", timeout=socket_timeout)
    assert client.wait("job-x", timeout=120.0)["status"] == "done"
    assert len(requested) == 4
    for wait, timeout in requested:
        assert timeout == socket_timeout
        assert 0 < wait < timeout
