"""Submission ordering: a job's record exists before its id is takeable.

The service core is driven directly (no HTTP, runner threads not
started): the test plays the worker itself, so the interleaving between
a submission and a worker's ``take()`` is forced with events.
"""

import threading

from repro.service import JobSpec, ServiceConfig
from repro.service.journal import JobStore
from repro.service.server import JobService

PEPA_SRC = "P = (think, 1.0).Q;\nQ = (work, 2.0).P;\nP\n"


def make_payload(rate="1.0"):
    spec = JobSpec(
        kind="solve",
        formalism="pepa",
        source=PEPA_SRC.replace("1.0", rate),
        capability="steady",
    )
    return {"spec": spec.to_dict()}


def test_worker_never_takes_an_unrecorded_job(tmp_path):
    service = JobService(tmp_path / "svc", config=ServiceConfig(workers=1))
    go = threading.Event()
    observed = threading.Event()
    seen = {}

    def worker():
        go.wait(10.0)
        job_id = service.admission.take(timeout=0)
        seen["job_id"] = job_id
        seen["record"] = None if job_id is None else service.store.get(job_id)
        if job_id is not None:
            service.admission.release()
        observed.set()

    real_submit = service.store.submit

    def submit_in_the_gap(*args, **kwargs):
        # If the id is already takeable while its record is still being
        # written, let the worker take it right now: that is the race.
        if service.admission.depth():
            go.set()
            observed.wait(10.0)
        return real_submit(*args, **kwargs)

    service.store.submit = submit_in_the_gap
    thread = threading.Thread(target=worker)
    thread.start()
    try:
        status, body, _ = service.submit(make_payload())
    finally:
        go.set()
        thread.join(10.0)
        service.store.journal.close()
    assert status == 202
    assert seen["job_id"] == body["job_id"]
    record = seen["record"]
    assert record is not None, "worker took a job whose record did not exist"
    assert record.status == "queued"


def test_refused_submission_leaves_no_record(tmp_path):
    root = tmp_path / "svc"
    service = JobService(root, config=ServiceConfig(queue_capacity=1))
    first = service.submit(make_payload("1.0"))
    refused = service.submit(make_payload("2.0"))
    service.store.journal.close()
    assert first[0] == 202
    assert refused[0] == 429
    refused_id = refused[1]["job_id"]
    assert service.store.get(refused_id) is None

    # An unsealed journal replays as a crash: the admitted job comes back
    # queued, the refused one does not come back at all.
    recovered = JobStore(root)
    try:
        assert recovered.recovered_ids == [first[1]["job_id"]]
        assert recovered.get(refused_id) is None
    finally:
        recovered.journal.close()
