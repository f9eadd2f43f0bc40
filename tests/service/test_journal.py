"""Journal durability: checksums, torn tails, crash recovery, atomic results."""

import json
import sys
import threading
import time

import pytest

from repro.engine.metrics import get_registry
from repro.service import JobJournal, JobSpec, JobStore

PEPA_SRC = "P = (think, 1.0).Q;\nQ = (work, 2.0).P;\nP\n"


def make_spec(rate="1.0"):
    return JobSpec(
        kind="solve",
        formalism="pepa",
        source=PEPA_SRC.replace("1.0", rate),
        capability="steady",
    )


class TestJobJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.open()
        journal.append({"type": "job", "job_id": "a", "at": 1.0})
        journal.append({"type": "status", "job_id": "a", "status": "done"})
        journal.close()
        records, sealed = JobJournal.replay(journal.path)
        assert [r["type"] for r in records] == ["job", "status"]
        assert not sealed

    def test_seal_marks_clean_shutdown(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.open()
        journal.append({"type": "job", "job_id": "a"})
        journal.seal()
        records, sealed = JobJournal.replay(journal.path)
        assert sealed
        assert records[-1]["type"] == "seal"

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.open()
        journal.append({"type": "job", "job_id": "a"})
        journal.append({"type": "status", "job_id": "a", "status": "running"})
        journal.close()
        # Simulate a crash mid-append: truncate the last line partway.
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        before = get_registry().counter("service.journal_torn_lines")
        records, sealed = JobJournal.replay(path)
        assert [r["type"] for r in records] == ["job"]
        assert not sealed
        assert get_registry().counter("service.journal_torn_lines") == before + 1

    def test_bitflip_fails_checksum(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.open()
        journal.append({"type": "status", "job_id": "a", "status": "done"})
        journal.close()
        corrupted = path.read_text().replace('"done"', '"dont"')
        path.write_text(corrupted)
        records, _ = JobJournal.replay(path)
        assert records == []

    def test_append_requires_open(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="not open"):
            JobJournal(tmp_path / "j.jsonl").append({"type": "job"})


class TestJobStore:
    def test_submit_and_status_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        spec = make_spec()
        record = store.submit(spec, tenant="alice", priority=3)
        assert record.status == "queued"
        store.set_status(record.job_id, "running")
        store.set_status(record.job_id, "done")
        fetched = store.get(record.job_id)
        assert fetched.status == "done"
        assert fetched.attempts == 1
        assert fetched.finished_at is not None
        store.seal()

    def test_waiters_wake_on_every_terminal_transition(self, tmp_path):
        # More threads than cores and a tiny switch interval: a lost
        # notify leaves a waiter asleep until its 10 s timeout.
        store = JobStore(tmp_path)
        job_ids = [store.submit(make_spec(f"{i}.5")).job_id for i in range(8)]
        answers = []

        def waiter(job_id):
            answers.append(store.wait(job_id, 10.0).status)

        def finisher(job_id):
            store.set_status(job_id, "running")
            store.set_status(job_id, "done")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            waiters = [
                threading.Thread(target=waiter, args=(job_id,))
                for job_id in job_ids for _ in range(3)
            ]
            for thread in waiters:
                thread.start()
            finishers = [
                threading.Thread(target=finisher, args=(job_id,)) for job_id in job_ids
            ]
            for thread in finishers:
                thread.start()
            for thread in finishers + waiters:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert answers == ["done"] * len(waiters)
        assert time.monotonic() - started < 5.0
        assert store.wait("job-unknown", 10.0) is None
        store.seal()

    def test_seal_wakes_waiters_on_unfinished_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(make_spec()).job_id
        threading.Timer(0.2, store.seal).start()
        started = time.monotonic()
        assert store.wait(job_id, 10.0).status == "queued"
        assert time.monotonic() - started < 2.0
        # Sealed: later waiters answer at once.
        assert store.wait(job_id, 10.0).status == "queued"
        assert time.monotonic() - started < 2.0

    def test_sealed_journal_recovers_terminal_state(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(make_spec()).job_id
        store.set_status(job_id, "running")
        store.set_status(job_id, "done")
        store.seal()

        reopened = JobStore(tmp_path)
        assert reopened.recovered_ids == []
        assert reopened.get(job_id).status == "done"

    def test_unsealed_journal_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        running_id = store.submit(make_spec("1.0")).job_id
        queued_id = store.submit(make_spec("2.0")).job_id
        done_id = store.submit(make_spec("3.0")).job_id
        store.set_status(running_id, "running")
        store.set_status(done_id, "running")
        store.set_status(done_id, "done")
        store.journal.close()  # crash: no seal record

        before = get_registry().counter("service.recovered")
        reopened = JobStore(tmp_path)
        assert set(reopened.recovered_ids) == {running_id, queued_id}
        assert get_registry().counter("service.recovered") == before + 2
        for job_id in (running_id, queued_id):
            record = reopened.get(job_id)
            assert record.status == "queued"
            assert record.recovered
            assert record.attempts >= 1
        assert reopened.get(done_id).status == "done"

    def test_recovery_survives_torn_tail(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(make_spec()).job_id
        store.set_status(job_id, "running")
        store.journal.close()
        path = store.journal.path
        path.write_bytes(path.read_bytes() + b'{"type": "status", "job_')

        reopened = JobStore(tmp_path)
        assert reopened.recovered_ids == [job_id]

    def test_recovered_jobs_relogged_into_new_epoch(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(make_spec()).job_id
        store.journal.close()

        reopened = JobStore(tmp_path)
        assert reopened.recovered_ids == [job_id]
        reopened.journal.close()
        # A second crash right after restart must still find the job queued.
        again = JobStore(tmp_path)
        assert again.recovered_ids == [job_id]

    def test_save_result_is_atomic_and_readable(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit(make_spec()).job_id
        store.save_result(
            job_id,
            digest="result-abc",
            result={"encoding": "params", "value": 1},
            manifest=None,
        )
        assert store.has_result(job_id)
        document = store.load_result(job_id)
        assert document["digest"] == "result-abc"
        assert document["manifest"] is None
        assert not list(store.results_dir.glob("*.tmp"))

    def test_load_result_tolerates_missing_and_garbage(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.load_result("job-missing") is None
        (store.results_dir / "job-bad.json").write_text("{not json")
        assert store.load_result("job-bad") is None

    def test_journal_lines_carry_checksums(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(make_spec())
        store.seal()
        for raw in store.journal.path.read_text().splitlines():
            assert "crc" in json.loads(raw)
