"""Crash-safe job state: a WAL-style journal plus atomic result files.

The service's durability contract is that ``kill -9`` at *any* instant
loses no accepted job and corrupts no state:

* Every state change is one appended, fsynced JSON line in
  ``journal.jsonl``, carrying a truncated-SHA-256 checksum of its own
  content.  A torn tail line (the crash hit mid-append) fails either
  JSON parsing or its checksum and is ignored on replay — the job
  simply re-runs its last durable state.
* Results are written to ``results/<job_id>.json`` via the
  unique-temp-name + ``rename`` idiom the disk cache uses, so a reader
  never observes a half-written result.
* A clean shutdown appends a ``seal`` record.  A journal *without* a
  seal at the end was interrupted; on restart every job whose last
  durable status was ``queued`` or ``running`` is re-enqueued (marked
  ``recovered``), where checkpointed batches resume from their
  completed chunks bit-identically.
* The journal does not grow without bound: on clean seal — and online,
  whenever it crosses ``$REPRO_SERVE_JOURNAL_MAX_BYTES`` — it is
  *compacted*: the live in-memory state is written as one ``snapshot``
  record per job into a fresh journal, which atomically replaces the
  old one (tmp + fsync + ``rename``, the same torn-write discipline as
  results).  ``kill -9`` mid-compaction leaves the pre-compaction
  journal intact (the tmp file is ignored and swept on the next open),
  so replay is never worse than before the compaction started.
  Counted as ``service.journal_compacted``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict
from pathlib import Path

from repro.engine.metrics import get_registry
from repro.errors import ServiceError
from repro.service.jobs import TERMINAL_STATES, JobRecord, JobSpec, now

__all__ = ["JobJournal", "JobStore"]


def _line_checksum(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class JobJournal:
    """Append-only journal of job lifecycle records.

    Record types: ``job`` (a submission, with its full spec), ``status``
    (one transition), ``seal`` (clean shutdown marker).  Appends are
    serialized, flushed and fsynced — a record either fully exists or
    is detectably torn.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._fh = None
        self._lock = threading.Lock()

    def open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A crash mid-compaction can strand a half-written replacement
        # journal; it was never renamed into place, so it is dead weight.
        for stale in self.path.parent.glob(f"{self.path.name}.*.compact-tmp"):
            stale.unlink(missing_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        if self._fh is None:
            raise ServiceError("journal is not open")
        line = dict(record)
        line["crc"] = _line_checksum(record)
        with self._lock:
            self._fh.write(json.dumps(line, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def size(self) -> int:
        """Current on-disk size in bytes (0 when the file is absent)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the journal's contents with ``records``.

        Each record is checksummed exactly as :meth:`append` would have;
        the new journal is fully written and fsynced to a temp name
        before the ``rename``, so a crash at any instant leaves either
        the complete old journal or the complete new one — never a mix.
        The append handle is reopened on the new file.
        """
        with self._lock:
            was_open = self._fh is not None
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            tmp = self.path.with_name(
                f"{self.path.name}.{os.getpid()}-{threading.get_ident()}.compact-tmp"
            )
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in records:
                    line = dict(record)
                    line["crc"] = _line_checksum(record)
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(self.path)
            if was_open:
                self._fh = open(self.path, "a", encoding="utf-8")

    def seal(self) -> None:
        """Mark a clean shutdown and close the journal."""
        if self._fh is None:
            return
        self.append({"type": "seal", "at": now()})
        self.close()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @classmethod
    def replay(cls, path: str | os.PathLike) -> tuple[list[dict], bool]:
        """All intact records in order, and whether the journal is sealed.

        Torn or corrupt lines are skipped (counted as
        ``service.journal_torn_lines``) — by the append discipline only
        the final line can legitimately be torn, but replay tolerates
        corruption anywhere rather than refusing to start.
        """
        path = Path(path)
        records: list[dict] = []
        if not path.exists():
            return records, False
        torn = 0
        for raw in path.read_text(encoding="utf-8", errors="replace").splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except ValueError:
                torn += 1
                continue
            if not isinstance(line, dict):
                torn += 1
                continue
            crc = line.pop("crc", None)
            if crc != _line_checksum(line):
                torn += 1
                continue
            records.append(line)
        if torn:
            get_registry().increment("service.journal_torn_lines", by=torn)
        sealed = bool(records) and records[-1].get("type") == "seal"
        return records, sealed


class JobStore:
    """All job state for one service instance, journal-backed.

    In-memory :class:`~repro.service.jobs.JobRecord` objects are the
    working set; the journal is their durable shadow.  Construction
    replays any existing journal: an unsealed one is a crash, and its
    interrupted (``queued``/``running``) jobs come back as ``queued``
    with ``recovered=True`` (counted as ``service.recovered``) so the
    runner picks them up again.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        journal_max_bytes: int | None = None,
    ):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.journal = JobJournal(self.root / "journal.jsonl")
        if journal_max_bytes is None:
            raw = os.environ.get("REPRO_SERVE_JOURNAL_MAX_BYTES")
            try:
                journal_max_bytes = int(raw) if raw else None
            except ValueError:
                journal_max_bytes = None
        self.journal_max_bytes = journal_max_bytes
        # After an online compaction the journal may legitimately still
        # exceed the configured threshold (many live jobs); only re-try
        # once it has grown meaningfully past the compacted size.
        self._compacted_floor = 0
        self._records: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        # Notified on every status change and on seal; see wait().
        self._changed = threading.Condition(self._lock)
        self._sealed = False
        self.recovered_ids = self._recover()
        self.journal.open()
        # Re-log recovered jobs' re-enqueue so the *new* journal epoch is
        # self-consistent even if this process also crashes.
        for job_id in self.recovered_ids:
            self.journal.append(
                {"type": "status", "job_id": job_id, "status": "queued",
                 "recovered": True, "at": now()}
            )

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> list[str]:
        records, sealed = JobJournal.replay(self.journal.path)
        for line in records:
            kind = line.get("type")
            if kind == "snapshot":
                job = line.get("job")
                if not isinstance(job, dict) or "job_id" not in job:
                    continue
                known = {f for f in JobRecord.__dataclass_fields__}
                try:
                    record = JobRecord(
                        **{k: v for k, v in job.items() if k in known}
                    )
                except TypeError:
                    continue  # snapshot from an incompatible schema: skip
                self._records[record.job_id] = record
            elif kind == "job":
                try:
                    spec = JobSpec.from_dict(line.get("spec"))
                except ServiceError:
                    continue  # journal from a newer/older schema: skip
                self._records[spec.job_id] = JobRecord(
                    job_id=spec.job_id,
                    spec=spec.to_dict(),
                    tenant=line.get("tenant", "default"),
                    priority=int(line.get("priority", 5)),
                    deadline_seconds=line.get("deadline_seconds"),
                    submitted_at=line.get("at", 0.0),
                )
            elif kind == "status":
                record = self._records.get(line.get("job_id"))
                if record is None:
                    continue
                record.status = line.get("status", record.status)
                record.error = line.get("error")
                record.reason = line.get("reason")
                if record.status == "running":
                    # Mirror set_status so replayed state is identical
                    # to the in-memory state that produced the journal.
                    record.attempts += 1
                if record.status in TERMINAL_STATES:
                    record.finished_at = line.get("at")
        recovered: list[str] = []
        for record in self._records.values():
            if record.status in TERMINAL_STATES:
                continue
            # queued or running at the moment of the crash (or of an
            # orderly suspend): runnable again.
            record.status = "queued"
            record.recovered = True
            record.attempts += 1
            recovered.append(record.job_id)
        if recovered and not sealed:
            get_registry().increment("service.recovered", by=len(recovered))
        return recovered

    # -- submissions and transitions ----------------------------------------

    def submit(
        self,
        spec: JobSpec,
        *,
        tenant: str = "default",
        priority: int = 5,
        deadline_seconds: float | None = None,
    ) -> JobRecord:
        record = JobRecord(
            job_id=spec.job_id,
            spec=spec.to_dict(),
            tenant=tenant,
            priority=priority,
            deadline_seconds=deadline_seconds,
            submitted_at=now(),
        )
        with self._lock:
            self._records[record.job_id] = record
            # Journalled under the store lock so a concurrent compaction
            # cannot snapshot state and then lose this append in the
            # rewrite race.
            self.journal.append(
                {"type": "job", "job_id": record.job_id, "spec": record.spec,
                 "tenant": tenant, "priority": priority,
                 "deadline_seconds": deadline_seconds, "at": record.submitted_at}
            )
            self._maybe_compact_locked()
        return record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def wait(self, job_id: str, timeout: float) -> JobRecord | None:
        """The job's record once it is terminal, the store is sealed or
        ``timeout`` seconds have passed; ``None`` at once for an unknown
        id.  The record may still be ``queued`` or ``running``."""

        def settled() -> bool:
            record = self._records.get(job_id)
            return record is None or record.status in TERMINAL_STATES or self._sealed

        with self._changed:
            self._changed.wait_for(settled, timeout)
            return self._records.get(job_id)

    def list_records(self) -> list[JobRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.submitted_at)

    def set_status(
        self,
        job_id: str,
        status: str,
        *,
        error: str | None = None,
        reason: str | None = None,
    ) -> None:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job {job_id!r}")
            record.status = status
            record.error = error
            record.reason = reason
            at = now()
            if status == "running":
                record.attempts += 1
            if status in TERMINAL_STATES:
                record.finished_at = at
            entry = {"type": "status", "job_id": job_id, "status": status,
                     "at": at}
            if error is not None:
                entry["error"] = error
            if reason is not None:
                entry["reason"] = reason
            self.journal.append(entry)
            self._maybe_compact_locked()
            self._changed.notify_all()

    # -- results -------------------------------------------------------------

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def save_result(
        self, job_id: str, *, digest: str | None, result: dict, manifest
    ) -> None:
        """Persist a completed job's result atomically (write + rename)."""
        document = {
            "job_id": job_id,
            "digest": digest,
            "result": result,
            "manifest": None if manifest is None else manifest.to_dict(),
        }
        path = self._result_path(job_id)
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(document, sort_keys=True))
        tmp.replace(path)

    def load_result(self, job_id: str) -> dict | None:
        try:
            return json.loads(self._result_path(job_id).read_text())
        except (OSError, ValueError):
            return None

    def has_result(self, job_id: str) -> bool:
        return self._result_path(job_id).exists()

    # -- compaction ----------------------------------------------------------

    def _snapshot_records(self) -> list[dict]:
        """One ``snapshot`` line per live job — the full replayable state."""
        at = now()
        return [
            {"type": "snapshot", "job": asdict(record), "at": at}
            for record in sorted(
                self._records.values(), key=lambda r: r.submitted_at
            )
        ]

    def _maybe_compact_locked(self) -> None:
        """Compact online once the journal crosses its size threshold."""
        if self.journal_max_bytes is None:
            return
        size = self.journal.size()
        if size <= self.journal_max_bytes or size <= 2 * self._compacted_floor:
            return
        self._compact_locked()

    def _compact_locked(self) -> None:
        self.journal.rewrite(self._snapshot_records())
        self._compacted_floor = self.journal.size()
        get_registry().increment("service.journal_compacted")

    def compact(self) -> None:
        """Replace the journal's history with a snapshot of live state.

        Replaying the compacted journal reconstructs exactly the same
        in-memory records as replaying the full history would have —
        the history is redundant with the state it produced.
        """
        with self._lock:
            self._compact_locked()

    def seal(self) -> None:
        """Close the epoch cleanly — the graceful-shutdown marker.

        A clean seal is also the natural compaction point: the snapshot
        plus the seal record is the smallest journal that restarts
        exactly here.  Every :meth:`wait` returns at once from here on.
        """
        with self._lock:
            self._compact_locked()
            self._sealed = True
            self._changed.notify_all()
        self.journal.seal()
