"""Crash recovery and graceful shutdown against a real server process.

The two headline guarantees of the service, asserted end to end:

* ``kill -9`` (here a deterministic ``server_crash`` fault) mid-ensemble
  loses nothing — a restart on the same state directory recovers the
  job from the unsealed journal and *resumes* it from the engine's
  checkpoints, producing a digest bit-identical to an uninterrupted run.
* SIGTERM drains cleanly: in-flight work finishes, the journal is
  sealed, and the process exits 0.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import JobSpec, ServiceClient

DECAY_SRC = "k = 0.3;\nkineticLawOf d : fMA(k);\nA = (d, 1) << A;\nA[40]\n"

#: 600 runs / 100 runs per batched-kernel task (CHUNK_RUNS=25 x
#: BATCH_CHUNKS=4) -> 6 checkpointable task units.
ENSEMBLE_PARAMS = {
    "mode": "ensemble",
    "times": [0.0, 1.0, 2.0, 3.0, 4.0],
    "n_runs": 600,
    "seed": 7,
}


def ensemble_spec():
    return JobSpec(
        kind="solve",
        formalism="biopepa",
        source=DECAY_SRC,
        capability="ssa",
        params=ENSEMBLE_PARAMS,
    )


def quick_spec():
    return JobSpec(
        kind="solve",
        formalism="pepa",
        source="P = (think, 1.0).Q;\nQ = (work, 2.0).P;\nP\n",
        capability="steady",
    )


class ServerProcess:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, state_dir: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--dir", str(state_dir), "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.stdout_lines: list[str] = []
        self._port = None
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self.proc.stdout:
            self.stdout_lines.append(line)
            if line.startswith("listening on http://"):
                self._port = int(line.rsplit(":", 1)[1])
                self._listening.set()
        self._listening.set()  # EOF: unblock waiters even on startup failure

    def client(self, timeout=30.0) -> ServiceClient:
        assert self._listening.wait(timeout=30.0), "server never came up"
        if self._port is None:
            raise AssertionError(
                f"server exited before listening:\n{''.join(self.stdout_lines)}"
                f"\n{self.proc.stderr.read()}"
            )
        return ServiceClient(f"http://127.0.0.1:{self._port}", timeout=timeout)

    def wait(self, timeout=120.0) -> int:
        code = self.proc.wait(timeout=timeout)
        self._reader.join(timeout=5.0)
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


@pytest.fixture
def server_env(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "checkpoints")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


@pytest.fixture
def reap():
    servers = []
    yield servers.append
    for server in servers:
        server.kill()


def _wait_terminal(client, job_id, timeout=90.0):
    """Like ``client.wait`` but tolerant of the server dying mid-poll."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status = client.status(job_id)
        except ServiceError:
            return None  # connection refused: the server crashed
        if status["status"] in ("done", "failed", "cancelled", "expired"):
            return status
        time.sleep(0.2)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


class TestCrashRecovery:
    def test_crash_mid_ensemble_resumes_bit_identically(
        self, tmp_path, server_env, reap
    ):
        # Reference digest from an uninterrupted in-process run.
        from repro.engine.run_manifest import result_digest
        from repro.manifest import run_from_source

        spec = ensemble_spec()
        reference = result_digest(
            run_from_source(
                "biopepa", DECAY_SRC, "ssa", backend=None, **ENSEMBLE_PARAMS
            )
        )
        assert reference is not None

        # A persistent fault plan (hand-rolled, not faults.inject, so the
        # claim files survive the server's crash and restart): exit(70)
        # right after task unit 2's checkpoint is sealed.
        scratch = tmp_path / "fired"
        scratch.mkdir()
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "scratch": str(scratch),
            "faults": [{"kind": "server_crash", "task_index": 2,
                        "backend": None, "sleep": 0.0, "times": 1}],
        }))
        env = dict(server_env, REPRO_FAULT_PLAN=str(plan_path))
        state_dir = tmp_path / "state"

        first = ServerProcess(state_dir, env)
        reap(first)
        client = first.client()
        job_id = client.submit(spec, tenant="chaos")["job_id"]
        assert job_id == spec.job_id
        assert _wait_terminal(client, job_id) is None, (
            "server survived a planned server_crash fault"
        )
        assert first.wait(timeout=120.0) == 70
        assert list(scratch.iterdir()), "fault never claimed its fire slot"

        # Chunks 0..2 were checkpointed before the crash.
        checkpoint_root = Path(env["REPRO_CACHE_DIR"])
        chunks = list(checkpoint_root.glob("chunk-*.pkl"))
        assert len({c.name.rsplit("-", 1)[0] for c in chunks}) == 1
        assert len(chunks) == 3

        # Same state dir, same env: the unsealed journal recovers the
        # job and the solve resumes from the surviving chunks.
        second = ServerProcess(state_dir, env)
        reap(second)
        client = second.client()
        status = _wait_terminal(client, job_id)
        assert status is not None and status["status"] == "done"
        assert status["recovered"] is True
        assert status["attempts"] >= 2

        document = client.result(job_id)
        assert document["digest"] == reference
        assert document["manifest"] is not None

        metrics = client.metrics()["counters"]
        assert metrics.get("engine.checkpoint_resumes", 0) >= 1
        assert metrics.get("service.recovered", 0) >= 1

        # Graceful goodbye: SIGTERM -> drain -> exit 0, sealed journal.
        second.proc.send_signal(signal.SIGTERM)
        assert second.wait(timeout=60.0) == 0
        from repro.service import JobJournal

        _, sealed = JobJournal.replay(state_dir / "journal.jsonl")
        assert sealed


class TestGracefulShutdown:
    def test_sigterm_drains_cleanly(self, tmp_path, server_env, reap):
        state_dir = tmp_path / "state"
        server = ServerProcess(state_dir, server_env)
        reap(server)
        client = server.client()
        job_id = client.submit(quick_spec())["job_id"]
        status = _wait_terminal(client, job_id)
        assert status is not None and status["status"] == "done"

        server.proc.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60.0) == 0
        assert any(
            line.startswith("drained cleanly") for line in server.stdout_lines
        )
        from repro.service import JobJournal

        records, sealed = JobJournal.replay(state_dir / "journal.jsonl")
        assert sealed
        # A clean seal compacts history to snapshot records; the drained
        # job's final state is carried by its snapshot.
        snapshots = [r["job"] for r in records if r.get("type") == "snapshot"]
        assert [j["status"] for j in snapshots if j["job_id"] == job_id] == ["done"]
