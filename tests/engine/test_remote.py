"""The remote worker fleet: leases, failover, chaos, bit-identity.

Two layers of tests:

* **Coordinator-level** (no HTTP, no subprocesses): drive
  :class:`~repro.engine.remote.FleetCoordinator` register/grant/deliver
  directly with hand-built frames, so the inherently racy paths — the
  straggler digest agreement/divergence, the circuit breaker, lease
  expiry bookkeeping — are tested deterministically.
* **Fleet-level chaos** (real worker subprocesses over real HTTP):
  auto-spawned workers execute ensembles while injected faults kill,
  stall, and partition them mid-run; every test's only oracle is
  bit-identity with an inline run of the same tasks.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time

import numpy as np
import pytest

import repro.engine.remote as remote
from repro.engine import faults, parallel, run_tasks
from repro.engine.cache import seal_payload
from repro.engine.cancellation import NULL_SCOPE, CancelScope, cancel_scope
from repro.engine.environment import environment_fingerprint
from repro.engine.metrics import get_registry
from repro.engine.resilience import ResiliencePolicy
from repro.engine.transport import available_transports, get_transport, resolve_transport
from repro.errors import JobCancelledError, TransportError, WorkerRejectedError


# -- module-level task functions (workers import this module) ----------------


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.4)
    return x * x


def seeded_draw(args):
    """A genuinely stochastic unit: bit-identity is only as good as the
    same-seed rerun contract this transport leans on."""
    seed, n = args
    rng = np.random.default_rng(seed)
    return rng.normal(size=n).tolist()


def failing(x):
    raise ValueError(f"task {x} always fails")


# -- fixtures ----------------------------------------------------------------


@pytest.fixture
def fleet(monkeypatch):
    """Configure fast fleet knobs; the coordinator starts lazily on the
    first remote submit and is torn down (with its spawned workers)
    after the test."""

    def _configure(spawn=2, lease=1.5, connect_wait=15.0, **env):
        monkeypatch.setenv("REPRO_REMOTE_SPAWN", str(spawn))
        monkeypatch.setenv("REPRO_REMOTE_LEASE", str(lease))
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_WAIT", str(connect_wait))
        for key, value in env.items():
            monkeypatch.setenv(key, str(value))

    yield _configure
    remote.shutdown_fleet()


def counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


def ok_frame(value) -> bytes:
    return seal_payload(pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL))


# -- transport registration ---------------------------------------------------


def test_remote_transport_is_registered_lazily():
    assert "remote" in available_transports()
    transport = get_transport("remote")
    assert transport.name == "remote"
    assert transport.isolates_tasks
    assert resolve_transport("remote", workers=4) is transport


def test_malformed_fleet_env_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_REMOTE_LEASE", "abc")
    with pytest.warns(RuntimeWarning, match="REPRO_REMOTE_LEASE"):
        config = remote.FleetConfig.from_env()
    assert config.lease_seconds == 15.0


def test_heartbeat_is_a_third_of_the_lease():
    assert remote.FleetConfig().heartbeat == 5.0
    assert remote.FleetConfig(lease_seconds=0.3).heartbeat == pytest.approx(0.1)
    assert remote.FleetConfig(lease_seconds=0.06).heartbeat == 0.05  # floor


def test_new_fault_kinds_exist():
    for kind in ("worker_partition", "heartbeat_loss", "lease_expiry"):
        assert kind in faults.FAULT_KINDS
        faults.FaultSpec(kind, task_index=0)  # constructs without error


def test_cancel_scope_remaining():
    assert NULL_SCOPE.remaining() is None
    assert CancelScope().remaining() is None
    bounded = CancelScope(deadline_seconds=60.0)
    left = bounded.remaining()
    assert left is not None and 0.0 < left <= 60.0


# -- coordinator-level: registration -----------------------------------------


def test_register_rejects_bad_token():
    coord = remote.FleetCoordinator(remote.FleetConfig(token="s3cret"))
    status, body = coord.register("w1", environment_fingerprint(), "wrong")
    assert status == 403
    status, body = coord.register("w1", environment_fingerprint(), None)
    assert status == 403
    status, body = coord.register("w1", environment_fingerprint(), "s3cret")
    assert status == 200
    assert body["heartbeat"] > 0


def test_register_rejects_environment_mismatch():
    coord = remote.FleetCoordinator(remote.FleetConfig())
    alien = dict(environment_fingerprint())
    alien["numpy"] = "0.0.1-alien"
    status, body = coord.register("w1", alien, None)
    assert status == 409
    assert "mismatch" in body["error"]
    # A matching stack is admitted.
    status, _ = coord.register("w1", environment_fingerprint(), None)
    assert status == 200


def test_unknown_worker_gets_410():
    coord = remote.FleetCoordinator(remote.FleetConfig())
    assert coord.heartbeat("ghost")[0] == 410
    assert coord.grant("ghost")[0] == 410
    assert coord.deliver("ghost", "u1", b"x")[0] == 410


# -- coordinator-level: the straggler digest race ----------------------------


def _registered_coordinator(**config):
    coord = remote.FleetCoordinator(remote.FleetConfig(**config))
    assert coord.register("w1", environment_fingerprint(), None)[0] == 200
    assert coord.register("w2", environment_fingerprint(), None)[0] == 200
    return coord


def test_straggler_agreement_is_counted_not_fatal():
    coord = _registered_coordinator(lease_seconds=30.0)
    batch = coord.submit_batch(square, [7], ResiliencePolicy(), None, NULL_SCOPE, 2)
    _, answer = coord.grant("w1")
    unit_id = answer["unit"]["id"]
    coord.deliver("w1", unit_id, ok_frame(49))
    done = coord.pump(batch)
    assert done == [(0, 49)]
    before = counter("engine.remote_digest_agreements")
    # The late replica of the same unit produces a bit-identical frame.
    coord.deliver("w2", unit_id, ok_frame(49))
    assert coord.pump(batch) == []  # no double-count
    assert batch.failure is None
    assert counter("engine.remote_digest_agreements") == before + 1


def test_straggler_divergence_fails_the_batch():
    coord = _registered_coordinator(lease_seconds=30.0)
    batch = coord.submit_batch(square, [7], ResiliencePolicy(), None, NULL_SCOPE, 2)
    _, answer = coord.grant("w1")
    unit_id = answer["unit"]["id"]
    coord.deliver("w1", unit_id, ok_frame(49))
    coord.pump(batch)
    # A straggler that *disagrees* means the determinism contract broke:
    # the batch must fail loudly, never silently pick a winner.
    coord.deliver("w2", unit_id, ok_frame(50))
    coord.pump(batch)
    assert isinstance(batch.failure, TransportError)
    assert "divergent" in str(batch.failure)


def test_corrupt_frame_is_requeued_not_trusted():
    coord = _registered_coordinator(lease_seconds=30.0)
    batch = coord.submit_batch(square, [3], ResiliencePolicy(), None, NULL_SCOPE, 2)
    _, answer = coord.grant("w1")
    unit_id = answer["unit"]["id"]
    coord.deliver("w1", unit_id, b"torn garbage, no integrity trailer")
    assert coord.pump(batch) == []
    # The unit went back to pending and is re-grantable.
    _, answer = coord.grant("w2")
    assert answer["unit"] is not None and answer["unit"]["id"] == unit_id


# -- coordinator-level: leases, breaker, re-dispatch -------------------------


def test_expired_lease_redispatches_and_trips_breaker(monkeypatch):
    monkeypatch.setattr(remote, "BREAKER_FAILURES", 1)
    monkeypatch.setattr(remote, "BREAKER_BACKOFF", 30.0)
    coord = _registered_coordinator(lease_seconds=0.05)
    batch = coord.submit_batch(square, [5], ResiliencePolicy(), None, NULL_SCOPE, 2)
    _, answer = coord.grant("w1")
    assert answer["unit"] is not None
    time.sleep(0.1)  # outlive the lease without a heartbeat
    coord.tick()
    # w1's breaker opened: it gets nothing even though the unit is free.
    _, answer = coord.grant("w1")
    assert answer["unit"] is None
    # The healthy worker picks the re-dispatched unit up.
    _, answer = coord.grant("w2")
    assert answer["unit"] is not None
    coord.deliver("w2", answer["unit"]["id"], ok_frame(25))
    assert coord.pump(batch) == [(0, 25)]


def test_heartbeat_renews_leases():
    coord = _registered_coordinator(lease_seconds=0.3)
    batch = coord.submit_batch(square, [5], ResiliencePolicy(), None, NULL_SCOPE, 2)
    _, answer = coord.grant("w1")
    unit_id = answer["unit"]["id"]
    for _ in range(4):  # keep beating through several lease windows
        time.sleep(0.1)
        assert coord.heartbeat("w1")[0] == 200
        coord.tick()
    # Still leased to w1: never expired, never re-dispatched.
    _, answer = coord.grant("w2")
    assert answer["unit"] is None
    coord.deliver("w1", unit_id, ok_frame(25))
    assert coord.pump(batch) == [(0, 25)]


def test_redispatch_cap_degrades_unit_to_local(monkeypatch):
    monkeypatch.setattr(remote, "MAX_REDISPATCH", 1)
    coord = _registered_coordinator(lease_seconds=0.04)
    batch = coord.submit_batch(square, [6], ResiliencePolicy(), None, NULL_SCOPE, 2)
    for worker in ("w1", "w2"):
        _, answer = coord.grant(worker)
        if answer["unit"] is None:  # breaker may already gate w2
            continue
        time.sleep(0.08)
        coord.tick()
    locals_ = coord.take_local(batch)
    assert [u.index for u in locals_] == [0]


def test_task_error_retries_then_fails_batch():
    coord = _registered_coordinator(lease_seconds=30.0)
    policy = ResiliencePolicy(max_retries=1)
    batch = coord.submit_batch(square, [4], policy, None, NULL_SCOPE, 2)
    err = seal_payload(
        pickle.dumps(("err", ValueError("boom")), protocol=pickle.HIGHEST_PROTOCOL)
    )
    _, answer = coord.grant("w1")
    coord.deliver("w1", answer["unit"]["id"], err)
    assert coord.pump(batch) == []
    assert batch.failure is None  # first failure is retried
    _, answer = coord.grant("w2")
    assert answer["unit"] is not None
    coord.deliver("w2", answer["unit"]["id"], err)
    coord.pump(batch)
    assert isinstance(batch.failure, ValueError)  # retries exhausted


# -- fleet-level: the happy path and every chaos kind ------------------------

TASKS = [(seed, 16) for seed in range(10)]


def _inline_results():
    return [seeded_draw(t) for t in TASKS]


def _remote_results(workers=2):
    with parallel(workers=workers, transport="remote"):
        return run_tasks(seeded_draw, list(TASKS))


def test_fleet_bit_identity_clean_run(fleet):
    fleet(spawn=2)
    assert _remote_results() == _inline_results()
    assert counter("engine.remote_units_granted") >= len(TASKS)


def test_fleet_survives_worker_crash_bit_identically(fleet):
    fleet(spawn=2, lease=1.0)
    with faults.inject(faults.FaultSpec("worker_crash", task_index=3)) as plan:
        out = _remote_results()
    assert plan.fired() == 1
    assert out == _inline_results()


def test_fleet_survives_heartbeat_loss_bit_identically(fleet):
    fleet(spawn=2, lease=0.8)
    before = counter("engine.remote_heartbeat_missed")
    with faults.inject(
        faults.FaultSpec("heartbeat_loss", task_index=2, sleep=2.5)
    ) as plan:
        out = _remote_results()
    assert plan.fired() == 1
    assert out == _inline_results()
    # The silent worker was detected and its unit re-dispatched.
    assert counter("engine.remote_heartbeat_missed") > before


def test_fleet_survives_worker_partition_bit_identically(fleet):
    fleet(spawn=2, lease=0.8)
    with faults.inject(
        faults.FaultSpec("worker_partition", task_index=4, sleep=2.5)
    ) as plan:
        out = _remote_results()
    assert plan.fired() == 1
    assert out == _inline_results()


def test_fleet_survives_lease_expiry_bit_identically(fleet):
    fleet(spawn=2, lease=2.0)
    before = counter("engine.remote_lease_expired")
    with faults.inject(
        faults.FaultSpec("lease_expiry", task_index=1)
    ) as plan:
        with parallel(workers=2, transport="remote"):
            out = run_tasks(slow_square, list(range(6)))
    assert plan.fired() == 1
    assert out == [slow_square(x) for x in range(6)]
    assert counter("engine.remote_lease_expired") > before


def test_fleet_absorbs_transient_task_error(fleet):
    fleet(spawn=2)
    with faults.inject(faults.FaultSpec("task_error", task_index=5)) as plan:
        out = _remote_results()
    assert plan.fired() == 1
    assert out == _inline_results()


def test_fleet_task_error_exhausts_retries(fleet):
    fleet(spawn=1)
    with pytest.raises(ValueError, match="always fails"):
        with parallel(workers=1, transport="remote", max_retries=1):
            run_tasks(failing, [1, 2])


def test_fleet_degrades_to_pool_without_workers(fleet):
    fleet(spawn=0, connect_wait=0.4)
    before = counter("engine.remote_degraded")
    out = _remote_results()
    assert out == _inline_results()
    assert counter("engine.remote_degraded") == before + 1


def test_fleet_cancellation_propagates(fleet):
    fleet(spawn=0, connect_wait=60.0)  # nothing will ever run the units
    scope = CancelScope()
    threading.Timer(0.3, scope.cancel).start()
    with pytest.raises(JobCancelledError):
        with cancel_scope(scope):
            _remote_results()


def test_fleet_unpicklable_fn_runs_inline(fleet):
    fleet(spawn=0, connect_wait=60.0)
    # A lambda fails the executor's pickle probe: it must fall back to
    # inline before the fleet is ever consulted.
    with parallel(workers=2, transport="remote"):
        out = run_tasks(lambda x: x + 1, [1, 2, 3])
    assert out == [2, 3, 4]


# -- worker-side registration refusals ---------------------------------------


def test_run_worker_exits_on_bad_token(fleet, monkeypatch):
    monkeypatch.setenv("REPRO_REMOTE_TOKEN", "right")
    _, url = remote.start_coordinator()
    assert remote.run_worker(url, token="wrong", grace=2.0) == 2


def test_run_worker_exits_when_unreachable():
    assert remote.run_worker("http://127.0.0.1:9", grace=0.3, poll=0.05) == 1


def test_worker_rejected_error_is_transport_error():
    assert issubclass(WorkerRejectedError, TransportError)
