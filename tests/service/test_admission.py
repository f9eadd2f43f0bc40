"""Admission control: backpressure, rate limits, shedding, fair share."""

import pytest

from repro.engine.metrics import get_registry
from repro.errors import JobRejectedError
from repro.service import AdmissionController, TokenBucket
from repro.service import admission


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        t0 = bucket.updated
        assert bucket.try_acquire(now=t0)
        assert bucket.try_acquire(now=t0)
        assert not bucket.try_acquire(now=t0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        t0 = bucket.updated
        assert bucket.try_acquire(now=t0)
        assert not bucket.try_acquire(now=t0 + 0.1)
        assert bucket.try_acquire(now=t0 + 0.6)  # 0.5s at 2/s -> one token

    def test_seconds_until_token(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        t0 = bucket.updated
        bucket.try_acquire(now=t0)
        assert bucket.seconds_until_token(now=t0) == pytest.approx(0.5)
        assert bucket.seconds_until_token(now=t0 + 10.0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


def controller(**overrides):
    defaults = dict(capacity=4, workers=2, tenant_rate=1000.0, tenant_burst=1000.0)
    defaults.update(overrides)
    return AdmissionController(**defaults)


class TestAdmission:
    def test_queue_full_is_429_with_retry_after(self, monkeypatch):
        monkeypatch.setattr(admission, "SHED_PRIORITY", 99)
        ctrl = controller(capacity=2)
        ctrl.admit("job-a")
        ctrl.admit("job-b")
        before = get_registry().counter("service.rejected_full")
        with pytest.raises(JobRejectedError) as excinfo:
            ctrl.admit("job-c")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 2.0
        assert get_registry().counter("service.rejected_full") == before + 1

    def test_rate_limited_tenant_is_429_others_unaffected(self):
        ctrl = controller(capacity=32, tenant_rate=0.5, tenant_burst=1.0)
        ctrl.admit("job-a", tenant="flooder", priority=1)
        with pytest.raises(JobRejectedError) as excinfo:
            ctrl.admit("job-b", tenant="flooder", priority=1)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 0.1
        # A different tenant still gets in.
        ctrl.admit("job-c", tenant="polite", priority=1)
        assert get_registry().counter("service.throttled.tenant.flooder") >= 1

    def test_overload_sheds_low_priority_only(self, monkeypatch):
        monkeypatch.setattr(admission, "SHED_THRESHOLD", 0.5)
        ctrl = controller(capacity=4)
        ctrl.admit("job-a", priority=0)
        ctrl.admit("job-b", priority=0)  # depth 2/4 -> load 0.5
        before = get_registry().counter("service.shed")
        with pytest.raises(JobRejectedError) as excinfo:
            ctrl.admit("job-c", priority=9)
        assert excinfo.value.status == 503
        assert get_registry().counter("service.shed") == before + 1
        # Urgent work is still admitted at the same load.
        ctrl.admit("job-d", priority=0)

    def test_worker_saturation_counts_as_load(self):
        ctrl = controller(capacity=100, workers=1)
        ctrl.admit("job-a", priority=0)
        assert ctrl.take(timeout=1.0) == "job-a"
        assert ctrl.load() == 1.0  # 1 busy / 1 worker despite empty queue
        with pytest.raises(JobRejectedError):
            ctrl.admit("job-b", priority=9)
        ctrl.release()
        assert ctrl.load() == 0.0
        ctrl.admit("job-b", priority=9)

    def test_priority_orders_dispatch(self):
        ctrl = controller()
        ctrl.admit("job-low", priority=8)
        ctrl.admit("job-high", priority=1)
        assert ctrl.take(timeout=1.0) == "job-high"
        assert ctrl.take(timeout=1.0) == "job-low"

    def test_fair_share_interleaves_tenants(self):
        ctrl = controller(capacity=16)
        for i in range(3):
            ctrl.admit(f"burst-{i}", tenant="burst")
        ctrl.admit("late-0", tenant="late")
        order = [ctrl.take(timeout=1.0) for _ in range(4)]
        # The late tenant's first job beats the burst tenant's backlog.
        assert order.index("late-0") == 1

    def test_take_times_out_and_release_floors_at_zero(self):
        ctrl = controller()
        assert ctrl.take(timeout=0.05) is None
        ctrl.release()
        assert ctrl.busy() == 0

    def test_requeue_bypasses_admission_checks(self):
        ctrl = controller(capacity=1)
        ctrl.admit("job-a")
        ctrl.requeue("job-b")  # over capacity, still accepted
        assert ctrl.depth() == 2

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)
        with pytest.raises(ValueError):
            AdmissionController(workers=0)


class TestAdmissionFaults:
    def test_queue_overflow_fault_forces_429(self):
        from repro.engine import faults

        ctrl = controller()
        with faults.inject(faults.FaultSpec("queue_overflow")) as plan:
            with pytest.raises(JobRejectedError) as excinfo:
                ctrl.admit("job-a")
            assert excinfo.value.status == 429
            ctrl.admit("job-a")  # fault fires once, then normal admission
        assert plan.fired("queue_overflow") == 1

    def test_tenant_flood_fault_forces_429(self):
        from repro.engine import faults

        ctrl = controller()
        with faults.inject(faults.FaultSpec("tenant_flood")) as plan:
            with pytest.raises(JobRejectedError) as excinfo:
                ctrl.admit("job-a")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 2.0
            ctrl.admit("job-a")
        assert plan.fired("tenant_flood") == 1
