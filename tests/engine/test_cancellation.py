"""Cooperative cancellation: scope semantics and engine integration.

Cancellation is checked at task-unit boundaries on every transport, and
it composes with checkpoints: chunks completed before the cancellation
stay on disk, so a retry of the same batch resumes instead of
restarting.
"""

import threading
import time

import pytest

from repro.engine import (
    CancelScope,
    cancel_scope,
    configure_cache,
    current_scope,
    get_registry,
    parallel,
    run_tasks,
)
from repro.engine import resilience
from repro.engine.cancellation import NULL_SCOPE
from repro.errors import JobCancelledError


@pytest.fixture(autouse=True)
def _fast_retries(monkeypatch):
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.0)


class TestScope:
    def test_fresh_scope_is_live(self):
        scope = CancelScope()
        assert scope.reason is None
        assert not scope.cancelled()
        scope.raise_if_cancelled()  # no-op

    def test_cancel_sets_reason_and_raises(self):
        scope = CancelScope()
        scope.cancel()
        scope.cancel()  # idempotent
        assert scope.reason == "cancelled"
        with pytest.raises(JobCancelledError) as excinfo:
            scope.raise_if_cancelled()
        assert excinfo.value.reason == "cancelled"

    def test_deadline_overrun_reports_deadline_reason(self):
        scope = CancelScope(deadline_seconds=0.05)
        assert scope.reason is None
        time.sleep(0.08)
        assert scope.reason == "deadline"
        with pytest.raises(JobCancelledError) as excinfo:
            scope.raise_if_cancelled()
        assert excinfo.value.reason == "deadline"

    def test_explicit_cancel_beats_deadline(self):
        scope = CancelScope(deadline_seconds=0.01)
        scope.cancel()
        time.sleep(0.03)
        assert scope.reason == "cancelled"

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            CancelScope(deadline_seconds=0.0)
        with pytest.raises(ValueError):
            CancelScope(deadline_seconds=-1.0)

    def test_current_scope_defaults_to_inert_null(self):
        scope = current_scope()
        assert scope is NULL_SCOPE
        assert not scope.active
        assert not scope.cancelled()
        with pytest.raises(RuntimeError):
            scope.cancel()

    def test_scopes_nest_innermost_wins(self):
        outer, inner = CancelScope(), CancelScope()
        with cancel_scope(outer):
            assert current_scope() is outer
            with cancel_scope(inner):
                assert current_scope() is inner
            assert current_scope() is outer
        assert current_scope() is NULL_SCOPE

    def test_scope_is_thread_local(self):
        scope = CancelScope()
        seen = []
        with cancel_scope(scope):
            thread = threading.Thread(target=lambda: seen.append(current_scope()))
            thread.start()
            thread.join()
        assert seen == [NULL_SCOPE]


class TestRunTasksInline:
    def test_already_cancelled_scope_refuses_batch(self):
        scope = CancelScope()
        scope.cancel()
        calls = []
        with cancel_scope(scope):
            with pytest.raises(JobCancelledError):
                run_tasks(calls.append, [1, 2, 3])
        assert calls == []

    def test_cancel_mid_batch_stops_at_next_boundary(self):
        scope = CancelScope()
        calls = []

        def fn(x):
            calls.append(x)
            if len(calls) == 2:
                scope.cancel()
            return x

        with cancel_scope(scope):
            with pytest.raises(JobCancelledError):
                run_tasks(fn, [1, 2, 3, 4])
        assert calls == [1, 2]

    def test_deadline_expires_batch(self):
        scope = CancelScope(deadline_seconds=0.1)
        with cancel_scope(scope):
            with pytest.raises(JobCancelledError) as excinfo:
                run_tasks(time.sleep, [0.05] * 20)
        assert excinfo.value.reason == "deadline"

    def test_no_scope_keeps_the_fast_path(self):
        assert run_tasks(lambda x: x * x, [1, 2, 3]) == [1, 4, 9]


class TestCancelledCheckpointsResume:
    def test_completed_chunks_survive_and_seed_the_retry(self, tmp_path):
        configure_cache(disk_dir=tmp_path)
        try:
            reg = get_registry()
            scope = CancelScope()
            first_calls = []

            def fn(x):
                first_calls.append(x)
                if len(first_calls) == 3:
                    scope.cancel()
                return x * 10

            with cancel_scope(scope):
                with pytest.raises(JobCancelledError):
                    run_tasks(fn, [1, 2, 3, 4, 5], checkpoint=("cancel-batch",))
            assert len(list(tmp_path.glob("chunk-*.pkl"))) == 3

            # The retry (no cancellation) resumes from the three chunks
            # the cancelled run sealed.
            before = reg.counter("engine.checkpoint_resumes")
            second_calls = []

            def fn2(x):
                second_calls.append(x)
                return x * 10

            out = run_tasks(fn2, [1, 2, 3, 4, 5], checkpoint=("cancel-batch",))
            assert out == [10, 20, 30, 40, 50]
            assert second_calls == [4, 5]
            assert reg.counter("engine.checkpoint_resumes") == before + 1
        finally:
            configure_cache(disk_dir=None)


class TestCancelParallelTransports:
    def test_pool_cancelled_from_another_thread(self):
        scope = CancelScope()
        timer = threading.Timer(0.3, scope.cancel)
        timer.start()
        try:
            with cancel_scope(scope):
                with parallel(workers=2, transport="pool"):
                    with pytest.raises(JobCancelledError):
                        run_tasks(time.sleep, [0.2] * 40)
        finally:
            timer.cancel()

    def test_remote_deadline_cancels_via_scope(self, monkeypatch):
        import repro.engine.remote as remote

        # No worker will ever lease the unit, so only the scope's
        # deadline can end the wait.
        monkeypatch.setenv("REPRO_REMOTE_SPAWN", "0")
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_WAIT", "60")
        scope = CancelScope(deadline_seconds=0.4)
        try:
            with cancel_scope(scope):
                with parallel(workers=1, transport="remote", max_retries=0):
                    with pytest.raises(JobCancelledError) as excinfo:
                        run_tasks(time.sleep, [10.0])
        finally:
            remote.shutdown_fleet()
        assert excinfo.value.reason == "deadline"
