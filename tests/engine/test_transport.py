"""The transport seam: selection rules, the ``run()`` contract, and —
the property everything else rests on — bit-identity of results across
the ``inline``, ``pool`` and ``remote`` transports.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import repro.engine.remote as remote
from repro.engine import get_registry, parallel, resilience, run_tasks
from repro.engine.cancellation import cancel_scope
from repro.engine.transport import (
    InlineTransport,
    ProcessPoolTransport,
    Transport,
    available_transports,
    get_transport,
    resolve_transport,
)
from repro.errors import JobCancelledError, TransportError
from repro.ir.backends.ssa import ensemble_moments, reaction_run
from tests.ir.test_reaction_ir import birth_death_ir

GRID = np.linspace(0.0, 2.0, 9)


def _square(x):
    return x * x


@pytest.fixture(autouse=True)
def _fast_retries(monkeypatch):
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.0)


@pytest.fixture
def spawned_fleet(monkeypatch):
    """Two auto-spawned local fleet workers, torn down after the test."""
    monkeypatch.setenv("REPRO_REMOTE_SPAWN", "2")
    monkeypatch.setenv("REPRO_REMOTE_CONNECT_WAIT", "15")
    yield
    remote.shutdown_fleet()


class TestSelection:
    def test_available_transports(self):
        assert available_transports() == ("inline", "pool", "remote")

    def test_get_by_name(self):
        assert isinstance(get_transport("inline"), InlineTransport)
        assert isinstance(get_transport("pool"), ProcessPoolTransport)

    def test_unknown_transport_rejected(self):
        with pytest.raises(TransportError, match="carrier-pigeon"):
            get_transport("carrier-pigeon")

    def test_removed_subprocess_transport_rejected(self):
        with pytest.raises(TransportError, match="unknown transport 'subprocess'"):
            get_transport("subprocess")

    def test_auto_resolution_by_worker_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert resolve_transport(None, 1).name == "inline"
        assert resolve_transport(None, 4).name == "pool"

    def test_environment_selects_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pool")
        assert resolve_transport(None, 1).name == "pool"
        assert resolve_transport(None, 8).name == "pool"

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "pool")
        assert resolve_transport("inline", 8).name == "inline"

    def test_config_transport_validated_eagerly(self):
        with pytest.raises(TransportError, match="unknown transport"):
            with parallel(workers=2, transport="smoke-signals"):
                pass

    def test_capability_flags(self):
        assert not get_transport("inline").isolates_tasks
        assert get_transport("pool").isolates_tasks
        assert get_transport("remote").isolates_tasks


class TestRun:
    def test_run_returns_results_in_task_order(self):
        assert get_transport("inline").run(_square, [1, 2, 3]) == [1, 4, 9]

    def test_inline_run_checks_the_cancel_scope_before_each_task(self):
        seen = []
        with cancel_scope() as scope:

            def cancel_after_first(x):
                seen.append(x)
                scope.cancel()
                return x

            with pytest.raises(JobCancelledError):
                get_transport("inline").run(cancel_after_first, [1, 2, 3])
        assert seen == [1]

    def test_run_is_the_whole_interface(self):
        public = {name for name in vars(Transport) if not name.startswith("_")}
        assert public == {"name", "isolates_tasks", "run"}

    def test_on_result_sees_every_index(self):
        seen = []
        get_transport("pool").run(
            _square, [5, 6], workers=2, on_result=lambda i, v: seen.append((i, v))
        )
        assert sorted(seen) == [(0, 25), (1, 36)]


class TestRunTasksIntegration:
    def test_transport_argument_beats_config(self):
        reg = get_registry()
        before = reg.counter("engine.sequential_batches")
        with parallel(workers=2, transport="pool"):
            out = run_tasks(_square, [2, 3], transport="inline")
        assert out == [4, 9]
        assert reg.counter("engine.sequential_batches") == before + 1

    def test_environment_transport_reaches_run_tasks(self, monkeypatch):
        reg = get_registry()
        monkeypatch.setenv("REPRO_TRANSPORT", "pool")
        before = reg.counter("engine.parallel_batches")
        out = run_tasks(_square, [4])
        assert out == [16]
        assert reg.counter("engine.parallel_batches") == before + 1


class TestCrossTransportBitIdentity:
    """The acceptance property: the same seeded ensemble, bit for bit,
    however the chunks are shipped."""

    def test_ensemble_identical_on_all_transports(self, spawned_fleet):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 100, seed=29)
        for name in ("inline", "pool", "remote"):
            with parallel(workers=3, transport=name):
                out = ensemble_moments(reaction_run, ir, GRID, 100, seed=29)
            assert_array_equal(ref.mean, out.mean, err_msg=name)
            assert_array_equal(ref.var, out.var, err_msg=name)
            assert ref.events == out.events, name

    def test_default_ensemble_matches_oracle_on_all_transports(
        self, spawned_fleet
    ):
        # The default path's batched kernel against the scalar oracle;
        # 260 runs give three batched tasks for the workers to share.
        from repro.ir import solve

        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 260, seed=41)
        for name in ("inline", "pool", "remote"):
            with parallel(workers=3, transport=name):
                out = solve(ir, "ssa", mode="ensemble", times=GRID,
                            n_runs=260, seed=41)
            assert out.meta["kernel"] == "batched", name
            assert_array_equal(ref.mean, out.mean, err_msg=name)
            assert_array_equal(ref.var, out.var, err_msg=name)
            assert ref.events == out.events, name

    def test_plain_batches_identical_on_all_transports(self, spawned_fleet):
        tasks = list(range(10))
        granted = get_registry().counter("engine.remote_units_granted")
        ref = [run_tasks(_square, tasks, workers=2, transport=name) for name in
               ("inline", "pool", "remote")]
        assert ref[0] == ref[1] == ref[2] == [x * x for x in tasks]
        # The fleet ran the units; nothing degraded to the pool.
        assert get_registry().counter("engine.remote_units_granted") >= granted + 10
