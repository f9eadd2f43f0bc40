"""Chaos suite: injected failures must not change a single bit.

Every test follows the same shape — compute an unperturbed sequential
reference, re-run the same workload under ``engine.parallel`` with a
deterministic injected fault (worker crash, task error, task timeout,
corrupt disk-cache entry, forced solver non-convergence, mid-ensemble
interruption), and assert the recovered result is bit-identical
(``assert_array_equal``, not ``allclose``) to the reference.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.engine import (
    ResultCache,
    cache_disabled,
    cached,
    configure_cache,
    faults,
    get_cache,
    get_registry,
    parallel,
    run_tasks,
    seal_payload,
    spawn_seeds,
    unseal_payload,
)
from repro.engine import resilience
from repro.engine.resilience import ResiliencePolicy, resolve_policy
from repro.errors import ConvergenceError, TaskTimeoutError
from repro.ir.backends.ssa import ensemble_moments, reaction_run
from repro.pepa.ctmc import ctmc_of
from repro.pepa.models import get_model
from repro.pepa.statespace import derive
from tests.ir.test_reaction_ir import birth_death_ir

GRID = np.linspace(0.0, 2.0, 9)


def _square(x):
    return x * x


# Module-level so it pickles into pool workers.  ``fail_after`` arms a
# deliberate mid-ensemble death once that many realizations have run in
# this process; ``checkpoint_name`` keeps the interrupted and resumed
# runs on the same checkpoint key.
_CHAOS = {"count": 0, "fail_after": None}


def _flaky_reaction_run(payload, grid, rng):
    if _CHAOS["fail_after"] is not None and _CHAOS["count"] >= _CHAOS["fail_after"]:
        raise faults.InjectedFaultError("deliberate mid-ensemble death")
    _CHAOS["count"] += 1
    return reaction_run(payload, grid, rng)


_flaky_reaction_run.checkpoint_name = "flaky-reaction-run"


@pytest.fixture(autouse=True)
def _fast_retries(monkeypatch):
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.0)


@pytest.fixture
def disk_cache(tmp_path):
    """The process cache with a disk layer under ``tmp_path``: results
    and batch checkpoints both live there."""
    cache = configure_cache(disk_dir=tmp_path)
    try:
        yield cache
    finally:
        configure_cache(disk_dir=None)


def _chunks(root):
    return sorted(root.glob("chunk-*.pkl"))


class TestFaultHarness:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            faults.FaultSpec("meteor_strike")

    def test_inactive_by_default(self):
        assert not faults.active()
        assert faults.should_fire("task_error") is None

    def test_fires_exactly_n_times(self):
        with faults.inject(faults.FaultSpec("task_error", times=2)) as plan:
            assert faults.should_fire("task_error") is not None
            assert faults.should_fire("task_error") is not None
            assert faults.should_fire("task_error") is None
            assert plan.fired() == 2
            assert plan.fired("task_error") == 2
            assert plan.fired("worker_crash") == 0
        assert not faults.active()

    def test_task_index_and_backend_filters(self):
        with faults.inject(
            faults.FaultSpec("worker_crash", task_index=3),
            faults.FaultSpec("solver_nonconverge", backend="gmres"),
        ):
            assert faults.should_fire("worker_crash", task_index=1) is None
            assert faults.should_fire("solver_nonconverge", backend="direct") is None
            assert faults.should_fire("worker_crash", task_index=3) is not None
            assert faults.should_fire("solver_nonconverge", backend="gmres") is not None


class TestSupervisedRetries:
    def test_task_error_retried_order_preserved(self):
        reg = get_registry()
        before = reg.counter("engine.retries")
        with faults.inject(faults.FaultSpec("task_error", task_index=2, times=2)) as plan:
            with parallel(workers=2, max_retries=3):
                out = run_tasks(_square, list(range(6)))
        assert out == [x * x for x in range(6)]
        assert plan.fired() == 2
        assert reg.counter("engine.retries") == before + 2

    def test_retry_budget_exhaustion_raises(self):
        with faults.inject(faults.FaultSpec("task_error", task_index=0, times=9)):
            with parallel(workers=2, max_retries=1):
                with pytest.raises(faults.InjectedFaultError):
                    run_tasks(_square, [1, 2, 3])

    def test_timeout_retried_then_recovers(self):
        reg = get_registry()
        before = reg.counter("engine.task_timeouts")
        with faults.inject(
            faults.FaultSpec("task_timeout", task_index=1, sleep=5.0)
        ) as plan:
            with parallel(workers=2, task_timeout=0.4, max_retries=2):
                out = run_tasks(_square, [1, 2, 3])
        assert out == [1, 4, 9]
        assert plan.fired() == 1
        assert reg.counter("engine.task_timeouts") == before + 1

    def test_timeout_exhaustion_raises_timeout_error(self):
        with faults.inject(
            faults.FaultSpec("task_timeout", task_index=0, sleep=5.0, times=5)
        ):
            with parallel(workers=2, task_timeout=0.3, max_retries=1):
                with pytest.raises(TaskTimeoutError, match="deadline"):
                    run_tasks(_square, [1, 2])

    def test_worker_crash_rebuilds_pool(self):
        reg = get_registry()
        before = reg.counter("engine.pool_rebuilds")
        with faults.inject(faults.FaultSpec("worker_crash", task_index=1)) as plan:
            with parallel(workers=2):
                out = run_tasks(_square, list(range(5)))
        assert out == [x * x for x in range(5)]
        assert plan.fired() == 1
        assert reg.counter("engine.pool_rebuilds") == before + 1

    def test_repeated_crashes_degrade_to_sequential(self):
        reg = get_registry()
        before = reg.counter("engine.degraded_sequential")
        # More crashes than max_pool_rebuilds allows: the parent must
        # finish the batch itself.  Faults fire only inside pool
        # workers, so the degraded path is unperturbed by construction.
        with faults.inject(faults.FaultSpec("worker_crash", times=50)):
            with parallel(workers=2):
                out = run_tasks(_square, list(range(8)))
        assert out == [x * x for x in range(8)]
        assert reg.counter("engine.degraded_sequential") == before + 1


class TestEnsembleBitIdentity:
    def test_worker_crash_preserves_ensemble_bits(self):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 200, seed=11)
        with faults.inject(faults.FaultSpec("worker_crash", task_index=3)) as plan:
            with parallel(workers=4):
                out = ensemble_moments(reaction_run, ir, GRID, 200, seed=11)
        assert plan.fired() == 1
        assert_array_equal(ref.mean, out.mean)
        assert_array_equal(ref.var, out.var)
        assert ref.events == out.events

    def test_task_error_preserves_ensemble_bits(self):
        ir = birth_death_ir()
        ref = ensemble_moments(reaction_run, ir, GRID, 100, seed=3)
        with faults.inject(faults.FaultSpec("task_error", task_index=2, times=2)):
            with parallel(workers=4):
                out = ensemble_moments(reaction_run, ir, GRID, 100, seed=3)
        assert_array_equal(ref.mean, out.mean)
        assert_array_equal(ref.var, out.var)


class TestSolverFallback:
    def test_forced_gmres_nonconvergence_falls_back_bit_identical(self):
        chain = ctmc_of(derive(get_model("pc_lan_4")))
        ref = chain.steady_state()
        reg = get_registry()
        before = reg.counter("ir.fallback.used")
        with faults.inject(
            faults.FaultSpec("solver_nonconverge", backend="gmres")
        ) as plan:
            out = chain.steady_state(method="gmres")
        assert plan.fired() == 1
        assert out.method == "direct"  # served by the sparse fallback
        assert out.meta["fallback_from"] == "gmres"
        assert "injected" in out.meta["fallback_error"]
        assert reg.counter("ir.fallback.used") == before + 1
        assert reg.counter("ir.fallback.steady.gmres->sparse") >= 1
        assert_array_equal(ref.pi, out.pi)

    def test_fallback_disabled_propagates_error(self):
        from repro.ir import solve

        chain = ctmc_of(derive(get_model("pc_lan_4")))
        with faults.inject(faults.FaultSpec("solver_nonconverge", backend="gmres")):
            with pytest.raises(ConvergenceError, match="injected"):
                solve(chain.lower(), "steady", backend="gmres", fallback=False)


class TestCacheCorruption:
    def test_seal_roundtrip_and_truncation(self):
        blob = seal_payload(b"hello world")
        assert unseal_payload(blob) == b"hello world"
        assert unseal_payload(blob[:-1]) is None
        assert unseal_payload(blob[: len(blob) // 2]) is None
        assert unseal_payload(b"") is None
        flipped = bytearray(blob)
        flipped[0] ^= 0xFF
        assert unseal_payload(bytes(flipped)) is None

    def test_corrupt_disk_entry_quarantined_and_recomputed(self, tmp_path):
        configure_cache(disk_dir=tmp_path)
        try:
            reg = get_registry()
            value = np.arange(8.0)
            with faults.inject(faults.FaultSpec("cache_corrupt")) as plan:
                got, status = cached("chaos", (1, 2), lambda: value)
            assert plan.fired() == 1
            assert status == "miss"
            before = reg.counter("cache.corrupt_entries")
            get_cache().clear()  # drop memory so the torn disk file is read
            got, status = cached("chaos", (1, 2), lambda: value)
            assert status == "miss"  # corrupt entry counts as a miss
            assert_array_equal(got, value)
            assert reg.counter("cache.corrupt_entries") == before + 1
            assert list(tmp_path.glob("*.corrupt")), "torn entry not quarantined"
            # The recompute rewrote a good entry: next read is a hit.
            get_cache().clear()
            got, status = cached("chaos", (1, 2), lambda: value)
            assert status == "hit"
            assert_array_equal(got, value)
        finally:
            configure_cache(disk_dir=None)

    def test_legacy_unsealed_entry_treated_as_corrupt(self, tmp_path):
        import pickle

        configure_cache(disk_dir=tmp_path)
        try:
            key_file = tmp_path / "legacy-key.pkl"
            key_file.write_bytes(pickle.dumps([1, 2, 3]))
            get_cache().clear()
            assert get_cache().get("legacy-key") is get_cache().get("no-such-key")
            assert not key_file.exists()  # quarantined away
        finally:
            configure_cache(disk_dir=None)


class TestCheckpointedEnsembles:
    def test_interrupted_ensemble_resumes_bit_identical(self, tmp_path, disk_cache):
        ir = birth_death_ir()
        with cache_disabled():
            ref = ensemble_moments(reaction_run, ir, GRID, 200, seed=7)
        reg = get_registry()
        try:
            _CHAOS.update(count=0, fail_after=60)
            with pytest.raises(faults.InjectedFaultError):
                ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=7)
            # Chunks 0 and 1 (50 realizations) completed and were saved
            # before the death 10 realizations into chunk 2, as entries
            # of one batch.
            saved = _chunks(tmp_path)
            assert len(saved) == 2
            assert len({p.name.rsplit("-", 1)[0] for p in saved}) == 1
            _CHAOS.update(count=0, fail_after=None)
            resumes = reg.counter("engine.checkpoint_resumes")
            out = ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=7)
            assert reg.counter("engine.checkpoint_resumes") == resumes + 1
            assert _CHAOS["count"] == 150  # only chunks 2..7 recomputed
            assert_array_equal(ref.mean, out.mean)
            assert_array_equal(ref.var, out.var)
            assert ref.events == out.events
            # Completion discards the batch's checkpoints.
            assert not _chunks(tmp_path)
        finally:
            _CHAOS.update(count=0, fail_after=None)

    def test_run_tasks_skips_checkpointed_indices(self, tmp_path, disk_cache):
        prefix = disk_cache.chunk_prefix(("batch",), 3)
        disk_cache.save_chunk(prefix, 0, 100)
        disk_cache.save_chunk(prefix, 2, 900)
        out = run_tasks(_square, [7, 8, 9], checkpoint=("batch",))
        # Indices 0 and 2 come from the store, only index 1 is computed.
        assert out == [100, 64, 900]
        assert not _chunks(tmp_path)

    def test_corrupt_checkpoint_chunk_recomputed(self, tmp_path, disk_cache):
        prefix = disk_cache.chunk_prefix(("batch",), 1)
        disk_cache.save_chunk(prefix, 0, 123)
        (chunk,) = _chunks(tmp_path)
        chunk.write_bytes(chunk.read_bytes()[:10])
        reg = get_registry()
        before = reg.counter("cache.corrupt_entries")
        assert run_tasks(_square, [5], checkpoint=("batch",)) == [25]
        assert reg.counter("cache.corrupt_entries") == before + 1
        assert list(tmp_path.glob("chunk-*.corrupt")), "torn chunk not quarantined"

    def test_env_mismatched_chunk_quarantined_and_recomputed(self, tmp_path, disk_cache):
        import pickle

        prefix = disk_cache.chunk_prefix(("batch",), 2)
        foreign = seal_payload(
            pickle.dumps(999), env=b'{"numpy": "0.0", "python": "0.0", "scipy": "0.0"}'
        )
        (tmp_path / f"{prefix}-000000.pkl").write_bytes(foreign)
        reg = get_registry()
        before = reg.counter("cache.env_mismatch")
        resumes = reg.counter("engine.checkpoint_resumes")
        assert run_tasks(_square, [3, 4], checkpoint=("batch",)) == [9, 16]
        assert reg.counter("cache.env_mismatch") == before + 1
        assert reg.counter("engine.checkpoint_resumes") == resumes
        assert list(tmp_path.glob("chunk-*.envmismatch"))

    def test_checkpoint_dir_from_environment(self, tmp_path, monkeypatch):
        from repro.engine.cache import _cache_from_env

        # Checkpointing follows the cache's disk layer: on exactly when
        # the cache is enabled and $REPRO_CACHE_DIR names a directory.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert _cache_from_env().chunk_prefix(("batch",), 3) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = _cache_from_env()
        assert cache.disk_dir == tmp_path
        assert cache.chunk_prefix(("batch",), 3).startswith("chunk-")
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert _cache_from_env().chunk_prefix(("batch",), 3) is None

    def test_completed_batch_leaves_no_chunk_entries(self, tmp_path, disk_cache):
        ir = birth_death_ir()
        saved = get_registry().counter("engine.checkpoint_saved")
        ensemble_moments(reaction_run, ir, GRID, 100, seed=3)
        assert get_registry().counter("engine.checkpoint_saved") == saved + 4
        assert not _chunks(tmp_path)
        assert not list(tmp_path.glob("chunk-*"))

    def test_checkpointed_batch_never_grows_the_memory_lru(self, tmp_path, disk_cache):
        ir = birth_death_ir()
        entries = len(disk_cache)
        try:
            _CHAOS.update(count=0, fail_after=60)
            with pytest.raises(faults.InjectedFaultError):
                ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=5)
            assert len(_chunks(tmp_path)) == 2
            assert len(disk_cache) == entries
            _CHAOS.update(count=0, fail_after=None)
            ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=5)
        finally:
            _CHAOS.update(count=0, fail_after=None)
        assert len(disk_cache) == entries


class TestCheckpointLayoutValidation:
    def test_layout_change_is_a_different_key(self, disk_cache):
        assert disk_cache.chunk_prefix(("batch",), 8) != disk_cache.chunk_prefix(
            ("batch",), 20
        )
        prefix = disk_cache.chunk_prefix(("batch",), 8)
        disk_cache.save_chunk(prefix, 0, 1.5)
        assert disk_cache.load_chunks(prefix, 8) == {0: 1.5}
        assert disk_cache.load_chunks(disk_cache.chunk_prefix(("batch",), 20), 20) == {}

    def test_chunk_size_change_between_interrupt_and_resume(
        self, tmp_path, monkeypatch, disk_cache
    ):
        """Regression: partials written before a chunk-size change must
        never merge into the resumed reduction.  With CHUNK_RUNS=10 the
        task count changes (8 -> 20); with CHUNK_RUNS=26 it stays 8, so
        only CHUNK_RUNS in the key keeps the 25-run partials out.
        """
        from repro.ir.backends import ssa as ssa_module

        ir = birth_death_ir()
        reg = get_registry()
        chunk_runs = ssa_module.CHUNK_RUNS
        for resumed_chunk_runs in (10, 26):
            monkeypatch.setattr(ssa_module, "CHUNK_RUNS", chunk_runs)
            try:
                _CHAOS.update(count=0, fail_after=60)
                with pytest.raises(faults.InjectedFaultError):
                    ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=21)
                # Two 25-run chunks survived the interruption.
                assert len(_chunks(tmp_path)) == 2
                # The run restarts under a build with another chunk size.
                monkeypatch.setattr(ssa_module, "CHUNK_RUNS", resumed_chunk_runs)
                _CHAOS.update(count=0, fail_after=None)
                resumes = reg.counter("engine.checkpoint_resumes")
                out = ensemble_moments(_flaky_reaction_run, ir, GRID, 200, seed=21)
                assert reg.counter("engine.checkpoint_resumes") == resumes
                # Every realization was recomputed; no stale partial leaked in.
                assert _CHAOS["count"] == 200
            finally:
                _CHAOS.update(count=0, fail_after=None)
            with cache_disabled():
                ref = ensemble_moments(reaction_run, ir, GRID, 200, seed=21)
            assert_array_equal(ref.mean, out.mean)
            assert_array_equal(ref.var, out.var)
            assert ref.events == out.events
            # The stale 25-run batch is left for the TTL purge.
            for chunk in _chunks(tmp_path):
                chunk.unlink()


class TestPolicyResolution:
    def test_defaults(self):
        policy = resolve_policy()
        assert policy.task_timeout is None
        assert policy.max_retries == 2

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        policy = resolve_policy()
        assert policy.task_timeout == 1.5
        assert policy.max_retries == 5

    def test_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        policy = resolve_policy(task_timeout=9.0, max_retries=0)
        assert policy.task_timeout == 9.0
        assert policy.max_retries == 0

    def test_malformed_environment_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_TIMEOUT"):
            policy = resolve_policy()
        assert policy.task_timeout is None

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(task_timeout=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)


class TestCombinedChaos:
    def test_all_faults_at_once_bit_identical(self, tmp_path):
        """The acceptance scenario: a worker crash, a corrupt disk-cache
        entry, and a forced GMRES non-convergence, all in one block —
        the ensemble and the Edinburgh steady solve both complete and
        match the unperturbed sequential references bit for bit."""
        ir = birth_death_ir()
        chain = ctmc_of(derive(get_model("pc_lan_4")))
        ref_ens = ensemble_moments(reaction_run, ir, GRID, 200, seed=17)
        ref_pi = chain.steady_state()
        payload = np.linspace(0.0, 1.0, 32)
        configure_cache(disk_dir=tmp_path)
        try:
            with faults.inject(
                faults.FaultSpec("worker_crash", task_index=3),
                faults.FaultSpec("cache_corrupt"),
                faults.FaultSpec("solver_nonconverge", backend="gmres"),
            ) as plan:
                cached("chaos2", (3, 4), lambda: payload)  # torn write
                with parallel(workers=4):
                    ens = ensemble_moments(reaction_run, ir, GRID, 200, seed=17)
                pi = chain.steady_state(method="gmres")
                get_cache().clear()
                got, status = cached("chaos2", (3, 4), lambda: payload)
            assert plan.fired() == 3
            assert_array_equal(ref_ens.mean, ens.mean)
            assert_array_equal(ref_ens.var, ens.var)
            assert_array_equal(ref_pi.pi, pi.pi)
            assert pi.meta["fallback_from"] == "gmres"
            assert status == "miss"
            assert_array_equal(got, payload)
        finally:
            configure_cache(disk_dir=None)


class TestCheckpointTTLPurge:
    """Satellite of the service work: a long-lived process must not let
    abandoned partials accumulate forever in the disk cache."""

    @staticmethod
    def _age(paths, seconds):
        import os
        import time as _time

        stamp = _time.time() - seconds
        for path in paths:
            os.utime(path, (stamp, stamp))

    def test_purges_only_expired_batches(self, tmp_path, disk_cache):
        stale = disk_cache.chunk_prefix(("stale",), 4)
        fresh = disk_cache.chunk_prefix(("fresh",), 4)
        disk_cache.save_chunk(stale, 0, 1)
        disk_cache.save_chunk(stale, 1, 1)
        disk_cache.save_chunk(fresh, 0, 2)
        cached("purge-result", (1,), lambda: 3)  # a result entry, never evicted
        self._age(tmp_path.iterdir(), 3600.0)
        disk_cache.save_chunk(fresh, 1, 2)
        reg = get_registry()
        before = reg.counter("engine.checkpoint_purged")
        assert disk_cache.purge_chunks(ttl_seconds=600.0) == 1
        assert not list(tmp_path.glob(f"{stale}-*"))
        assert len(list(tmp_path.glob(f"{fresh}-*.pkl"))) == 2
        assert len(list(tmp_path.glob("purge-result-*.pkl"))) == 1
        assert reg.counter("engine.checkpoint_purged") == before + 1

    def test_batch_age_is_its_newest_chunk(self, tmp_path, disk_cache):
        # A live job keeps sealing chunks: one recent chunk protects the
        # whole batch even when its first chunks are old.
        live = disk_cache.chunk_prefix(("live",), 4)
        disk_cache.save_chunk(live, 0, 1)
        self._age(_chunks(tmp_path), 3600.0)
        disk_cache.save_chunk(live, 1, 2)
        assert disk_cache.purge_chunks(ttl_seconds=600.0) == 0
        assert len(_chunks(tmp_path)) == 2

    def test_missing_root_and_bad_ttl(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path / "never-created")
        assert cache.purge_chunks(ttl_seconds=0.0) == 0
        assert ResultCache().purge_chunks(ttl_seconds=0.0) == 0
        with pytest.raises(ValueError):
            ResultCache(disk_dir=tmp_path).purge_chunks(ttl_seconds=-1.0)

    def test_resume_after_purge_falls_back_to_clean_run(self, tmp_path, disk_cache):
        # An interrupted batch whose checkpoints were purged must simply
        # recompute everything — correct values, no resume counted.
        prefix = disk_cache.chunk_prefix(("batch",), 3)
        disk_cache.save_chunk(prefix, 0, 999_999)  # poison partial
        assert disk_cache.purge_chunks(ttl_seconds=0.0) == 1
        reg = get_registry()
        resumes = reg.counter("engine.checkpoint_resumes")
        out = run_tasks(_square, [4, 5, 6], checkpoint=("batch",))
        assert out == [16, 25, 36]  # the poison value is gone
        assert reg.counter("engine.checkpoint_resumes") == resumes

    def test_service_startup_purges_with_its_checkpoint_ttl(self, tmp_path, disk_cache):
        from repro.service import ServiceConfig
        from repro.service.server import JobService

        stale = disk_cache.chunk_prefix(("abandoned-job",), 2)
        disk_cache.save_chunk(stale, 0, 1)
        self._age(_chunks(tmp_path), 3600.0)
        JobService(tmp_path / "svc", config=ServiceConfig(checkpoint_ttl=600.0))
        assert not _chunks(tmp_path)
