"""Overall makespan CDF: product law over independent machines."""

import numpy as np
import pytest

from repro.allocation import (
    MAPPING_A,
    MAPPING_B,
    MACHINES,
    finishing_time_cdf,
    finishing_time_mean,
    makespan_cdf,
)


@pytest.fixture(scope="module")
def grid(workload):
    horizon = 4.0 * max(
        finishing_time_mean(MAPPING_A, m, workload) for m in MACHINES
    )
    return np.linspace(0.0, horizon, 120)


class TestProductLaw:
    def test_equals_product_of_machine_cdfs(self, workload, grid):
        ms = makespan_cdf(MAPPING_A, workload, grid)
        product = np.ones_like(grid)
        for machine in MACHINES:
            product *= finishing_time_cdf(
                MAPPING_A, machine, workload, times=grid
            ).cdf
        np.testing.assert_allclose(ms.cdf, product, atol=1e-12)

    def test_dominated_by_every_machine(self, workload, grid):
        ms = makespan_cdf(MAPPING_A, workload, grid)
        for machine in MACHINES:
            ft = finishing_time_cdf(MAPPING_A, machine, workload, times=grid)
            assert (ms.cdf <= ft.cdf + 1e-12).all()

    def test_cdf_properties(self, workload, grid):
        ms = makespan_cdf(MAPPING_A, workload, grid)
        assert ms.cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert (np.diff(ms.cdf) >= -1e-12).all()
        assert ms.cdf[-1] > 0.9

    def test_mean_exceeds_bottleneck_mean(self, workload, grid):
        ms = makespan_cdf(MAPPING_A, workload, grid)
        bottleneck = max(
            finishing_time_mean(MAPPING_A, m, workload) for m in MACHINES
        )
        # E[max] >= max E; strictly greater for independent non-degenerate.
        assert ms.mean > bottleneck

    def test_mapping_b_differs(self, workload, grid):
        a = makespan_cdf(MAPPING_A, workload, grid)
        b = makespan_cdf(MAPPING_B, workload, grid)
        assert a.mean != pytest.approx(b.mean)

    def test_metadata(self, workload, grid):
        ms = makespan_cdf(MAPPING_A, workload, grid)
        assert ms.machine == "makespan"
        assert ms.mapping_name == "A"


class TestTruncatedGrid:
    def test_short_horizon_warns_about_underestimated_mean(self, workload, grid):
        short = np.linspace(0.0, grid[-1] / 8.0, 30)
        with pytest.warns(UserWarning, match="underestimates"):
            makespan_cdf(MAPPING_A, workload, short)

    def test_adequate_horizon_does_not_warn(self, workload, grid):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            makespan_cdf(MAPPING_A, workload, grid)

    def test_tail_tolerance_is_adjustable(self, workload, grid):
        short = np.linspace(0.0, grid[-1] / 8.0, 30)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            makespan_cdf(MAPPING_A, workload, short, tail_tol=1.0)


class TestCachingAndParallel:
    def test_repeat_served_from_cache_with_identical_output(self, workload, grid):
        from repro.engine import cache_override, get_registry

        with cache_override(True):
            first = makespan_cdf(MAPPING_A, workload, grid)
            hits_before = get_registry().counter("cache.hit")
            second = makespan_cdf(MAPPING_A, workload, grid)
        assert second.meta["cache"] == "hit"
        assert get_registry().counter("cache.hit") > hits_before
        np.testing.assert_array_equal(first.cdf, second.cdf)
        assert first.mean == second.mean

    def test_parallel_fanout_is_bit_identical(self, workload, grid):
        from repro.engine import cache_disabled, parallel

        with cache_disabled():
            seq = makespan_cdf(MAPPING_A, workload, grid)
            with parallel(workers=2):
                par = makespan_cdf(MAPPING_A, workload, grid)
        np.testing.assert_array_equal(seq.cdf, par.cdf)
        assert seq.mean == par.mean


class TestOneMeanSolvePerMachine:
    def test_given_grid_skips_the_separate_mean_solve(
        self, workload, grid, monkeypatch
    ):
        """With the grid given, each machine's exact mean comes from its
        passage solution: one hitting-time solve per machine, and the
        same bits as the product of the per-machine passage CDFs."""
        import repro.ir.backends.markov as markov_backends
        import repro.pepa.passage as passage
        from repro.allocation.machines import (
            DONE_STATE,
            MACHINE_LEAF,
            build_machine_model,
        )
        from repro.engine import cache_override
        from repro.pepa import ctmc_of
        from repro.pepa.statespace import derive

        calls = []
        real = markov_backends.expected_hitting_time

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(markov_backends, "expected_hitting_time", counting)
        monkeypatch.setattr(passage, "expected_hitting_time", counting)
        machines = [m for m in MACHINES if MAPPING_A.applications_on(m)]
        with cache_override(False):
            ms = makespan_cdf(MAPPING_A, workload, grid)
            assert len(calls) == len(machines)
            product = np.ones_like(grid)
            for machine in machines:
                model = build_machine_model(
                    MAPPING_A, machine, workload, absorbing=True
                )
                product = product * passage.passage_time_cdf(
                    ctmc_of(derive(model)), (MACHINE_LEAF, DONE_STATE), grid
                ).cdf
        np.testing.assert_array_equal(ms.cdf, product)
        assert ms.mean == float(np.trapezoid(1.0 - product, grid))


class TestCheckpointKeys:
    """The checkpoint key of a makespan batch is hashed only when a
    disk cache layer can hold the chunks."""

    @staticmethod
    def _namespaces(monkeypatch):
        from repro.allocation import cdf
        from repro.engine import cache

        seen = []
        real = cache.canonical_key

        def spy(namespace, *parts):
            seen.append(namespace)
            return real(namespace, *parts)

        monkeypatch.setattr(cache, "canonical_key", spy)
        monkeypatch.setattr(cdf, "canonical_key", spy, raising=False)
        return seen

    def test_no_disk_layer_builds_no_chunk_key(self, workload, monkeypatch):
        from repro.engine import configure_cache, get_cache

        configure_cache(disk_dir=None)
        get_cache().clear()  # a memory hit would skip the batch entirely
        seen = self._namespaces(monkeypatch)
        makespan_cdf(MAPPING_B, workload, np.linspace(0.0, 2000.0, 7))
        assert "makespan_cdf" in seen
        assert not {"makespan_chunks", "chunk"} & set(seen)

    def test_disk_layer_builds_one_chunk_key(self, workload, monkeypatch, tmp_path):
        from repro.engine import configure_cache, get_cache

        configure_cache(disk_dir=tmp_path)
        try:
            get_cache().clear()
            seen = self._namespaces(monkeypatch)
            makespan_cdf(MAPPING_B, workload, np.linspace(0.0, 2000.0, 9))
        finally:
            configure_cache(disk_dir=None)
        assert seen.count("chunk") == 1
        assert not list(tmp_path.glob("chunk-*"))


class TestPassageRevisionKeys:
    """The passage revision keys a makespan result and its checkpoints,
    so an entry of one revision never answers a request for another."""

    def test_revision_one_entry_does_not_answer_revision_two(
        self, workload, tmp_path
    ):
        from repro.engine import cache_override, configure_cache, get_cache
        from repro.ir.registry import pinned_revision

        grid = np.linspace(0.0, 2000.0, 60)
        configure_cache(disk_dir=tmp_path)
        try:
            with cache_override(True):
                get_cache().clear()
                with pinned_revision("passage", "uniformization", 1):
                    one = makespan_cdf(MAPPING_A, workload, grid)
                get_cache().clear()  # only the disk layer may answer
                two = makespan_cdf(MAPPING_A, workload, grid)
                get_cache().clear()
                again = makespan_cdf(MAPPING_A, workload, grid)
        finally:
            configure_cache(disk_dir=None)
            get_cache().clear()
        assert [r.meta["cache"] for r in (one, two, again)] == ["miss", "miss", "hit"]
        assert one.meta["manifest"].backend is None
        assert two.meta["manifest"].backend == {"revision": 2}
        assert one.cdf.tobytes() != two.cdf.tobytes()
        assert np.abs(one.cdf - two.cdf).max() <= 1e-12
        assert again.cdf.tobytes() == two.cdf.tobytes()
