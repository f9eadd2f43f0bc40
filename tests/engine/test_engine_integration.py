"""End-to-end engine coverage required by the execution-layer contract:

* parallel-vs-sequential bit-identity of ``ssa_ensemble``,
* cache hit on repeated identical solves,
* cache miss on changed rate parameters,
* metrics counters incrementing across instrumented entry points.
"""

import numpy as np
import pytest

from repro.biopepa.examples import enzyme_kinetics_model
from repro.biopepa.ssa import ssa_ensemble
from repro.engine import cache_override, get_registry, parallel
from repro.pepa import ctmc_of, sweep, throughput
from repro.pepa.models import get_model
from repro.pepa.statespace import derive

GRID = np.linspace(0.0, 10.0, 11)


@pytest.fixture
def cache_on():
    with cache_override(True) as cache:
        yield cache


class TestSsaBitIdentity:
    def test_parallel_equals_sequential(self):
        model = enzyme_kinetics_model()
        with cache_override(False):
            seq = ssa_ensemble(model, GRID, n_runs=60, seed=11)
            with parallel(workers=2):
                par = ssa_ensemble(model, GRID, n_runs=60, seed=11)
        np.testing.assert_array_equal(seq.mean, par.mean)
        np.testing.assert_array_equal(seq.var, par.var)

    def test_worker_count_does_not_matter(self):
        model = enzyme_kinetics_model()
        with cache_override(False):
            with parallel(workers=2):
                two = ssa_ensemble(model, GRID, n_runs=55, seed=1)
            with parallel(workers=3):
                three = ssa_ensemble(model, GRID, n_runs=55, seed=1)
        np.testing.assert_array_equal(two.mean, three.mean)
        np.testing.assert_array_equal(two.var, three.var)


class TestSolveCaching:
    def test_repeated_identical_solve_hits(self, cache_on):
        model = get_model("pc_lan_4")
        first = ctmc_of(derive(model)).steady_state()
        second = ctmc_of(derive(model)).steady_state()
        assert second.meta["cache"] == "hit"
        np.testing.assert_array_equal(first.pi, second.pi)

    def test_changed_rate_misses(self, cache_on):
        model = get_model("pc_lan_4").with_rate("mu", 123.456)
        ctmc_of(derive(model)).steady_state()
        changed = model.with_rate("mu", 123.457)
        result = ctmc_of(derive(changed)).steady_state()
        assert result.meta["cache"] == "miss"

    def test_cached_result_is_a_private_copy(self, cache_on):
        model = get_model("pc_lan_4")
        first = ctmc_of(derive(model)).steady_state()
        first.pi[0] = -99.0  # corrupt the caller's copy
        second = ctmc_of(derive(model)).steady_state()
        assert second.pi[0] != -99.0


class TestMetricsCounters:
    def test_solver_calls_increment_timers(self):
        reg = get_registry()
        before = reg.snapshot()["timers"].get("steady_state", {}).get("calls", 0)
        model = get_model("pc_lan_4")
        # The registry cache sits above the solver: a hit never reaches
        # the ``steady_state`` timer, so count a solve that runs.
        with cache_override(False):
            ctmc_of(derive(model)).steady_state()
        after = reg.snapshot()["timers"]["steady_state"]["calls"]
        assert after == before + 1

    def test_cache_counters_move(self, cache_on):
        reg = get_registry()
        model = get_model("pc_lan_4").with_rate("lam", 7.531)
        misses_before = reg.counter("cache.miss")
        ctmc_of(derive(model)).steady_state()
        assert reg.counter("cache.miss") > misses_before
        hits_before = reg.counter("cache.hit")
        ctmc_of(derive(model)).steady_state()
        assert reg.counter("cache.hit") > hits_before


class TestSweepParallel:
    def test_parallel_sweep_matches_sequential(self):
        model = get_model("pc_lan_4")
        ranges = {"mu": [1.0, 2.0, 4.0]}
        seq = sweep(model, ranges, measure=_send_throughput)
        with parallel(workers=2):
            par = sweep(model, ranges, measure=_send_throughput)
        np.testing.assert_array_equal(seq.values, par.values)
        np.testing.assert_array_equal(seq.grid, par.grid)

    def test_lambda_measure_still_works(self):
        model = get_model("pc_lan_4")
        with parallel(workers=2):
            result = sweep(
                model, {"mu": [1.0, 2.0]}, measure=lambda c: throughput(c, "send")
            )
        assert result.values.shape == (2,)
        assert (result.values > 0).all()


def _send_throughput(chain):
    return throughput(chain, "send")
