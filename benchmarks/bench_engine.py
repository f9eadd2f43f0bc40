"""Engine ablation: cache warm vs cold, and SSA ensemble throughput.

Quantifies what the execution layer buys: a warm content-addressed
cache hit must be dramatically cheaper than re-solving, and the SSA
ensemble path must stay correct under the engine's chunked streaming
moments (shape assertions guard against timing garbage).
"""

import numpy as np
import pytest

from repro.engine import cache_override, get_cache
from repro.pepa import ctmc_of, derive, parse_model

SOURCE = """
lam = 0.4;
mu  = 5.0;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium  = (send, mu).Medium;
PC[8] <send> Medium
"""


@pytest.fixture(scope="module")
def chain():
    return ctmc_of(derive(parse_model(SOURCE)))


def test_steady_state_cold(benchmark, chain):
    """Baseline: every solve recomputes (cache disabled by conftest)."""
    result = benchmark(chain.steady_state)
    assert result.meta["cache"] == "off"
    assert abs(result.pi.sum() - 1.0) < 1e-9


def test_steady_state_warm_cache(benchmark, chain):
    """Repeated identical solves served from the content-addressed cache."""
    with cache_override(True):
        reference = chain.steady_state()  # prime

        def solve():
            return chain.steady_state()

        result = benchmark(solve)
    assert result.meta["cache"] == "hit"
    np.testing.assert_array_equal(result.pi, reference.pi)
    get_cache().clear()


@pytest.mark.parametrize("backend", ("sparse", "gmres", "uniformization"))
def test_steady_backend(benchmark, chain, backend):
    """Per-backend steady-state cost through the IR registry — the menu
    the `repro solve --backend` flag chooses from."""
    from repro.ir import solve

    ir = chain.lower()
    result = benchmark(solve, ir, "steady", backend=backend)
    assert result.meta["backend"] == backend
    assert abs(result.pi.sum() - 1.0) < 1e-9


def test_ssa_ensemble_smoke(benchmark):
    """SSA ensemble through the chunked engine path; moments must be sane."""
    from repro.biopepa import ssa_ensemble
    from repro.biopepa.examples import enzyme_kinetics_model

    model = enzyme_kinetics_model()
    grid = np.linspace(0.0, 10.0, 11)

    ens = benchmark(ssa_ensemble, model, grid, 60, 1234)
    assert ens.mean.shape == ens.var.shape == (grid.size, len(model.species))
    assert (ens.var >= 0.0).all()
    assert ens.meta["events"] > 0


def test_ssa_ensemble_batched_smoke(benchmark):
    """The default ensemble path runs the vectorized batched kernel: the
    moments must be bit-identical to the scalar oracle, just faster."""
    from repro.biopepa.examples import enzyme_kinetics_model
    from repro.biopepa.lower import lower_reactions
    from repro.ir import solve
    from repro.ir.backends.ssa import ensemble_moments, reaction_run

    ir = lower_reactions(enzyme_kinetics_model())
    grid = np.linspace(0.0, 10.0, 11)
    scalar = ensemble_moments(reaction_run, ir, grid, 60, 1234)

    ens = benchmark(
        solve, ir, "ssa", mode="ensemble", times=grid, n_runs=60, seed=1234,
    )
    assert ens.meta["kernel"] == "batched"
    np.testing.assert_array_equal(ens.mean, scalar.mean)
    np.testing.assert_array_equal(ens.var, scalar.var)
    assert ens.events == scalar.events and ens.chunks == scalar.chunks
