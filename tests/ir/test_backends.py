"""Backend matrix over the bundled PEPA models and the steady corpus.

Every CTMC backend must agree on every model: the steady-state vectors
of ``sparse`` / ``gmres`` / ``uniformization`` match a dense LAPACK
solve built here on the bundled models, the Table I machines and the
1024-state PC-LAN patterns,
and the ``expm`` transient/passage backends match the uniformization
ones.  This is the cross-backend half of the equivalence suite (the
cross-formalism half lives in ``test_cross_formalism.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from benchmarks.e2e.workloads import LAN_PATTERNS, lan_source
from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload
from repro.allocation.machines import machine_model_source
from repro.engine import cache_disabled
from repro.errors import BackendError
from repro.ir import MarkovIR, solve
from repro.ir.backends.markov import DENSE_STATE_LIMIT
from repro.numerics import steady
from repro.pepa import ctmc_of, derive, parse_model
from repro.pepa.models import MODEL_NAMES, get_source

EDINBURGH_MODELS = ("active_badge", "alternating_bit", "pc_lan_4")

#: The steady corpus: bundled models, the ten Table I machine models
#: (recurrent, under Mappings A and B) and the 1024-state PC-LAN patterns.
STEADY_SOURCES = {
    **{name: get_source(name) for name in MODEL_NAMES},
    **{
        f"{mapping.name}-{machine}": machine_model_source(
            mapping, machine, synthetic_workload(), absorbing=False
        )
        for mapping in (MAPPING_A, MAPPING_B)
        for machine in ("M1", "M2", "M3", "M4", "M5")
    },
    **{
        "lan-" + "x".join(map(str, segments)): lan_source(
            segments, 0.4, [4.0 + 2.0 * k for k in range(len(segments))]
        )
        for segments in LAN_PATTERNS
    },
}

#: ``dense`` is this module's LAPACK reference, not a registry backend:
#: its row checks the reference itself, so the other rows compare
#: against a verified stationary vector.
STEADY_BACKENDS = ("dense", "sparse", "gmres", "uniformization")

#: ``(params, max |pi - pi_dense|)`` per backend: the sparse LU agrees
#: with LAPACK to round-off, GMRES does once its tolerance is below the
#: bound, and power iteration stops on a tail bound of 1e-14.
STEADY_AGREEMENT = {
    "sparse": ({}, 1e-12),
    "gmres": ({"tol": 1e-12}, 1e-12),
    "uniformization": ({}, 1e-12),
}


@lru_cache(maxsize=None)
def lowered(name: str) -> MarkovIR:
    return ctmc_of(derive(parse_model(STEADY_SOURCES[name]))).lower()


@lru_cache(maxsize=None)
def dense_pi(name: str) -> np.ndarray:
    """LAPACK solve of ``Q^T`` with its last row replaced by ones."""
    A = lowered(name).generator.toarray().T
    A[-1, :] = 1.0
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return scipy.linalg.solve(A, b)


@pytest.mark.parametrize("name", STEADY_SOURCES)
@pytest.mark.parametrize("backend", STEADY_BACKENDS)
def test_steady_backend_matrix(name, backend):
    ir = lowered(name)
    if backend == "dense":
        pi = dense_pi(name)
        Q = ir.generator
        scale = max(1.0, float(np.abs(Q.diagonal()).max()))
        assert pi.min() > -1e-12
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.abs(Q.T @ pi).max() <= 1e-12 * scale
        return
    params, atol = STEADY_AGREEMENT[backend]
    # Power iteration hands a chain it cannot finish within one mat-vec
    # per state (every small one here) to the sparse LU.
    fallback = backend == "uniformization"
    result = solve(ir, "steady", backend=backend, fallback=fallback, **params)
    assert result.pi.shape == (ir.n_states,)
    assert abs(result.pi.sum() - 1.0) < 1e-9
    assert np.abs(result.pi - dense_pi(name)).max() <= atol


def test_sparse_lu_fill_on_a_1024_state_lan(monkeypatch):
    """The fill-reducing ordering keeps the LU of the 1024-state PC-LAN
    at ~221k nonzeros (COLAMD fills it to ~681k)."""
    fills = []
    splu = steady.spla.splu

    def measured(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(steady.spla, "splu", measured)
    with cache_disabled():
        solve(lowered("lan-10"), "steady", backend="sparse")
    assert len(fills) == 1
    assert fills[0] < 300_000


@pytest.mark.parametrize("name", EDINBURGH_MODELS)
def test_transient_backend_agreement(name):
    ir = lowered(name)
    times = np.array([0.0, 0.5, 2.0, 8.0])
    uni = solve(ir, "transient", times=times)
    expm = solve(ir, "transient", backend="expm", times=times)
    assert uni.shape == (times.size, ir.n_states)
    np.testing.assert_allclose(uni, expm, atol=1e-9)
    # Row-stochastic at every time point.
    np.testing.assert_allclose(uni.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("name", EDINBURGH_MODELS)
def test_passage_backend_agreement(name):
    ir = lowered(name)
    target = ir.n_states - 1
    times = np.linspace(0.0, 10.0, 41)
    uni = solve(ir, "passage", targets=(target,), times=times)
    expm = solve(ir, "passage", backend="expm", targets=(target,), times=times)
    np.testing.assert_allclose(uni.cdf, expm.cdf, atol=1e-8)
    np.testing.assert_allclose(uni.mean, expm.mean, rtol=1e-9)
    # CDFs are monotone and bounded by construction.
    assert (np.diff(uni.cdf) >= 0.0).all()
    assert 0.0 <= uni.cdf[0] and uni.cdf[-1] <= 1.0


@pytest.mark.parametrize("backend", ("uniformization", "expm"))
def test_repeated_passage_target_counted_once(backend):
    # Regression: targets (3, 3) doubled the CDF (0.326 vs 0.163 at
    # t = 0.5 on pc_lan_4) while the mean, computed from a set, did not.
    ir = lowered("pc_lan_4")
    times = np.array([0.5, 1.0, 2.0])
    once = solve(ir, "passage", backend=backend, targets=(3,), times=times)
    twice = solve(ir, "passage", backend=backend, targets=(3, 3), times=times)
    assert twice.cdf.tobytes() == once.cdf.tobytes()
    assert twice.mean == once.mean


@pytest.mark.parametrize("alias", ("dense",))
def test_passage_dense_alias(alias):
    ir = lowered("active_badge")
    times = np.linspace(0.0, 5.0, 11)
    via_alias = solve(ir, "passage", backend=alias, targets=(1,), times=times)
    assert via_alias.meta["backend"] == "expm"


def test_empty_target_set_is_rejected():
    ir = lowered("active_badge")
    with pytest.raises(BackendError, match="target set is empty"):
        solve(ir, "passage", targets=(), times=np.linspace(0.0, 1.0, 5))


def test_dense_backends_refuse_large_chains():
    n = DENSE_STATE_LIMIT + 1
    big = MarkovIR(generator=sp.csr_matrix((n, n)))
    with pytest.raises(BackendError, match="use uniformization"):
        solve(big, "transient", backend="expm", times=[0.0, 1.0])
    with pytest.raises(BackendError, match="use uniformization"):
        solve(big, "passage", backend="expm", targets=(0,), times=[0.0, 1.0])
