"""The direct solvers' systems are built in one construction each, with
the same bytes the earlier multi-step constructions gave.

Each oracle below is the earlier construction, kept verbatim: the steady
replaced system (transpose, ``tocsr``, row splice, ``tocsc``), its κ₁
through ``LinearOperator`` and ``onenormest``, and the hitting-time
system ``Q[trans][:, trans].tocsc()``.  The LU of a byte-identical input
is byte-identical, so a default request served by the LU and every
``result.mean`` keep their bits.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.numerics import diagnostics
from repro.numerics.steady import _PERMC, _replaced_system
from repro.numerics.transient import _principal_csc, expected_hitting_time
from repro.pepa import ctmc_of, derive
from tests.pepa.test_derive_pinned import pinned_corpus


def old_replaced_system(Q: sp.csr_matrix) -> tuple[sp.csc_matrix, np.ndarray]:
    n = Q.shape[0]
    Qt = Q.transpose().tocsr()
    cut = Qt.indptr[n - 1]
    data = np.concatenate([Qt.data[:cut], np.ones(n)])
    indices = np.concatenate([Qt.indices[:cut], np.arange(n, dtype=Qt.indices.dtype)])
    indptr = np.concatenate([Qt.indptr[:n], [cut + n]]).astype(Qt.indptr.dtype)
    A = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    b = np.zeros(n)
    b[n - 1] = 1.0
    return A.tocsc(), b


def old_condition_estimate(A: sp.spmatrix, lu) -> float:
    n = A.shape[0]
    norm_a = float(abs(A).sum(axis=0).max())
    inv_op = spla.LinearOperator(
        (n, n),
        matvec=lu.solve,
        rmatvec=lambda v: lu.solve(np.asarray(v, dtype=np.float64).ravel(), trans="T"),
        dtype=np.float64,
    )
    return norm_a * float(spla.onenormest(inv_op, t=1))


def old_hitting_system(Q: sp.csr_matrix, target) -> sp.csc_matrix:
    target_set = set(int(t) for t in target)
    trans = np.array([i for i in range(Q.shape[0]) if i not in target_set], dtype=np.intp)
    return Q[trans][:, trans].tocsc()


def random_generator(rng, n: int) -> sp.csr_matrix:
    """An irreducible generator: a ring plus random extra edges."""
    R = sp.random(
        n, n, density=float(rng.uniform(0.05, 0.6)),
        random_state=int(rng.integers(1 << 30)), format="csr",
    )
    ring = sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
    R = sp.csr_matrix(R + ring)
    R.setdiag(0)
    R.eliminate_zeros()
    return (R - sp.diags(np.asarray(R.sum(axis=1)).ravel())).tocsr()


def generators() -> list[tuple[str, sp.csr_matrix]]:
    """Every restarting chain of the pinned corpus plus seeded random
    generators of 2-40 states."""
    cases = [
        (name, ctmc_of(derive(model)).generator)
        for name, model in pinned_corpus()
        if not name.endswith("_abs")
    ]
    rng = np.random.default_rng(2019)
    cases += [(f"random{i}", random_generator(rng, int(rng.integers(2, 41)))) for i in range(40)]
    return cases


GENERATORS = generators()


def same_arrays(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    return a.format == b.format and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr))
    )


@pytest.mark.parametrize("name, Q", GENERATORS, ids=[name for name, _ in GENERATORS])
def test_replaced_system_and_kappa_match_the_oracles(name, Q):
    A, b = _replaced_system(Q)
    A_old, b_old = old_replaced_system(Q)
    assert same_arrays(A, A_old)
    assert b.tobytes() == b_old.tobytes()
    lu = spla.splu(A, permc_spec=_PERMC)
    assert diagnostics.condition_estimate(A, lu) == old_condition_estimate(A_old, lu)


@pytest.mark.parametrize("name, Q", GENERATORS, ids=[name for name, _ in GENERATORS])
def test_hitting_system_matches_the_oracle(name, Q):
    n = Q.shape[0]
    rng = np.random.default_rng(n)
    for target in ([n - 1], [0], sorted(rng.choice(n, size=max(1, n // 3), replace=False))):
        keep = np.ones(n, dtype=bool)
        keep[target] = False
        if keep.any():
            assert same_arrays(_principal_csc(Q, keep), old_hitting_system(Q, target))


def test_hitting_time_ignores_repeated_and_out_of_range_targets():
    Q = GENERATORS[0][1]
    n = Q.shape[0]
    pi0 = np.full(n, 1.0 / n)
    plain = expected_hitting_time(Q, pi0, [1])
    assert expected_hitting_time(Q, pi0, [1, 1, -1, n, n + 5]) == plain
    assert expected_hitting_time(Q, pi0, range(n)) == 0.0
