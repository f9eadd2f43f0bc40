"""The CTMC generator in the row convention (``Q[i, j]``, ``i != j``, is
the rate from ``i`` to ``j``; rows sum to zero): its one assembly from a
rate table, its one structural measurement, the one way to make states
absorbing and the one way to strip its diagonal, shared by every
frontend and the IR.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["as_csr", "generator_from_rates", "generator_defect", "absorbing", "off_diagonal"]


def as_csr(Q) -> sp.csr_matrix:
    """``Q`` as a float64 CSR matrix: ``Q`` itself when it already is
    one (no re-wrap, no format check), else a converted copy."""
    if isinstance(Q, sp.csr_matrix) and Q.dtype == np.float64:
        return Q
    return sp.csr_matrix(Q, dtype=np.float64)


def generator_from_rates(n: int, rows, cols, rates) -> sp.csr_matrix:
    """Canonical CSR generator of the ``n``-state chain with a transition
    ``rows[k] -> cols[k]`` at ``rates[k]`` for every ``k``.  Parallel
    entries sum (PEPA's race-condition semantics); a self-loop cancels out
    of the diagonal, so callers that want self-loops ignored drop them."""
    R = sp.coo_matrix((rates, (rows, cols)), shape=(n, n)).tocsr()
    exit_rates = np.asarray(R.sum(axis=1)).ravel()
    # The diagonal as CSR directly, in R's index dtype so R - D keeps it.
    diag = np.arange(n + 1, dtype=R.indices.dtype)
    return R - sp.csr_matrix((exit_rates, diag[:n], diag), shape=(n, n))


def generator_defect(Q: sp.csr_matrix) -> dict:
    """Worst structural defects of ``Q``, in one sweep: ``row_sum`` (the
    largest ``|row sum|``), ``worst_row`` and ``worst_row_sum`` (where and
    signed), ``min_offdiag`` (most negative off-diagonal entry, 0 if
    none) and ``scale`` (largest ``|entry|``, at least 1)."""
    row_sums = np.asarray(Q.sum(axis=1)).ravel()
    worst = int(np.abs(row_sums).argmax()) if row_sums.size else 0
    worst_sum = float(row_sums[worst]) if row_sums.size else 0.0
    coo = Q.tocoo()
    off = coo.row != coo.col
    min_off = float(coo.data[off].min()) if off.any() else 0.0
    return {
        "row_sum": abs(worst_sum),
        "worst_row": worst,
        "worst_row_sum": worst_sum,
        "min_offdiag": min(min_off, 0.0),
        "scale": max(1.0, float(np.abs(Q.data).max()) if Q.nnz else 1.0),
    }


def absorbing(Q: sp.csr_matrix, states: Sequence[int]) -> sp.csr_matrix:
    """A copy of ``Q`` with the rows of ``states`` emptied (made
    absorbing); every other row keeps its canonical entries in order."""
    if not Q.has_canonical_format:
        Q = Q.copy()
        Q.sum_duplicates()
    kept = np.ones(Q.shape[0], dtype=bool)
    kept[states] = False
    row_nnz = np.diff(Q.indptr)
    keep = np.repeat(kept, row_nnz)
    indptr = np.zeros_like(Q.indptr)
    np.cumsum(row_nnz * kept, out=indptr[1:])
    return sp.csr_matrix((Q.data[keep], Q.indices[keep], indptr), shape=Q.shape)


def off_diagonal(Q: sp.spmatrix) -> sp.coo_matrix:
    """The off-diagonal entries of ``Q`` (the rate matrix of a
    generator), in ``Q.tocoo()``'s order: row-major for a CSR ``Q``."""
    coo = Q.tocoo()
    off = coo.row != coo.col
    return sp.coo_matrix((coo.data[off], (coo.row[off], coo.col[off])), shape=Q.shape)
