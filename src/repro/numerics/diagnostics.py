"""Conditioning and convergence diagnostics for the numerical back-ends.

The trust layer (:mod:`repro.ir.guards`) attaches a small dictionary of
quality measurements to every registry solve: residual norms, condition
estimates, uniformization truncation mass, conservation defects.  This
module owns the measurements themselves — each is a pure function of
the generator / stoichiometry / result arrays (or of a solver's LU),
cheap relative to the solve it describes, and safe on degenerate inputs
(it *reports*, never raises; deciding whether a number is acceptable is
the sentinels' job).

Everything here sits below :mod:`repro.ir` in the import layering:
``ir -> numerics`` only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.numerics.generator import as_csr
from repro.numerics.poisson import poisson_truncation_point

__all__ = [
    "CONDITION_ESTIMATE_LIMIT",
    "steady_residual",
    "condition_estimate",
    "simplex_defect",
    "monotonicity_defect",
    "truncation_diagnostics",
    "conservation_laws",
    "conservation_defect",
]

#: Condition estimation is skipped above this state count, so the
#: diagnostic stays a small fraction of the solve it describes.
CONDITION_ESTIMATE_LIMIT = 5000


def steady_residual(Q: sp.spmatrix, pi: np.ndarray) -> float:
    """Max-norm residual ``‖pi @ Q‖∞`` of a claimed equilibrium vector.

    This is the one number that cannot lie: whatever a solver reports
    about its own convergence, the true defect of ``pi @ Q = 0`` is a
    single sparse mat-vec away.
    """
    pi = np.asarray(pi, dtype=np.float64)
    r = pi @ as_csr(Q)
    r = np.asarray(r).ravel()
    return float(np.abs(r).max()) if r.size else 0.0


def condition_estimate(A: sp.spmatrix, lu) -> float | None:
    """1-norm condition number estimate ``kappa_1(A) = ‖A‖₁ ‖A⁻¹‖₁``.

    ``A`` is the normalization-replaced steady-state system (CSC) and
    ``lu`` the sparse LU the direct solver has just computed for it, so
    the estimate costs a few triangular solves, never a factorization.
    ``‖A‖₁`` is exact (the largest absolute column sum); ``‖A⁻¹‖₁`` is
    :func:`_inverse_one_norm`'s lower bound.

    Returns ``None`` when the system is too large
    (:data:`CONDITION_ESTIMATE_LIMIT`), tiny (order < 2), or the
    estimate is not finite.
    """
    n = A.shape[0]
    if n < 2 or n > CONDITION_ESTIMATE_LIMIT:
        return None
    # Every column holds its normalization entry, so none is empty.
    A = A.tocsc()
    norm_a = float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())
    kappa = norm_a * _inverse_one_norm(lu, n)
    return kappa if np.isfinite(kappa) else None


def _inverse_one_norm(lu, n: int, itmax: int = 5) -> float:
    """Hager's lower bound on ``‖A⁻¹‖₁`` through the LU of ``A``: Higham
    & Tisseur's block estimator with one probe column (``t=1``), step
    for step as ``scipy.sparse.linalg.onenormest(..., t=1)`` walks it,
    with plain LU solves in place of its operator wrapping.

    It starts from the uniform vector and draws no random vectors: the
    estimate is deterministic and leaves NumPy's global RNG untouched.
    """
    x = np.full(n, 1.0 / n)
    est_old = 0.0
    sign_old = None
    j = None
    for k in range(1, itmax + 2):
        y = lu.solve(x)
        est = float(np.abs(y).sum())
        if k >= 2 and est <= est_old:
            return est_old
        est_old = est
        if k > itmax:
            break
        sign = np.where(y >= 0.0, 1.0, -1.0)
        if sign_old is not None and sign @ sign_old == n:
            break
        sign_old = sign
        h = np.abs(lu.solve(sign, trans="T"))
        if k >= 2 and h.max() == h[j]:
            break
        # The probe moves to the largest entry of h, as onenormest's
        # reversed argsort picks it (ties included).
        j = int(np.argsort(h)[-1])
        x = np.zeros(n)
        x[j] = 1.0
    return est_old


def simplex_defect(pi: np.ndarray) -> dict:
    """How far a claimed probability vector sits off the simplex.

    Returns ``{"min": most negative entry (0 if none), "mass_error":
    |sum - 1|, "finite": all entries finite}``.
    """
    pi = np.asarray(pi, dtype=np.float64)
    finite = bool(np.isfinite(pi).all())
    if not finite or pi.size == 0:
        return {"min": float("nan"), "mass_error": float("nan"), "finite": finite}
    return {
        "min": float(min(pi.min(), 0.0)),
        "mass_error": float(abs(pi.sum() - 1.0)),
        "finite": True,
    }


def monotonicity_defect(cdf: np.ndarray) -> float:
    """Largest decrease between consecutive CDF samples (0 if monotone)."""
    cdf = np.asarray(cdf, dtype=np.float64)
    if cdf.size < 2:
        return 0.0
    drops = -np.diff(cdf)
    worst = float(drops.max())
    return worst if worst > 0.0 else 0.0


def truncation_diagnostics(
    Q: sp.spmatrix, t_max: float, epsilon: float = 1e-12, *, rate: float | None = None
) -> dict:
    """Uniformization truncation summary for a horizon ``t_max``.

    Reports the uniformization rate ``lambda`` (``rate``, or by default
    the largest exit rate of ``Q``), the Poisson mean
    ``lambda * t_max``, the truncation point ``K`` a uniformization
    sweep at that rate runs to, and the mass bound ``epsilon`` the
    truncation guarantees (weights are renormalized, so the *retained*
    error is at most ``epsilon``).
    """
    if rate is not None:
        lam = float(rate)
    else:
        Q = as_csr(Q)
        lam = float(np.abs(Q.diagonal()).max()) if Q.shape[0] else 0.0
    m = lam * max(float(t_max), 0.0)
    k = poisson_truncation_point(m, epsilon) if m > 0 else 0
    return {
        "uniformization_rate": lam,
        "poisson_mean": m,
        "truncation_k": int(k),
        "truncation_mass": float(epsilon),
    }


def conservation_laws(N: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the left null space of a stoichiometry matrix.

    Rows ``w`` satisfy ``w @ N = 0``: the linear combinations
    ``w @ x(t)`` every trajectory of the network — stochastic or fluid —
    must hold constant.  Shape ``(n_laws, n_species)``; empty when the
    network conserves nothing (or ``N`` is empty).
    """
    N = np.asarray(N, dtype=np.float64)
    if N.size == 0:
        return np.empty((0, N.shape[0] if N.ndim == 2 else 0))
    import scipy.linalg

    W = scipy.linalg.null_space(N.T, rcond=atol)
    return W.T


def conservation_defect(
    W: np.ndarray, counts: np.ndarray, reference: np.ndarray
) -> float:
    """Worst drift of the conserved sums ``W @ x`` along a trajectory.

    ``counts`` has shape ``(n_times, n_species)``; ``reference`` is the
    state the sums are measured against (normally the initial state).
    Returns 0.0 when there are no conservation laws.
    """
    if W.size == 0:
        return 0.0
    expected = W @ np.asarray(reference, dtype=np.float64)
    along = np.asarray(counts, dtype=np.float64) @ W.T
    if along.size == 0:
        return 0.0
    drift = np.abs(along - expected[None, :])
    return float(drift.max())
