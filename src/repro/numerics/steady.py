"""Steady-state distributions of finite CTMCs.

The steady-state (equilibrium) distribution ``pi`` of an irreducible
CTMC with generator ``Q`` satisfies::

    pi @ Q = 0,    sum(pi) = 1,    pi >= 0

It is unique exactly when ``Q`` has one closed communicating class
(transient states are allowed); :func:`steady_state` checks that once,
before any method runs, so every method refuses the same chains.

Four methods implement the PEPA workbench's three steady solvers
(ablation D1 in DESIGN.md); power iteration comes with two stop rules:

``direct``
    Replace one balance equation by the normalization constraint and
    solve the resulting nonsingular sparse system with ``splu``.  It
    also estimates the system's condition number on that LU.
``gmres``
    Same replaced system solved iteratively with ILU-preconditioned
    GMRES.  Scales to larger sparse systems at some accuracy cost.
``budgeted_power``
    Power iteration on the uniformized DTMC ``P = I + Q/lambda``, at
    most one mat-vec per state, stopped when the geometric tail bound
    of the change still to come is below 1e-14.  The registry's default
    ``uniformization`` (revision 2) runs it first and hands the chains
    it cannot finish to ``direct``: every small chain, and any chain
    that mixes slowly.  A 1024-state PC-LAN takes ~200-300 steps, far
    cheaper than its LU, and agrees with the LU to ~2e-14.
``power``
    The same iteration stopped when one step moves ``pi`` by less than
    ``tol``, within ``maxiter`` steps.  A step-size stop can end early
    on a slowly mixing chain; it stays for the replay of revision-1
    ``uniformization`` manifests.

``direct`` and ``gmres`` factorise under the ``MMD_AT_PLUS_A`` column
ordering (minimum degree on ``A^T + A``; a generator's pattern is
nearly symmetric), not SuperLU's default COLAMD.  Over the bundled
models, Table I machines and PC-LAN chains it fills least on every
model above nine states: the 1024-state PC-LAN's LU drops from 681k to
221k nonzeros (4-5x faster), the 4096-state one's from 12.2M to 3.4M
(11x).  It moves result bits, so the registry's ``sparse`` and
``gmres`` are at revision 2.

All methods accept the generator in the "row" convention used across
this library: ``Q[i, j]`` (``i != j``) is the rate from state ``i`` to
state ``j`` and rows sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from repro.engine import faults
from repro.engine.metrics import get_registry
from repro.errors import ConvergenceError, SingularGeneratorError
from repro.numerics import diagnostics
from repro.numerics.generator import as_csr, generator_defect

__all__ = ["steady_state", "SteadyStateResult", "validate_generator", "check_defect"]

_METHODS = ("direct", "gmres", "power", "budgeted_power")

#: Column ordering of the ``direct`` LU and the ``gmres`` ILU (see the
#: module docstring); changing it needs a ``sparse``/``gmres`` revision.
_PERMC = "MMD_AT_PLUS_A"

#: Stop of ``budgeted_power``: its tail bound, near the LU's round-off.
_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state solve outcome.

    Attributes
    ----------
    pi:
        The stationary probability vector (sums to 1).
    method:
        Which back-end produced it.
    residual:
        Max-norm of ``pi @ Q`` — a direct measure of solution quality.
    iterations:
        Iteration count for iterative methods, 0 for the direct solver.
    condition_estimate:
        κ₁ of the replaced system, measured by ``direct`` on its own LU
        (:func:`repro.numerics.diagnostics.condition_estimate`); ``None``
        for the other methods.  Excluded from equality and hashing.
    meta:
        Execution metadata: ``method`` and ``n_states``, plus what the
        registry records (``cache``, ``backend``, ``diagnostics``).
        Excluded from equality and content hashing — volatile execution
        facts must not make equal results digest differently.
    """

    pi: np.ndarray
    method: str
    residual: float
    iterations: int = 0
    condition_estimate: float | None = field(default=None, compare=False)
    meta: dict = field(default_factory=dict, compare=False)

    def __getitem__(self, i: int) -> float:
        return float(self.pi[i])


def validate_generator(Q: sp.spmatrix, atol: float = 1e-8) -> sp.csr_matrix:
    """Check that ``Q`` is a square generator (one
    :func:`~repro.numerics.generator.generator_defect` sweep judged by
    :func:`check_defect`) and return it as CSR.

    Raises
    ------
    SingularGeneratorError
        If the matrix is not square or violates generator structure.
    """
    Q = as_csr(Q)
    n, m = Q.shape
    if n != m:
        raise SingularGeneratorError(f"generator must be square, got {n}x{m}")
    if n == 0:
        raise SingularGeneratorError("generator is empty")
    check_defect(generator_defect(Q), atol)
    return Q


def check_defect(defect: dict, atol: float = 1e-8) -> None:
    """Raise :class:`SingularGeneratorError` unless a
    :func:`~repro.numerics.generator.generator_defect` measurement has
    rows summing to 0 and no negative off-diagonal entry, each within
    ``atol`` times its scale."""
    tol = atol * defect["scale"]
    if defect["row_sum"] > tol:
        raise SingularGeneratorError(
            f"row {defect['worst_row']} of generator sums to "
            f"{defect['worst_row_sum']:.3e}, not 0"
        )
    if defect["min_offdiag"] < -tol:
        raise SingularGeneratorError("negative off-diagonal rate in generator")


def _replaced_system(Q: sp.csr_matrix) -> tuple[sp.csc_matrix, np.ndarray]:
    """Build ``A x = b`` where ``A`` is ``Q^T`` with its last row replaced by
    ones (normalization) and ``b`` is the matching unit vector.

    ``A`` is built as CSC straight from ``Q``'s CSR arrays, because the
    CSC arrays of ``Q^T`` are the CSR arrays of ``Q``: each column keeps
    its row of ``Q`` without index ``n-1`` and ends with ``(n-1, 1.0)``.
    That is one sparse construction, and for a canonical ``Q`` the same
    arrays the transpose, the row splice and ``tocsc`` gave.
    """
    if not Q.has_canonical_format:
        Q = Q.copy()
        Q.sum_duplicates()
    n = Q.shape[0]
    keep = Q.indices != n - 1
    col = np.repeat(np.arange(n), np.diff(Q.indptr))[keep]
    indptr = np.zeros(n + 1, dtype=Q.indptr.dtype)
    np.cumsum(np.bincount(col, minlength=n) + 1, out=indptr[1:])
    # A kept entry's slot: its rank among the kept entries plus the
    # ones-row entries of the columns before its own.
    slot = np.arange(col.size) + col
    data = np.ones(indptr[n])
    indices = np.full(indptr[n], n - 1, dtype=Q.indices.dtype)
    data[slot] = Q.data[keep]
    indices[slot] = Q.indices[keep]
    b = np.zeros(n)
    b[n - 1] = 1.0
    return sp.csc_matrix((data, indices, indptr), shape=(n, n)), b


def _solve_direct(Q: sp.csr_matrix) -> tuple[np.ndarray, float | None]:
    """Sparse LU solve of the replaced system; returns ``(pi, kappa)``
    with κ₁ measured on the same factorization."""
    A, b = _replaced_system(Q)
    try:
        lu = spla.splu(A, permc_spec=_PERMC)
        pi = lu.solve(b)
    except RuntimeError as exc:  # splu signals singularity this way
        raise SingularGeneratorError(f"direct solve failed: {exc}") from exc
    return pi, diagnostics.condition_estimate(A, lu)


def _solve_gmres(Q: sp.csr_matrix, tol: float, maxiter: int) -> tuple[np.ndarray, int]:
    A, b = _replaced_system(Q)
    n = A.shape[0]
    try:
        ilu = spla.spilu(A, drop_tol=1e-6, fill_factor=20, permc_spec=_PERMC)
        M = spla.LinearOperator((n, n), matvec=ilu.solve)
    except RuntimeError:
        M = None  # fall back to unpreconditioned GMRES
    iters = 0

    def _count(_):
        nonlocal iters
        iters += 1

    x, info = spla.gmres(A, b, rtol=tol, atol=0.0, maxiter=maxiter, M=M, callback=_count,
                         callback_type="pr_norm")
    if info != 0:
        raise ConvergenceError(f"GMRES did not converge (info={info}) after {iters} iterations")
    # Preconditioned GMRES converges on the *preconditioned* residual, so
    # info == 0 does not bound |A x - b|: a poor ILU factorization can
    # report success on an answer that is wrong in the original system.
    # Measure the true residual and treat silent non-convergence exactly
    # like reported non-convergence — recoverable by the fallback chain.
    scale = max(1.0, float(np.abs(A.data).max()) if A.nnz else 1.0)
    true_res = float(np.abs(A @ x - b).max())
    if not np.isfinite(true_res) or true_res > max(tol, 1e-10) * 1e3 * scale:
        raise ConvergenceError(
            f"GMRES reported convergence but the true residual |Ax-b| = "
            f"{true_res:.3e} exceeds tolerance after {iters} iterations"
        )
    return x, iters


def _solve_power(Q: sp.csr_matrix, tol: float, maxiter: int) -> tuple[np.ndarray, int]:
    n = Q.shape[0]
    diag = -Q.diagonal()
    lam = float(diag.max()) * 1.02 + 1e-12
    # P = I + Q/lam, iterated from the uniform distribution.
    P = sp.eye(n, format="csr") + Q.multiply(1.0 / lam)
    PT = P.transpose().tocsr()
    pi = np.full(n, 1.0 / n)
    for k in range(1, maxiter + 1):
        nxt = PT @ pi
        s = nxt.sum()
        if s <= 0:
            raise SingularGeneratorError("power iteration lost all probability mass")
        nxt /= s
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta < tol:
            return pi, k
    raise ConvergenceError(
        f"power iteration did not converge below {tol} in {maxiter} iterations"
    )


def _solve_budgeted_power(
    Q: sp.csr_matrix, tol: float, maxiter: int, diag: np.ndarray
) -> tuple[np.ndarray, int]:
    """Power iteration on the uniformized DTMC under a budget of
    ``min(n, maxiter)`` mat-vecs, stopped on the geometric tail bound.

    With ``delta_k`` the latest step's max-abs change and ``rho`` the
    ratio ``delta_k / delta_{k-1}``, the change still to come is about
    ``delta_k * rho / (1 - rho)``; the iteration stops once that is at
    most ``min(tol, 1e-14)``.  A small ``delta_k`` alone is not a stop:
    a slowly mixing chain takes small steps long before it is close.
    Out of budget, it raises :class:`ConvergenceError`.  Small chains
    take more steps than they have states, so for them that is the
    normal route to the LU, not a fault.
    """
    n = Q.shape[0]
    budget = min(n, maxiter)
    target = min(tol, _TAIL_TOL)
    lam = float(diag.max()) * 1.02 + 1e-12
    # pi P = pi + pi (Q / lam); the CSC arrays of (Q / lam)^T are the
    # CSR arrays of Q / lam.
    step = sp.csc_matrix((Q.data / lam, Q.indices, Q.indptr), shape=Q.shape)
    pi = np.full(n, 1.0 / n)
    prev = None
    for k in range(1, budget + 1):
        nxt = step @ pi
        nxt += pi
        s = nxt.sum()
        if s <= 0:
            raise SingularGeneratorError("power iteration lost all probability mass")
        nxt /= s
        delta = float(np.abs(nxt - pi).max())
        pi = nxt
        if delta == 0.0:
            return pi, k
        if prev is not None:
            rho = delta / prev
            if rho < 1.0 and delta * rho <= target * (1.0 - rho):
                return pi, k
        prev = delta
    raise ConvergenceError(
        f"power iteration's tail bound stayed above {target:g} for its "
        f"budget of {budget} mat-vecs"
    )


def steady_state(
    Q: sp.spmatrix,
    method: str = "direct",
    tol: float = 1e-10,
    maxiter: int = 100_000,
    check: bool = True,
) -> SteadyStateResult:
    """Compute the steady-state distribution of the CTMC generator ``Q``.

    Parameters
    ----------
    Q:
        Sparse ``n x n`` generator, row convention (rows sum to zero).
    method:
        ``"direct"`` (sparse LU), ``"gmres"``, ``"budgeted_power"`` or
        ``"power"``.
    tol:
        Convergence tolerance of the iterative methods;
        ``budgeted_power`` stops at ``min(tol, 1e-14)``.
    maxiter:
        Iteration budget for the iterative methods; ``budgeted_power``
        spends at most ``min(n, maxiter)`` mat-vecs.
    check:
        Validate generator structure first (:func:`validate_generator`).
        The registry's steady backends pass ``False``: they judge the
        IR's memoised ``generator_defect``, the sweep the trust layer's
        sentinel reads too, with :func:`check_defect`.

    Returns
    -------
    SteadyStateResult

    Raises
    ------
    SingularGeneratorError
        If the chain has an absorbing state or more than one closed
        communicating class, so no unique solution exists.
    ConvergenceError
        If an iterative method exhausts its budget.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    Q = validate_generator(Q) if check else as_csr(Q)
    n = Q.shape[0]
    if n == 1:
        return SteadyStateResult(pi=np.array([1.0]), method=method, residual=0.0)
    # A state with no outgoing rate is absorbing: the steady state would be
    # degenerate and almost always signals a modelling error upstream.
    diag = -Q.diagonal()
    if (diag <= 0).any():
        dead = int(np.argmin(diag))
        raise SingularGeneratorError(
            f"state {dead} is absorbing (no outgoing transitions); "
            "the CTMC has no unique equilibrium"
        )
    closed = _closed_classes(Q)
    if closed != 1:
        raise SingularGeneratorError(
            f"the CTMC has {closed} closed communicating classes; "
            "it has no unique equilibrium"
        )
    with get_registry().timer("steady_state") as gauges:
        result = _solve_and_check(Q, method, tol, maxiter, diag)
        gauges["n_states"] = n
        gauges["iterations"] = result.iterations
    if faults.should_fire("solver_silent_garbage", backend=method) is not None:
        # The vector is well-normalized and the reported residual is
        # confidently tiny — the exact lie an exit-code check believes
        # and the trust layer's recomputed residual does not.
        rigged = np.linspace(1.0, 2.0, n)
        rigged /= rigged.sum()
        result = SteadyStateResult(
            pi=rigged, method=method, residual=tol / 10.0,
            iterations=result.iterations,
        )
    result.meta.update(method=method, n_states=n)
    return result


def _closed_classes(Q: sp.csr_matrix) -> int:
    """Number of closed communicating classes of the generator ``Q``.

    A strongly connected component is closed when no rate leaves it; a
    finite chain always has at least one.  Every stored off-diagonal
    entry is a rate, so every one but an explicit zero is an edge.
    """
    if not Q.data.all():
        Q = Q.copy()
        Q.eliminate_zeros()
    n_classes, label = csgraph.connected_components(
        Q, directed=True, connection="strong"
    )
    if n_classes == 1:
        return 1
    source = np.repeat(label, np.diff(Q.indptr))
    leaves = source != label[Q.indices]
    return n_classes - np.unique(source[leaves]).size


def _solve_and_check(
    Q: sp.csr_matrix, method: str, tol: float, maxiter: int, diag: np.ndarray
) -> SteadyStateResult:
    """Dispatch to the selected back-end and validate the solution."""
    if faults.should_fire("solver_nonconverge", backend=method) is not None:
        raise ConvergenceError(f"injected non-convergence for method {method!r}")
    kappa, iters = None, 0
    if method == "direct":
        pi, kappa = _solve_direct(Q)
    elif method == "gmres":
        pi, iters = _solve_gmres(Q, tol, maxiter)
    elif method == "power":
        pi, iters = _solve_power(Q, tol, maxiter)
    else:
        pi, iters = _solve_budgeted_power(Q, tol, maxiter, diag)
    # Clean tiny negative round-off and renormalize.
    if pi.min() < -1e-6:
        raise SingularGeneratorError(
            f"solution has significantly negative entry {pi.min():.3e}: chain "
            "is likely reducible"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SingularGeneratorError("steady-state solve produced a non-normalizable vector")
    pi /= total
    residual = float(np.abs(pi @ Q).max())
    rate_scale = max(1.0, float(diag.max()))
    if residual > 1e-6 * rate_scale:
        raise SingularGeneratorError(
            f"steady-state residual {residual:.3e} too large; generator may be reducible"
        )
    return SteadyStateResult(pi=pi, method=method, residual=residual,
                             iterations=iters, condition_estimate=kappa)
