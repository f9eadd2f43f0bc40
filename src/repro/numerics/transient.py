"""Transient CTMC analysis via uniformization.

Uniformization computes ``pi(t) = pi0 @ expm(Q t)`` without ever forming
a matrix exponential::

    pi(t) = sum_k  Poisson(lam*t; k) * pi0 @ P^k,   P = I + Q/lam

The vector sequence ``pi0 @ P^k`` is shared across every requested time
point, so evaluating a whole time grid costs one sparse mat-vec sweep up
to the largest truncation point — this is what makes regenerating an
entire CDF curve (Figs. 3 and 4 of the paper) cheap.  So is the grid's
Poisson weight matrix and its truncation points: one
:func:`~repro.numerics.poisson.uniformization_weights` call builds them.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import NumericsError
from repro.numerics.dtmc import uniformized_dtmc
from repro.numerics.generator import absorbing
from repro.numerics.poisson import poisson_weights, uniformization_weights

__all__ = [
    "transient_distribution",
    "backward_transient",
    "absorption_cdf",
    "expected_hitting_time",
    "take_truncation",
]

#: Per thread, the truncation of the latest sweep (see take_truncation).
_latest = threading.local()


def take_truncation() -> dict:
    """The truncation this thread's latest :func:`transient_distribution`
    sweep ran with, and forget it: ``uniformization_rate``,
    ``poisson_mean`` (the rate times the largest time), ``truncation_k``
    (the last power applied) and ``truncation_mass`` (``epsilon``), the
    keys of :func:`~repro.numerics.diagnostics.truncation_diagnostics`.
    Empty when no sweep ran since the last call.  A caller reporting on
    its own solve calls it once before and once after."""
    out = getattr(_latest, "truncation", None) or {}
    _latest.truncation = {}
    return out


def _as_distribution(pi0: Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    pi0 = np.asarray(pi0, dtype=np.float64)
    if pi0.shape != (n,):
        raise NumericsError(f"initial distribution has shape {pi0.shape}, expected ({n},)")
    if pi0.min() < -1e-12 or abs(pi0.sum() - 1.0) > 1e-9:
        raise NumericsError("initial distribution must be non-negative and sum to 1")
    return np.clip(pi0, 0.0, None)


def transient_distribution(
    Q: sp.spmatrix,
    pi0: Sequence[float] | np.ndarray,
    times: Sequence[float] | np.ndarray,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Transient state distributions at each requested time.

    Parameters
    ----------
    Q:
        Sparse generator (rows sum to zero; absorbing rows of all zeros
        are allowed — this is how passage-time analysis uses it).
    pi0:
        Initial distribution over states.
    times:
        Finite, non-negative time points (any order; output matches input order).
    epsilon:
        Poisson truncation mass.

    Returns
    -------
    ndarray of shape ``(len(times), n)`` — row ``i`` is ``pi(times[i])``.
    """
    Q = sp.csr_matrix(Q, dtype=np.float64)
    n = Q.shape[0]
    pi0 = _as_distribution(pi0, n)
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        return np.empty((0, n))
    if not (np.isfinite(times).all() and times.min() >= 0):
        raise NumericsError("times must be finite and non-negative")
    P, lam = uniformized_dtmc(Q)
    PT = P.transpose().tocsr()
    k_lo, _, W, k_max = uniformization_weights(lam * times, epsilon)
    _latest.truncation = {
        "uniformization_rate": lam,
        "poisson_mean": lam * float(times.max()),
        "truncation_k": k_max,
        "truncation_mass": float(epsilon),
    }

    out = np.zeros((times.size, n))
    v = pi0.copy()
    # Columns below every row's window are zero; weights past k_max are
    # dropped (the rows are renormalized below).
    k_first = int(k_lo.min())
    for k in range(k_max + 1):
        if k >= k_first:
            out += W[:, k, None] * v
        if k < k_max:
            v = PT @ v
    # Renormalize rows: truncation plus round-off can shave ~epsilon mass.
    sums = out.sum(axis=1, keepdims=True)
    np.divide(out, sums, out=out, where=sums > 0)
    return out


def backward_transient(
    Q: sp.spmatrix,
    reward: Sequence[float] | np.ndarray,
    t: float,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Backward uniformization: ``u = expm(Q t) @ reward``.

    ``u[s]`` is the expected value of ``reward`` over the state occupied
    at time ``t`` *starting from* ``s`` — the all-initial-states dual of
    :func:`transient_distribution`, and the primitive CSL model checking
    needs (one sweep yields the probability for every start state).
    """
    Q = sp.csr_matrix(Q, dtype=np.float64)
    n = Q.shape[0]
    z = np.asarray(reward, dtype=np.float64)
    if z.shape != (n,):
        raise NumericsError(f"reward vector has shape {z.shape}, expected ({n},)")
    if not (np.isfinite(t) and t >= 0):
        raise NumericsError(f"time must be finite and non-negative, got {t}")
    if t == 0.0:
        return z.copy()
    P, lam = uniformized_dtmc(Q)
    k_lo, w = poisson_weights(lam * t, epsilon)
    out = np.zeros(n)
    v = z.copy()
    k = 0
    k_hi = k_lo + w.size - 1
    while k <= k_hi:
        if k >= k_lo:
            out += w[k - k_lo] * v
        if k < k_hi:
            v = P @ v
        k += 1
    return out


def absorption_cdf(
    Q: sp.spmatrix,
    pi0: Sequence[float] | np.ndarray,
    target: Sequence[int],
    times: Sequence[float] | np.ndarray,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """CDF of the first-passage time into ``target`` states.

    The target states are made absorbing (their outgoing rows zeroed),
    after which ``P(T <= t)`` equals the transient probability of being
    in any target state at time ``t``.  A state listed more than once in
    ``target`` counts once.

    Returns an array aligned with ``times``.
    """
    Q = sp.csr_matrix(Q, dtype=np.float64)
    target = list(dict.fromkeys(target))
    if not target:
        raise NumericsError("target state set is empty")
    n = Q.shape[0]
    for s in target:
        if not 0 <= s < n:
            raise NumericsError(f"target state {s} out of range 0..{n - 1}")
    dist = transient_distribution(absorbing(Q, target), pi0, times, epsilon)
    return dist[:, target].sum(axis=1)


def expected_hitting_time(
    Q: sp.spmatrix,
    pi0: Sequence[float] | np.ndarray,
    target: Sequence[int],
) -> float:
    """Mean first-passage time into ``target``, by solving the linear
    system on the non-target states::

        Q_TT @ h = -1,   E[T] = pi0_T @ h

    where ``T`` indexes transient (non-target) states.  States that
    cannot reach the target make the system singular and raise.
    """
    Q = sp.csr_matrix(Q, dtype=np.float64)
    n = Q.shape[0]
    target_set = set(int(t) for t in target)
    trans = np.array([i for i in range(n) if i not in target_set], dtype=np.intp)
    if trans.size == 0:
        return 0.0
    pi0 = _as_distribution(pi0, n)
    Qtt = Q[trans][:, trans].tocsc()
    rhs = -np.ones(trans.size)
    try:
        import scipy.sparse.linalg as spla

        h = spla.splu(Qtt).solve(rhs)
    except RuntimeError as exc:
        raise NumericsError(
            f"hitting-time system is singular (some state cannot reach the target): {exc}"
        ) from exc
    if not np.isfinite(h).all() or (h < -1e-9).any():
        raise NumericsError("hitting-time solve produced invalid (negative/inf) times")
    return float(pi0[trans] @ h)
