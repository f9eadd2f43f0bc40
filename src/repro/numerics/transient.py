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

First-passage CDFs (:func:`absorption_cdf`) have a second kernel for the
grids those curves are drawn on, ``0, dt, ..., (N-1) dt``: build one
small dense propagator by the same uniformization,

    P(dt) = sum_k  Poisson(lam*dt; k) * P^k,

truncated at ``epsilon / (N - 1)`` per step so the whole grid stays
within ``epsilon``, and step ``pi(t + dt) = pi(t) @ P(dt)`` across the
grid in doubling blocks (``pi[j + 2^a] = pi[j] @ P(dt)^(2^a)``, about
``log2 N`` matrix products).  The rows are renormalized as the sweep's
are.  :func:`absorption_plan` picks the kernel from work counts: the
stepped kernel's dense products against the sweep's mat-vecs and grid
accumulations.  Any other grid, and any chain where stepping costs more,
keeps the sweep.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import NumericsError
from repro.numerics.diagnostics import truncation_diagnostics
from repro.numerics.dtmc import uniformization_rate, uniformized_dtmc
from repro.numerics.generator import absorbing, as_csr
from repro.numerics.poisson import poisson_weights, uniformization_weights

__all__ = [
    "transient_distribution",
    "backward_transient",
    "absorption_cdf",
    "absorption_plan",
    "swept_absorption_cdf",
    "planned_truncation",
    "expected_hitting_time",
    "take_truncation",
]

#: Per thread, the truncation of the latest sweep (see take_truncation).
_latest = threading.local()


def take_truncation() -> dict:
    """The truncation this thread's latest :func:`transient_distribution`
    sweep or :func:`absorption_cdf` solve ran with, and forget it:
    ``kernel`` (``"sweep"`` or ``"stepped"``) and the keys of
    :func:`~repro.numerics.diagnostics.truncation_diagnostics`,
    ``uniformization_rate``, ``poisson_mean`` (the rate times the
    largest time, or times the step), ``truncation_k`` (the last power
    applied) and ``truncation_mass`` (``epsilon``).  Empty when no solve
    ran since the last call.  A caller reporting on its own solve calls
    it once before and once after."""
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


def _as_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=np.float64)
    if times.size and not (np.isfinite(times).all() and times.min() >= 0):
        raise NumericsError("times must be finite and non-negative")
    return times


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
    Q = as_csr(Q)
    n = Q.shape[0]
    pi0 = _as_distribution(pi0, n)
    times = _as_times(times)
    if times.size == 0:
        return np.empty((0, n))
    P, lam = uniformized_dtmc(Q)
    PT = P.transpose().tocsr()
    k_lo, _, W, k_max = uniformization_weights(lam * times, epsilon)
    _latest.truncation = {
        "kernel": "sweep",
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
    Q = as_csr(Q)
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


def _absorbed(Q: sp.spmatrix, target: Sequence[int]) -> tuple[sp.csr_matrix, list[int]]:
    """``Q`` with the ``target`` states made absorbing, and the targets
    once each, in order."""
    Q = as_csr(Q)
    target = list(dict.fromkeys(target))
    if not target:
        raise NumericsError("target state set is empty")
    n = Q.shape[0]
    for s in target:
        if not 0 <= s < n:
            raise NumericsError(f"target state {s} out of range 0..{n - 1}")
    return absorbing(Q, target), target


def _grid_step(times: np.ndarray) -> float | None:
    """``dt`` when ``times`` is ``0, dt, ..., (N-1) dt`` with ``N >= 3``,
    every point within a few ulps of ``i * dt``; else ``None``."""
    if times.size < 3 or times[0] != 0.0:
        return None
    dt = float(times[-1]) / (times.size - 1)
    off = float(np.abs(times - dt * np.arange(times.size)).max())
    return dt if dt > 0.0 and off <= 4.0 * np.spacing(times[-1]) else None


def absorption_plan(
    Qa: sp.csr_matrix, times: np.ndarray, epsilon: float = 1e-12
) -> tuple[float, tuple | None]:
    """``(lam, step)``: the uniformization rate of the absorbing generator
    ``Qa``, and how :func:`absorption_cdf` covers the (validated) grid
    ``times`` — ``step = (dt, k_lo, w)``, the grid step and the Poisson
    weights of ``P(dt)`` for ``k = k_lo..``, or ``None`` for the sweep.

    It steps on a grid ``0, dt, ..., (N-1) dt`` whose dense work — the
    powers of ``P`` up to the last term, the doubling squarings and one
    ``n``-vector product per step — is smaller than the sweep's.  The
    sweep applies at least ``lam * t_max`` powers (for any ``epsilon``
    well below 1/2 its truncation point lies above the Poisson mean, so
    the count needs no search), each a mat-vec over
    ``nnz(P) <= nnz(Qa) + n`` entries plus an accumulation over the
    ``N x n`` grid."""
    n = Qa.shape[0]
    lam = uniformization_rate(-Qa.diagonal())
    dt = _grid_step(times)
    if dt is None:
        return lam, None
    steps = times.size - 1
    k_lo, w = poisson_weights(lam * dt, epsilon / steps)
    stepped = (k_lo + w.size - 1 + steps.bit_length() - 1) * n**3 + steps * n * n
    swept = lam * float(times[-1]) * (Qa.nnz + n + times.size * n)
    return lam, ((dt, k_lo, w) if stepped < swept else None)


def _stepped_truncation(lam: float, step: tuple, epsilon: float) -> dict:
    dt, k_lo, w = step
    return {
        "kernel": "stepped",
        "uniformization_rate": lam,
        "poisson_mean": lam * dt,
        "truncation_k": k_lo + w.size - 1,
        "truncation_mass": float(epsilon),
    }


def _stepped(Qa: sp.csr_matrix, lam: float, pi0: np.ndarray, size: int, step: tuple) -> np.ndarray:
    """``pi(i * dt)`` for ``i < size``: ``pi0`` advanced by the dense
    propagator ``P(dt)`` in doubling blocks."""
    _dt, k_lo, w = step
    n = Qa.shape[0]
    P = Qa.toarray()
    P *= 1.0 / lam
    P.flat[:: n + 1] += 1.0
    # P(dt) = sum_k w_k P^k over the weights' window.
    M = np.zeros((n, n))
    power = np.eye(n)
    k_hi = k_lo + w.size - 1
    for k in range(k_hi + 1):
        if k >= k_lo:
            M += w[k - k_lo] * power
        if k < k_hi:
            power = power @ P
    # Rows [done, done + m) are rows [0, m) advanced by P(dt)^done.
    out = np.empty((size, n))
    out[0] = pi0
    done = 1
    while done < size:
        m = min(done, size - done)
        np.matmul(out[:m], M, out=out[done : done + m])
        done += m
        if done < size:
            M = M @ M
    # Renormalize rows, as the sweep does.
    sums = out.sum(axis=1, keepdims=True)
    np.divide(out, sums, out=out, where=sums > 0)
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
    ``target`` counts once.  :func:`absorption_plan` picks the kernel:
    the stepped propagator on a uniform grid from 0 where it is cheaper,
    else the sweep of :func:`transient_distribution`.

    Returns an array aligned with ``times``.
    """
    Qa, target = _absorbed(Q, target)
    times = _as_times(times)
    lam, step = absorption_plan(Qa, times, epsilon)
    if step is None:
        dist = transient_distribution(Qa, pi0, times, epsilon)
    else:
        dist = _stepped(Qa, lam, _as_distribution(pi0, Qa.shape[0]), times.size, step)
        _latest.truncation = _stepped_truncation(lam, step, epsilon)
    return dist[:, target].sum(axis=1)


def swept_absorption_cdf(
    Q: sp.spmatrix,
    pi0: Sequence[float] | np.ndarray,
    target: Sequence[int],
    times: Sequence[float] | np.ndarray,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """:func:`absorption_cdf` on the sweep whatever the grid: the kernel
    every grid took before the stepped one, kept so revision-1 passage
    results replay bit-exactly."""
    Qa, target = _absorbed(Q, target)
    return transient_distribution(Qa, pi0, times, epsilon)[:, target].sum(axis=1)


def planned_truncation(
    Q: sp.spmatrix,
    times: Sequence[float] | np.ndarray,
    epsilon: float = 1e-12,
    targets: Sequence[int] = (),
    stepping: bool = True,
) -> dict:
    """The truncation :func:`take_truncation` reports after a solve of
    ``Q`` over ``times``, found again without solving: with ``targets``
    made absorbing, :func:`absorption_cdf`'s (the kernel
    :func:`absorption_plan` picks), or with ``stepping`` off the
    sweep's."""
    Qa = absorbing(as_csr(Q), list(targets)) if len(targets) else as_csr(Q)
    times = _as_times(times)
    if stepping:
        lam, step = absorption_plan(Qa, times, epsilon)
        if step is not None:
            return _stepped_truncation(lam, step, epsilon)
    else:
        lam = uniformization_rate(-Qa.diagonal())
    t_max = float(times.max()) if times.size else 0.0
    return {"kernel": "sweep", **truncation_diagnostics(Qa, t_max, epsilon, rate=lam)}


def _principal_csc(Q: sp.csr_matrix, keep: np.ndarray) -> sp.csc_matrix:
    """``Q[keep][:, keep]`` as CSC in one construction, with the arrays
    ``Q[trans][:, trans].tocsc()`` gives: each column lists its entries
    by ascending row, duplicates and explicit zeros kept in place."""
    new = np.cumsum(keep) - 1  # index of a kept state among the kept
    m = int(new[-1]) + 1
    row = np.repeat(np.arange(Q.shape[0]), np.diff(Q.indptr))
    sel = keep[row] & keep[Q.indices]
    col = new[Q.indices[sel]]
    order = np.argsort(col, kind="stable")  # row-major in, by column out
    indptr = np.zeros(m + 1, dtype=Q.indptr.dtype)
    np.cumsum(np.bincount(col, minlength=m), out=indptr[1:])
    return sp.csc_matrix(
        (Q.data[sel][order], new[row[sel]][order], indptr), shape=(m, m)
    )


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
    Q = as_csr(Q)
    n = Q.shape[0]
    target = np.fromiter(target, dtype=np.intp)
    keep = np.ones(n, dtype=bool)
    keep[target[(target >= 0) & (target < n)]] = False
    trans = np.flatnonzero(keep)
    if trans.size == 0:
        return 0.0
    pi0 = _as_distribution(pi0, n)
    Qtt = _principal_csc(Q, keep)
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
