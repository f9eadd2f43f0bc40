"""Truncated Poisson weights for uniformization.

Uniformization expresses the matrix exponential of a CTMC generator as a
Poisson-weighted sum of powers of the uniformized DTMC.  The weights
``w_k = e^{-m} m^k / k!`` underflow badly for large ``m`` when computed
naively, so we follow the standard Fox–Glynn approach of working in log
space and truncating both tails once the retained mass reaches the
requested accuracy.

:func:`poisson_weight_rows` builds a whole time grid's rows in one
vectorised pass over a shared, lazily grown ``log(k!)`` table, bit-for-bit
the scalar formula; :func:`poisson_weights` is its one-row case.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["poisson_weights", "poisson_weight_rows", "poisson_truncation_point"]

_LOG_FACTORIALS = np.empty(0)


def _log_factorials(k: int) -> np.ndarray:
    """``log(j!)`` for at least ``j = 0..k``.  Growth swaps in a longer
    copy, so an array a caller (or another thread) holds never changes."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size <= k:
        grown = [_log_factorial(j) for j in range(table.size, max(k + 1, 2 * table.size))]
        table = _LOG_FACTORIALS = np.concatenate((table, grown))
    return table


def _log_factorial(k: int, grow: bool = False) -> float:
    """``log(k!)`` as ``math.lgamma(k + 1)``.  Past the table's end only
    ``grow`` (a caller building ``O(k)`` weights anyway) extends it, so a
    scalar search on a long horizon leaves no ``O(k)`` table behind."""
    if k < _LOG_FACTORIALS.size or grow:
        return _log_factorials(k).item(k)
    return math.lgamma(k + 1)


def poisson_truncation_point(m: float, epsilon: float = 1e-12) -> int:
    """Smallest ``K`` such that the Poisson(``m``) mass above ``K`` is below
    ``epsilon``.

    Uses the normal tail bound ``K ~ m + c*sqrt(m)`` as a starting guess
    and then walks outward on the exact log-pmf, which is cheap and
    avoids the piecewise constants of the original Fox–Glynn paper.
    """
    return _truncation_point(m, epsilon, grow=False)


def _truncation_point(m: float, epsilon: float, grow: bool) -> int:
    if not 0.0 <= m < math.inf:
        raise ValueError(f"Poisson rate must be finite and non-negative, got {m}")
    if m == 0.0:
        return 0
    log_eps = math.log(epsilon)
    log_m = math.log(m)

    def below_epsilon(k: int) -> bool:
        # Tail bound  pmf(k) * (k+1)/(k+1-m): for k+1 > m the Poisson
        # tail is bounded by a geometric series with ratio m/(k+1).
        ratio = m / (k + 1)
        if ratio >= 1.0:
            return False
        log_pmf = k * log_m - m - _log_factorial(k, grow)
        return log_pmf + math.log(1.0 / (1.0 - ratio)) < log_eps

    k = int(m + 8.0 * math.sqrt(m) + 10.0)
    # Walk forward until the tail bound drops below epsilon...
    while not below_epsilon(k):
        k += max(1, int(0.05 * k))
    # ...then bisect back to the smallest satisfying K.  The bound is
    # monotone decreasing for k >= m, and at k = floor(m) the tail is
    # ~0.5, so [floor(m), k] brackets the threshold; the old forward
    # walk alone returned up to 5% above the minimum (and the starting
    # guess often oversatisfies epsilon outright).
    lo = int(m)
    while k - lo > 1:
        mid = (k + lo) // 2
        if below_epsilon(mid):
            k = mid
        else:
            lo = mid
    # For very loose epsilon even floor(m) can satisfy the bound; the
    # bisection bracket assumed it does not, so finish with an exact
    # walk-down (a no-op for the tight epsilons uniformization uses).
    while k > 0 and below_epsilon(k - 1):
        k -= 1
    return k


def _poisson_window(m: float, epsilon: float) -> tuple[int, int]:
    """``(k_lo, k_hi)``: the ``k`` range Poisson(``m``) weights keep."""
    # The weights span ``0..k_hi``, so the table may grow to cover it.
    k_hi = _truncation_point(m, epsilon / 2.0, grow=True)
    if m <= 25.0:
        return 0, k_hi
    k_lo = max(0, int(m - 8.0 * math.sqrt(m) - 10.0))
    # Walk the lower truncation point down until the lower tail is
    # small enough (lower tail bounded by pmf(k) * (k+1)/(m) geometric).
    while k_lo > 0:
        log_pmf = k_lo * math.log(m) - m - _log_factorial(k_lo)
        ratio = k_lo / m
        log_tail = log_pmf + math.log(1.0 / (1.0 - ratio)) if ratio < 1 else 0.0
        if log_tail < math.log(epsilon / 2.0):
            break
        k_lo = max(0, k_lo - max(1, int(0.05 * k_lo)))
    return k_lo, k_hi


def poisson_weight_rows(ms: np.ndarray, epsilon: float = 1e-12) -> tuple[np.ndarray, ...]:
    """``(k_lo, k_hi, W)``: row ``i`` of ``W`` holds Poisson(``ms[i]``)
    weights for ``k = 0..max(k_hi)``, renormalized over the window
    ``k_lo[i]..k_hi[i]`` and zero outside it."""
    ms = np.asarray(ms, dtype=np.float64)
    k_lo, k_hi = np.array([_poisson_window(float(m), epsilon) for m in ms], dtype=np.intp).T
    k_max = int(k_hi.max())
    ks = np.arange(k_max + 1)
    # ``math.log`` as the scalar formula has it; a zero rate's row is [1.0].
    log_m = np.array([math.log(m) if m > 0.0 else 0.0 for m in ms])
    W = ks * log_m[:, None]
    W -= ms[:, None]
    W -= _log_factorials(k_max)[: k_max + 1]
    W[(ks < k_lo[:, None]) | (ks > k_hi[:, None])] = -np.inf
    # Shift by each row's max before exponentiating for numerical headroom.
    W -= W.max(axis=1, keepdims=True)
    np.exp(W, out=W)
    for row, lo, hi in zip(W, k_lo, k_hi):
        # Sum the exact window: pairwise rounding depends on its length.
        row[lo : hi + 1] /= row[lo : hi + 1].sum()
    return k_lo, k_hi, W


def poisson_weights(m: float, epsilon: float = 1e-12) -> tuple[int, np.ndarray]:
    """Return ``(k_lo, w)`` with ``w[i] ~= Poisson(m).pmf(k_lo + i)``.

    The weights cover at least ``1 - epsilon`` of the distribution's
    mass and are renormalized to sum to exactly 1 so that downstream
    uniformization preserves probability mass.

    Parameters
    ----------
    m:
        Poisson rate (``lambda * t`` in uniformization), finite, >= 0.
    epsilon:
        Maximum probability mass allowed to be truncated away (before
        renormalization).
    """
    (k_lo,), (k_hi,), W = poisson_weight_rows([m], epsilon)
    return int(k_lo), W[0, k_lo : k_hi + 1]
