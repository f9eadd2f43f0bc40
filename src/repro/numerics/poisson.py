"""Truncated Poisson weights for uniformization.

Uniformization expresses the matrix exponential of a CTMC generator as a
Poisson-weighted sum of powers of the uniformized DTMC.  The weights
``w_k = e^{-m} m^k / k!`` underflow badly for large ``m`` when computed
naively, so we follow the standard Fox–Glynn approach of working in log
space and truncating both tails once the retained mass reaches the
requested accuracy.

Truncation points come from one search run in lockstep over an array of
rates: every rate takes exactly the steps of the per-rate scalar search
(forward walk, bisection, walk-down; for the weights' lower tail a
stepped walk-down), one array operation per step, and every comparison
against ``log(epsilon)`` sees the scalar formula's bits (``math.log``
for its logarithms, ``log(k!)`` from a shared, lazily grown table).
:func:`uniformization_weights` builds a whole time grid's rows this way,
with the sweep's own truncation point riding along as one more rate;
:func:`poisson_weight_rows` builds the rows alone, and
:func:`poisson_weights` and :func:`poisson_truncation_point` are
one-rate cases.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "poisson_weights",
    "poisson_weight_rows",
    "poisson_truncation_point",
    "uniformization_weights",
]

_LOG_FACTORIALS = np.empty(0)


def _log_factorials(k: int) -> np.ndarray:
    """``log(j!)`` for at least ``j = 0..k``.  Growth swaps in a longer
    copy, so an array a caller (or another thread) holds never changes."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size <= k:
        grown = [math.lgamma(j + 1) for j in range(table.size, max(k + 1, 2 * table.size))]
        table = _LOG_FACTORIALS = np.concatenate((table, grown))
    return table


def _log_factorials_at(k: np.ndarray, grow: bool) -> np.ndarray:
    """``log(k!)`` for every entry of ``k``, as ``math.lgamma(k + 1)``.
    Past the table's end only ``grow`` (a caller building ``O(k)``
    weights anyway) extends it, so a search on a long horizon leaves no
    ``O(k)`` table behind."""
    top = int(k.max())
    if grow or top < _LOG_FACTORIALS.size:
        return _log_factorials(top)[k]
    table = _LOG_FACTORIALS
    return np.array(
        [table.item(j) if j < table.size else math.lgamma(j + 1) for j in k.tolist()]
    )


def _rates(ms) -> np.ndarray:
    ms = np.asarray(ms, dtype=np.float64)
    bad = ~((ms >= 0.0) & (ms < math.inf))
    if bad.any():
        m = float(ms[bad][0])
        raise ValueError(f"Poisson rate must be finite and non-negative, got {m}")
    return ms


def _log_terms(x: np.ndarray, head: np.ndarray, log_eps) -> np.ndarray:
    """``head + log(x)`` with ``math.log``'s bits wherever the sum is
    within ``1e-6`` of ``log_eps``.  ``np.log`` may differ from
    ``math.log`` by a few ulps (``x < 2**53``, so ~1e-14 here), which
    moves the sum by far less than that margin unless ``|head|`` is so
    large that the sum is nowhere near ``log_eps`` anyway; outside the
    margin the comparison against ``log_eps`` is the scalar's."""
    out = head + np.log(x)
    near = np.abs(out - log_eps) < 1e-6
    if near.any():
        out[near] = head[near] + np.array(list(map(math.log, x[near].tolist())))
    return out


def _below(k, m, log_m, log_eps, grow: bool) -> np.ndarray:
    """The upper tail bound ``pmf(k) * (k+1)/(k+1-m)`` is below epsilon:
    for ``k+1 > m`` the Poisson tail is bounded by a geometric series
    with ratio ``m/(k+1)``; ``False`` where ``k+1 <= m``."""
    ratio = m / (k + 1)
    bounded = ratio < 1.0
    log_pmf = k * log_m - m - _log_factorials_at(k, grow)
    if not bounded.all():
        ratio[~bounded] = 0.0
    return bounded & (_log_terms(1.0 / (1.0 - ratio), log_pmf, log_eps) < log_eps)


def _upper_points(ms, log_m, log_eps, grow: bool) -> np.ndarray:
    """Smallest ``K`` per rate whose tail bound is below
    ``exp(log_eps)`` (one entry per rate).  Every rate takes the scalar
    search's steps; a rate that has finished a phase idles (its entry
    of ``step`` is off) until every rate has."""

    def below(k):
        return _below(k, ms, log_m, log_eps, grow)

    live = ms > 0.0
    # Walk forward from the normal-tail guess until the bound holds...
    k = (ms + 8.0 * np.sqrt(ms) + 10.0).astype(np.intp)
    step = live & ~below(k)
    while step.any():
        k += step * np.maximum(1, (0.05 * k).astype(np.intp))
        step &= ~below(k)
    # ...then bisect back to the smallest satisfying K.  The bound is
    # monotone decreasing for k >= m, and at k = floor(m) the tail is
    # ~0.5, so [floor(m), k] brackets the threshold; the forward walk
    # alone returned up to 5% above the minimum (and the starting guess
    # often oversatisfies epsilon outright).
    lo = ms.astype(np.intp)
    step = live & (k - lo > 1)
    while step.any():
        mid = (k + lo) // 2
        hit = below(mid)
        k = np.where(step & hit, mid, k)
        lo = np.where(step & ~hit, mid, lo)
        step &= k - lo > 1
    # For very loose epsilon even floor(m) can satisfy the bound; the
    # bisection bracket assumed it does not, so finish with an exact
    # walk-down (a no-op for the tight epsilons uniformization uses).
    step = live & (k > 0)
    while step.any():
        step &= below(np.maximum(k - 1, 0))
        k -= step
        step &= k > 0
    k[~live] = 0
    return k


def _lower_points(ms, log_m, log_eps: float) -> np.ndarray:
    """First ``k`` per rate the weights keep: 0 up to ``m = 25``, above
    it a stepped walk down from ``m - 8 sqrt(m) - 10`` until the lower
    tail (bounded by the geometric ``pmf(k) * m/(m-k)``) is below
    ``exp(log_eps)``."""
    k_lo = np.zeros(ms.shape, dtype=np.intp)
    rows = ms > 25.0
    m, log_m = ms[rows], log_m[rows]
    k = np.maximum(0, (m - 8.0 * np.sqrt(m) - 10.0).astype(np.intp))
    step = k > 0
    while step.any():
        ratio = k / m
        bounded = ratio < 1.0
        log_pmf = k * log_m - m - _log_factorials_at(k, False)
        ratio[~bounded] = 0.0
        log_tail = _log_terms(1.0 / (1.0 - ratio), log_pmf, log_eps)
        step &= np.where(bounded, log_tail, 0.0) >= log_eps
        k = np.where(step, np.maximum(0, k - np.maximum(1, (0.05 * k).astype(np.intp))), k)
        step &= k > 0
    k_lo[rows] = k
    return k_lo


def _log_rates(ms: np.ndarray) -> np.ndarray:
    # ``math.log`` as the scalar formula has it; a zero rate's is unused.
    return np.array([math.log(m) if m > 0.0 else 0.0 for m in ms.tolist()])


def poisson_truncation_point(m: float, epsilon: float = 1e-12) -> int:
    """Smallest ``K`` such that the Poisson(``m``) mass above ``K`` is below
    ``epsilon``.

    Uses the normal tail bound ``K ~ m + c*sqrt(m)`` as a starting guess
    and then walks outward on the exact log-pmf, which is cheap and
    avoids the piecewise constants of the original Fox–Glynn paper.
    """
    ms = _rates([m])
    log_eps = np.array([math.log(epsilon)])
    return int(_upper_points(ms, _log_rates(ms), log_eps, grow=False)[0])


def _weight_rows(ms, epsilon: float, with_k_max: bool):
    ms = _rates(ms)
    # The sweep's own truncation point rides along as one extra rate.
    rates = np.append(ms, ms.max()) if with_k_max else ms
    log_m = _log_rates(rates)
    log_eps = np.full(rates.shape, math.log(epsilon / 2.0))
    k_max = None
    if with_k_max:
        log_eps[-1] = math.log(epsilon)
    # The weights span ``0..k_hi``, so the table may grow to cover it.
    k_hi = _upper_points(rates, log_m, log_eps, grow=True)
    if with_k_max:
        k_max, k_hi, log_m = int(k_hi[-1]), k_hi[:-1], log_m[:-1]
    k_lo = _lower_points(ms, log_m, log_eps[0])
    top = int(k_hi.max())
    ks = np.arange(top + 1)
    W = ks * log_m[:, None]
    W -= ms[:, None]
    W -= _log_factorials(top)[: top + 1]
    W[(ks < k_lo[:, None]) | (ks > k_hi[:, None])] = -np.inf
    # Shift by each row's max before exponentiating for numerical headroom.
    W -= W.max(axis=1, keepdims=True)
    np.exp(W, out=W)
    # Sum each exact window (pairwise rounding depends on its length);
    # entries outside the windows are zero, so one division scales all.
    sums = [row[lo : hi + 1].sum() for row, lo, hi in zip(W, k_lo.tolist(), k_hi.tolist())]
    W /= np.array(sums)[:, None]
    return k_lo, k_hi, W, k_max


def uniformization_weights(
    ms: np.ndarray, epsilon: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(k_lo, k_hi, W, k_max)``: :func:`poisson_weight_rows`' result
    plus ``k_max = poisson_truncation_point(max(ms), epsilon)``, the last
    power a uniformization sweep over the rates ``ms`` needs — all from
    one lockstep search."""
    return _weight_rows(ms, epsilon, with_k_max=True)


def poisson_weight_rows(ms: np.ndarray, epsilon: float = 1e-12) -> tuple[np.ndarray, ...]:
    """``(k_lo, k_hi, W)``: row ``i`` of ``W`` holds Poisson(``ms[i]``)
    weights for ``k = 0..max(k_hi)``, renormalized over the window
    ``k_lo[i]..k_hi[i]`` and zero outside it."""
    return _weight_rows(ms, epsilon, with_k_max=False)[:3]


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
