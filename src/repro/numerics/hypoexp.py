"""Closed-form hypoexponential distributions.

A machine that executes its mapped applications one after another, each
stage exponentially distributed, has a hypoexponential finishing time.
These closed forms provide an analytic oracle for the passage-time
engine (ablation D2): the uniformization-based CDF of the sequential
machine model must agree with :func:`hypoexp_cdf` to solver tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["hypoexp_cdf", "hypoexp_mean", "hypoexp_var"]


def _check_rates(rates: Sequence[float]) -> np.ndarray:
    r = np.asarray(rates, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("rates must be a non-empty 1-D sequence")
    if (r <= 0).any():
        raise ValueError("all stage rates must be strictly positive")
    return r


def hypoexp_cdf(rates: Sequence[float], t: float | np.ndarray) -> np.ndarray:
    """CDF of a sum of independent exponentials with the given rates.

    For distinct rates the classical partial-fraction form is used::

        F(t) = 1 - sum_i  w_i * exp(-r_i t),
        w_i = prod_{j != i} r_j / (r_j - r_i)

    With (nearly) repeated rates that form is numerically explosive.
    The fallback is uniformization of the phase-type chain — *not* a
    dense ``expm``: SciPy's ``expm`` silently loses accuracy on the
    nearly-defective bidiagonal stage matrix this distribution produces
    (observed: off-diagonal 0.094 where the true value is 0.073 for two
    rates one ULP apart), while uniformization only ever adds positive
    terms and is stable for any rate multiset.
    """
    r = _check_rates(rates)
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if (t_arr < 0).any():
        raise ValueError("t must be non-negative")
    n = r.size
    # Detect near-coincident rates: the partial-fraction weights blow up
    # like 1/(r_j - r_i), so require decent separation.
    sep = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(sep, np.inf)
    if n == 1:
        out = 1.0 - np.exp(-r[0] * t_arr)
    elif sep.min() > 1e-6 * r.max():
        w = np.empty(n)
        for i in range(n):
            others = np.delete(r, i)
            w[i] = np.prod(others / (others - r[i]))
        out = 1.0 - np.exp(-np.outer(t_arr, r)) @ w
    else:
        # Phase-type chain: stage i -> stage i+1 at rate r[i]; the last
        # stage feeds the absorbing "done" state.  CDF = absorption mass.
        from repro.numerics.generator import generator_from_rates
        from repro.numerics.transient import absorption_cdf

        rows = np.arange(n)
        Q = generator_from_rates(n + 1, rows, rows + 1, r)
        pi0 = np.zeros(n + 1)
        pi0[0] = 1.0
        out = absorption_cdf(Q, pi0, [n], t_arr)
    out = np.clip(out, 0.0, 1.0)
    return out if np.ndim(t) else out[0]


def hypoexp_mean(rates: Sequence[float]) -> float:
    """Mean of the hypoexponential: sum of stage means."""
    r = _check_rates(rates)
    return float(np.sum(1.0 / r))


def hypoexp_var(rates: Sequence[float]) -> float:
    """Variance of the hypoexponential: sum of stage variances."""
    r = _check_rates(rates)
    return float(np.sum(1.0 / r**2))
