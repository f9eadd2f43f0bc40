"""Numerical back-ends shared by the PEPA, Bio-PEPA and GPEPA engines.

The submodules keep a strict separation between *model* concerns (owned
by the process-algebra packages) and *matrix* concerns:

``poisson``
    Stable truncated Poisson weight computation (Fox–Glynn style) used
    by uniformization.
``steady``
    Steady-state distribution of an irreducible CTMC from its sparse
    generator: direct sparse LU, GMRES, and power iteration on the
    uniformized DTMC.
``transient``
    Transient distributions and absorption probabilities via
    uniformization (vectorized over a whole time grid, or for passage
    CDFs on a uniform grid, one propagator stepped across it).
``dtmc``
    Uniformization of a CTMC into a discrete-time chain.
``generator``
    Generator assembly, structural measurement, absorption and the
    off-diagonal rate matrix.
``hypoexp``
    Closed-form hypoexponential (sum of exponentials) distributions,
    used as an analytic cross-check for the passage-time engine.
``ode``
    Fixed-grid ODE integration helpers (SciPy ``solve_ivp`` wrapper and
    a self-contained RK4 fallback).
``quantile``
    The shared generalized-inverse quantile of a sampled CDF, used by
    every result type carrying a ``(times, cdf)`` curve.
"""

from repro.numerics.steady import steady_state, SteadyStateResult
from repro.numerics.transient import (
    transient_distribution,
    absorption_cdf,
    expected_hitting_time,
)
from repro.numerics.poisson import poisson_weights
from repro.numerics.hypoexp import hypoexp_cdf, hypoexp_mean, hypoexp_var
from repro.numerics.dtmc import uniformized_dtmc
from repro.numerics.ode import integrate_ode, rk4_fixed_step
from repro.numerics.quantile import cdf_quantile

__all__ = [
    "steady_state",
    "SteadyStateResult",
    "transient_distribution",
    "absorption_cdf",
    "expected_hitting_time",
    "poisson_weights",
    "hypoexp_cdf",
    "hypoexp_mean",
    "hypoexp_var",
    "uniformized_dtmc",
    "integrate_ode",
    "rk4_fixed_step",
    "cdf_quantile",
]
