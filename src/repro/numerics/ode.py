"""Fixed-grid ODE integration helpers for the fluid and Bio-PEPA engines.

Two back-ends, per ablation D5's need to separate model error from
integrator error:

* :func:`integrate_ode` — SciPy ``solve_ivp`` (adaptive LSODA/RK45)
  evaluated on a caller-supplied output grid; the production path.
* :func:`rk4_fixed_step` — a self-contained classical RK4 with a fixed
  internal step, useful as an independent cross-check and in
  environments where deterministic step sequences matter for
  reproducibility comparisons (bit-identical trajectories).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import NumericsError

__all__ = ["integrate_ode", "rk4_fixed_step"]

RHS = Callable[[float, np.ndarray], np.ndarray]


def _grid(times: Sequence[float]) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size < 2:
        raise NumericsError("time grid must contain at least two points")
    if (np.diff(t) <= 0).any():
        raise NumericsError("time grid must be strictly increasing")
    return t


def integrate_ode(
    rhs: RHS,
    y0: Sequence[float],
    times: Sequence[float],
    method: str = "LSODA",
    rtol: float = 1e-8,
    atol: float = 1e-10,
    stats: dict | None = None,
) -> np.ndarray:
    """Integrate ``dy/dt = rhs(t, y)`` and sample on ``times``.

    Returns an array of shape ``(len(times), len(y0))``; row 0 is ``y0``.
    When ``stats`` is given, the integrator's work counters (right-hand
    side / Jacobian evaluations, LU decompositions, exit status) are
    written into it — even on failure, so callers can report how much
    effort preceded the error.
    """
    # Imported here: scipy.integrate (and the scipy.optimize it pulls
    # in) is a third of the package's import time, and only ODE
    # requests need it.
    from scipy.integrate import solve_ivp

    t = _grid(times)
    y0 = np.asarray(y0, dtype=np.float64)
    sol = solve_ivp(
        rhs,
        (t[0], t[-1]),
        y0,
        method=method,
        t_eval=t,
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if stats is not None:
        stats.update(
            ode_method=method,
            ode_nfev=int(sol.nfev),
            ode_njev=int(sol.njev),
            ode_nlu=int(sol.nlu),
            ode_status=int(sol.status),
        )
    if not sol.success:
        raise NumericsError(f"ODE integration failed: {sol.message}")
    return sol.y.T.copy()


def rk4_fixed_step(
    rhs: RHS,
    y0: Sequence[float],
    times: Sequence[float],
    substeps: int = 16,
) -> np.ndarray:
    """Classical fourth-order Runge–Kutta with ``substeps`` internal steps
    between consecutive output points.

    Fully deterministic: the step sequence depends only on the grid, so
    two runs (native vs containerized) produce bit-identical output —
    the property the paper's validation methodology relies on.
    """
    if substeps < 1:
        raise NumericsError("substeps must be >= 1")
    t = _grid(times)
    y = np.asarray(y0, dtype=np.float64).copy()
    out = np.empty((t.size, y.size))
    out[0] = y
    for i in range(t.size - 1):
        h = (t[i + 1] - t[i]) / substeps
        tk = t[i]
        for _ in range(substeps):
            k1 = rhs(tk, y)
            k2 = rhs(tk + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(tk + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(tk + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tk += h
        out[i + 1] = y
    return out
