"""CTMC solver backends: steady-state, transient, and passage time.

Thin adapters from :class:`~repro.ir.markov.MarkovIR` onto the shared
numerics.  All three capabilities cache at the registry level under
``ir.steady`` / ``ir.transient`` / ``ir.passage``; the numerics below
cache nothing.  The steady backends are the PEPA workbench's three
solvers: ``sparse`` (LU), ``gmres`` and ``uniformization`` (power
method).  A default steady request runs ``uniformization`` under a
budget of one mat-vec per state and falls back to ``sparse`` when the
budget runs out, which is the normal route for small chains.  Only
``sparse`` holds a sparse LU, so only LU-served results carry a
condition estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from repro.errors import BackendError
from repro.ir import guards
from repro.ir.guards import DENSE_STATE_LIMIT
from repro.ir.markov import MarkovIR
from repro.ir.registry import register_backend, register_fallback_chain
from repro.numerics.quantile import cdf_quantile
from repro.numerics.steady import check_defect, steady_state
from repro.numerics.transient import (
    absorption_cdf,
    expected_hitting_time,
    swept_absorption_cdf,
    take_truncation,
    transient_distribution,
)

__all__ = ["PassageSolution", "DENSE_STATE_LIMIT"]


@dataclass(frozen=True)
class PassageSolution:
    """A sampled first-passage CDF with its exact mean.

    Attributes
    ----------
    times:
        The evaluation grid.
    cdf:
        ``cdf[i] = P(T <= times[i])``; monotone non-decreasing in [0, 1].
    mean:
        Exact mean first-passage time (from the linear hitting-time
        system, not from the sampled curve).
    meta:
        Execution metadata (``cache`` status, ``backend``,
        ``diagnostics``, the solve manifest; frontends add their own).
    """

    times: np.ndarray
    cdf: np.ndarray
    mean: float
    meta: dict = field(default_factory=dict, compare=False)

    def quantile(self, q: float) -> float:
        """Earliest time the sampled CDF reaches level ``q`` (linear
        interpolation between bracketing grid points); see
        :func:`repro.numerics.cdf_quantile`."""
        return cdf_quantile(self.times, self.cdf, q)


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

def _steady(method):
    def run(ir: MarkovIR, **params):
        # The IR's memo is the sweep the trust sentinel reads too.
        check_defect(ir.generator_defect())
        return steady_state(ir.generator, method=method, check=False, **params)

    return run


# Revision 2 of sparse and gmres: the MMD_AT_PLUS_A ordering (numerics.steady).
register_backend(
    "steady", "sparse", _steady("direct"), accepts=(MarkovIR,),
    aliases=("direct",), revision=2,
)
register_backend("steady", "gmres", _steady("gmres"), accepts=(MarkovIR,), revision=2)
# Revision 1 stops when one step moves pi by less than ``tol`` within
# ``maxiter`` steps; revision 2 stops on the tail bound within
# ``min(n, maxiter)`` mat-vecs (numerics.steady).  Replay of a
# revision-1 manifest runs revision 1.
register_backend(
    "steady", "uniformization", _steady("power"), accepts=(MarkovIR,),
    aliases=("power",),
)
register_backend(
    "steady", "uniformization", _steady("budgeted_power"), accepts=(MarkovIR,),
    default=True, revision=2,
)

# A request tries the budgeted power iteration first; a chain it cannot
# finish within its budget (every small one) goes to the sparse LU, and
# so does an iterative solve that fails to converge.
register_fallback_chain("steady", ("gmres", "uniformization", "sparse"))


# ---------------------------------------------------------------------------
# transient
# ---------------------------------------------------------------------------

def _resolve_pi0(ir: MarkovIR, pi0) -> np.ndarray:
    if pi0 is None:
        return ir.initial_distribution()
    return np.asarray(pi0, dtype=np.float64)


def _noting_truncation(sweep):
    """Run ``sweep`` and note the truncation it ran with, so the trust
    layer reports the sweep's own instead of searching for it again."""
    take_truncation()  # drop a record no caller took
    out = sweep()
    guards.note(**take_truncation())
    return out


def _transient_uniformization(ir: MarkovIR, *, times, pi0=None, epsilon=1e-12):
    return _noting_truncation(lambda: transient_distribution(
        ir.generator, _resolve_pi0(ir, pi0), times, epsilon
    ))


def _check_dense_limit(ir: MarkovIR) -> None:
    if ir.n_states > DENSE_STATE_LIMIT:
        raise BackendError(
            f"dense expm backends are limited to {DENSE_STATE_LIMIT} states "
            f"(got {ir.n_states}); use uniformization"
        )


def _transient_expm(ir: MarkovIR, *, times, pi0=None, epsilon=1e-12):
    _check_dense_limit(ir)
    p0 = _resolve_pi0(ir, pi0)
    Q = ir.generator.toarray()
    times = np.asarray(times, dtype=np.float64)
    out = np.empty((times.size, ir.n_states))
    for i, t in enumerate(times):
        out[i] = p0 @ scipy.linalg.expm(Q * t)
    return out


register_backend(
    "transient",
    "uniformization",
    _transient_uniformization,
    accepts=(MarkovIR,),
    default=True,
)
register_backend("transient", "expm", _transient_expm, accepts=(MarkovIR,))


# ---------------------------------------------------------------------------
# passage
# ---------------------------------------------------------------------------

def _finish_passage(ir, pi0, targets, times, cdf) -> PassageSolution:
    cdf = np.clip(cdf, 0.0, 1.0)
    # Enforce monotonicity against truncation-level round-off.
    cdf = np.maximum.accumulate(cdf)
    mean = expected_hitting_time(ir.generator, pi0, targets)
    return PassageSolution(times=times, cdf=cdf, mean=mean)


def _passage_targets(ir: MarkovIR, targets) -> list[int]:
    # Unique, in order: a repeated target would count its mass twice.
    targets = list(dict.fromkeys(int(s) for s in targets))
    if not targets:
        raise BackendError("passage-time target set is empty")
    return targets


def _passage_by(kernel, ir: MarkovIR, targets, times, pi0, epsilon):
    targets = _passage_targets(ir, targets)
    p0 = _resolve_pi0(ir, pi0)
    times = np.asarray(times, dtype=np.float64)
    cdf = _noting_truncation(
        lambda: kernel(ir.generator, p0, targets, times, epsilon)
    )
    return _finish_passage(ir, p0, targets, times, cdf)


def _passage_swept(ir: MarkovIR, *, targets, times, pi0=None, epsilon=1e-12):
    return _passage_by(swept_absorption_cdf, ir, targets, times, pi0, epsilon)


def _passage_uniformization(ir: MarkovIR, *, targets, times, pi0=None,
                            epsilon=1e-12):
    return _passage_by(absorption_cdf, ir, targets, times, pi0, epsilon)


def _passage_expm(ir: MarkovIR, *, targets, times, pi0=None, epsilon=1e-12):
    _check_dense_limit(ir)
    targets = _passage_targets(ir, targets)
    p0 = _resolve_pi0(ir, pi0)
    times = np.asarray(times, dtype=np.float64)
    Q = ir.generator.toarray()
    Q[targets, :] = 0.0
    cdf = np.empty(times.size)
    for i, t in enumerate(times):
        dist = p0 @ scipy.linalg.expm(Q * t)
        cdf[i] = dist[targets].sum()
    return _finish_passage(ir, p0, targets, times, cdf)


# Revision 1 sweeps every grid; revision 2 steps one propagator across
# a uniform grid where that is cheaper (numerics.transient).  Replay of
# a revision-1 manifest runs revision 1.
register_backend("passage", "uniformization", _passage_swept, accepts=(MarkovIR,))
register_backend(
    "passage",
    "uniformization",
    _passage_uniformization,
    accepts=(MarkovIR,),
    default=True,
    revision=2,
)
register_backend(
    "passage", "expm", _passage_expm, accepts=(MarkovIR,), aliases=("dense",)
)

# The dense expm backends bail out to uniformization, whose adaptive
# truncation handles stiff generators the matrix exponential cannot.
register_fallback_chain("transient", ("expm", "uniformization"))
register_fallback_chain("passage", ("expm", "uniformization"))
