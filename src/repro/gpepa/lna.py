"""Linear noise approximation (LNA) for grouped PEPA models.

GPAnalyser's headline capability beyond fluid means is *moments*:
variances and covariances of the population process.  The linear noise
approximation expands the population CTMC around its fluid limit:

    dμ/dt = F(μ)                                  (the fluid ODE)
    dΣ/dt = J(μ) Σ + Σ J(μ)ᵀ + D(μ)

where ``J`` is the Jacobian of the fluid drift ``F`` and the diffusion
matrix ``D(x) = Σ_k v_k v_kᵀ a_k(x)`` sums the outer products of the
transition change vectors weighted by their propensities.

The drift and the propensities ``a_k`` are the fluid RHS and its slot
flows (:mod:`repro.gpepa.lower`, min-cooperation included); the
Jacobian is a central finite difference, which is exact off the ``min``
switching surfaces and a one-sided approximation on them — the same
caveat GPA's piecewise analysis documents.  Validation: LNA variances
track the Gillespie ensemble (`tests/gpepa/test_lna.py`) and shrink like
``1/N`` relative to the population.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import GPepaError
from repro.gpepa.fluid import fluid_rhs
from repro.gpepa.lower import PlanPropensities
from repro.gpepa.model import GroupedModel
from repro.numerics.ode import integrate_ode

__all__ = ["lna_trajectory", "LnaTrajectory"]


@dataclass(frozen=True)
class LnaTrajectory:
    """Mean and covariance of the population process over time.

    Attributes
    ----------
    mean:
        ``(len(times), n)`` fluid means.
    covariance:
        ``(len(times), n, n)`` LNA covariance matrices.
    """

    model: GroupedModel
    times: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray

    def mean_of(self, group: str, derivative: str) -> np.ndarray:
        return self.mean[:, self.model.index_of(group, derivative)]

    def var_of(self, group: str, derivative: str) -> np.ndarray:
        i = self.model.index_of(group, derivative)
        return self.covariance[:, i, i]

    def std_of(self, group: str, derivative: str) -> np.ndarray:
        return np.sqrt(np.clip(self.var_of(group, derivative), 0.0, None))

    def covariance_of(
        self, a: tuple[str, str], b: tuple[str, str]
    ) -> np.ndarray:
        i = self.model.index_of(*a)
        j = self.model.index_of(*b)
        return self.covariance[:, i, j]


def _diffusion_scatter(slots: PlanPropensities, n: int):
    """Flat ``(n, n)`` entries, slots and signs of ``D(x)``.

    ``v vᵀ`` for ``v = e_t - e_s`` has four non-zero entries, added per
    slot in the order ``(s, s)``, ``(t, t)``, ``(s, t)``, ``(t, s)``.
    """
    s, t = slots.sources, slots.targets
    index = np.stack([s * n + s, t * n + t, s * n + t, t * n + s], axis=1)
    slot = np.repeat(np.arange(s.size), 4)
    sign = np.tile([1.0, 1.0, -1.0, -1.0], s.size)
    return index.ravel(), slot, sign


def _diffusion(a: np.ndarray, scatter, n: int) -> np.ndarray:
    """D(x) = Σ_k v_k v_kᵀ a_k(x) for unit change vectors e_tgt - e_src.

    A slot the sharing rule throttled to 0.0 adds ±0.0 to entries that
    are never -0.0, so it changes no bit.
    """
    index, slot, sign = scatter
    D = np.zeros(n * n)
    np.add.at(D, index, a[slot] * sign)
    return D.reshape(n, n)


def _jacobian(rhs, x: np.ndarray, h_scale: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the drift at x."""
    n = x.size
    J = np.empty((n, n))
    for j in range(n):
        h = h_scale * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] = max(0.0, xm[j] - h)
        denom = xp[j] - xm[j]
        J[:, j] = (rhs(0.0, xp) - rhs(0.0, xm)) / denom if denom > 0 else 0.0
    return J


def lna_trajectory(
    model: GroupedModel,
    times: Sequence[float],
    rtol: float = 1e-7,
    atol: float = 1e-9,
) -> LnaTrajectory:
    """Integrate the coupled mean/covariance ODEs of the LNA.

    The state vector packs the mean (n entries) with the covariance
    (n² entries); the covariance starts at zero (deterministic initial
    populations).
    """
    grid = np.asarray(times, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2:
        raise GPepaError("LNA needs a time grid of at least two points")
    n = model.n_states
    drift = fluid_rhs(model)
    scatter = _diffusion_scatter(drift.propensities, n)

    def packed_rhs(t: float, y: np.ndarray) -> np.ndarray:
        mu = np.clip(y[:n], 0.0, None)
        sigma = y[n:].reshape(n, n)
        a = drift.propensities(mu)
        dmu = drift.scatter(a)
        J = _jacobian(drift, mu)
        D = _diffusion(a, scatter, n)
        dsigma = J @ sigma + sigma @ J.T + D
        return np.concatenate([dmu, dsigma.ravel()])

    y0 = np.concatenate([model.initial_state(), np.zeros(n * n)])
    sol = integrate_ode(packed_rhs, y0, grid, rtol=rtol, atol=atol)
    mean = sol[:, :n]
    cov = sol[:, n:].reshape(grid.size, n, n)
    # Symmetrize against integrator round-off.
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    return LnaTrajectory(model=model, times=grid, mean=mean, covariance=cov)
