"""Stochastic simulation of grouped PEPA models.

GPAnalyser offers stochastic simulation alongside fluid analysis; the
population process of a grouped model is a CTMC whose transition
propensities are exactly the fluid flow terms evaluated at integer
counts (min-cooperation shares included).  The model lowers to
:class:`repro.ir.ReactionIR` (:mod:`repro.gpepa.lower`) and the shared
``ssa`` backend does the stepping, giving:

* single trajectories (:func:`gssa_trajectory`) — jump paths of the
  population process;
* ensembles (:func:`gssa_ensemble`) — streaming mean/variance, the
  stochastic counterpart the fluid mean is validated against (the
  ensemble mean converges to the fluid solution as populations grow).

Ensembles follow the engine's determinism contract: one
``SeedSequence(seed)`` child per realization, fixed chunk boundaries,
bit-identical under ``engine.parallel`` fan-out; ``var`` is the
unbiased sample variance (``ddof=1``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GPepaError, reraise_ir_errors
from repro.gpepa.lower import lower_reactions
from repro.gpepa.model import GroupedModel
from repro.ir import solve
from repro.ir.backends.ssa import REACTION_EVENT_BUDGET

__all__ = ["gssa_trajectory", "gssa_ensemble", "GssaTrajectory", "GssaEnsemble"]


@dataclass(frozen=True)
class GssaTrajectory:
    """One realization of the population jump process on a fixed grid."""

    model: GroupedModel
    times: np.ndarray
    counts: np.ndarray
    n_events: int

    def of(self, group: str, derivative: str) -> np.ndarray:
        return self.counts[:, self.model.index_of(group, derivative)]


@dataclass(frozen=True)
class GssaEnsemble:
    """Streaming mean/variance over many realizations."""

    model: GroupedModel
    times: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_runs: int
    meta: dict = field(default_factory=dict, compare=False)

    def mean_of(self, group: str, derivative: str) -> np.ndarray:
        return self.mean[:, self.model.index_of(group, derivative)]

    def var_of(self, group: str, derivative: str) -> np.ndarray:
        return self.var[:, self.model.index_of(group, derivative)]


def gssa_trajectory(
    model: GroupedModel,
    times: Sequence[float],
    seed: int | np.random.Generator = 0,
    max_events: int = REACTION_EVENT_BUDGET,
) -> GssaTrajectory:
    """Simulate one jump path of the grouped population process.

    Requires integer initial counts (the jump process lives on the
    lattice); raises :class:`repro.errors.GPepaError` otherwise.
    """
    with reraise_ir_errors(GPepaError):
        traj = solve(
            lower_reactions(model),
            "ssa",
            times=times,
            seed=seed,
            max_events=max_events,
        )
    return GssaTrajectory(
        model=model, times=traj.times, counts=traj.counts, n_events=traj.n_events
    )


def gssa_ensemble(
    model: GroupedModel,
    times: Sequence[float],
    n_runs: int = 100,
    seed: int = 0,
) -> GssaEnsemble:
    """Streaming mean/variance over ``n_runs`` independent realizations.

    Realization ``i`` is driven by the ``i``-th ``SeedSequence(seed)``
    child, so the result is a pure function of ``(model, times, n_runs,
    seed)`` and reproduces bit-identically under ``engine.parallel``.
    """
    with reraise_ir_errors(GPepaError):
        ens = solve(
            lower_reactions(model),
            "ssa",
            mode="ensemble",
            times=times,
            n_runs=n_runs,
            seed=seed,
        )
    return GssaEnsemble(
        model=model,
        times=ens.times,
        mean=ens.mean,
        var=ens.var,
        n_runs=n_runs,
        meta=dict(ens.meta),
    )
