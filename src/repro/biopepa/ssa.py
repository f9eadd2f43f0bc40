"""Gillespie stochastic simulation (SSA) of Bio-PEPA models.

The discrete-stochastic interpretation: species are integer molecule
counts; each reaction fires with propensity given by its kinetic law at
the current counts.  The simulation loop lives in the shared backend
(:mod:`repro.ir.backends.ssa`) — this module only lowers the model
(:func:`repro.biopepa.lower.lower_reactions`) and rewraps the results
in Bio-PEPA's own result types.

Ensembles draw one independent child seed per realization from a single
``numpy.random.SeedSequence`` (the engine's deterministic-seeding
contract), so the statistics depend only on ``(model, times, n_runs,
seed)`` — never on how the runs are scheduled.  Under
``engine.parallel(workers=...)`` the realizations are fanned out over a
process pool in fixed chunks and reduced in chunk order, making the
parallel mean/variance bit-identical to the sequential ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.biopepa.lower import lower_reactions
from repro.biopepa.model import BioModel
from repro.errors import BioPepaError, reraise_ir_errors
from repro.ir import solve
from repro.ir.backends.ssa import REACTION_EVENT_BUDGET

__all__ = ["ssa_trajectory", "ssa_ensemble", "SsaTrajectory", "SsaEnsemble"]


@dataclass(frozen=True)
class SsaTrajectory:
    """One SSA realization sampled on a fixed grid.

    ``counts[k, i]`` is the molecule count of species ``i`` at
    ``times[k]`` (piecewise-constant interpolation of the jump process).
    """

    model: BioModel
    times: np.ndarray
    counts: np.ndarray
    n_events: int

    def of(self, species: str) -> np.ndarray:
        return self.counts[:, self.model.species_index(species)]


@dataclass(frozen=True)
class SsaEnsemble:
    """Mean/variance over many SSA realizations on a shared grid.

    ``var`` is the *sample* variance (``ddof=1``) — the unbiased
    estimator of the ensemble variance, matching
    ``np.var(stacked_counts, axis=0, ddof=1)`` over the realizations.
    """

    model: BioModel
    times: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_runs: int
    meta: dict = field(default_factory=dict, compare=False)

    def mean_of(self, species: str) -> np.ndarray:
        return self.mean[:, self.model.species_index(species)]

    def var_of(self, species: str) -> np.ndarray:
        return self.var[:, self.model.species_index(species)]


def ssa_trajectory(
    model: BioModel,
    times: Sequence[float],
    seed: int | np.random.Generator = 0,
    max_events: int = REACTION_EVENT_BUDGET,
) -> SsaTrajectory:
    """Simulate one realization of the jump process on a time grid.

    Parameters
    ----------
    times:
        Strictly increasing sample grid starting at the initial time.
    seed:
        Integer seed or an existing :class:`numpy.random.Generator`.
    max_events:
        Guard against runaway models (propensities that never die out).
    """
    with reraise_ir_errors(BioPepaError):
        traj = solve(
            lower_reactions(model),
            "ssa",
            times=times,
            seed=seed,
            max_events=max_events,
        )
    return SsaTrajectory(
        model=model, times=traj.times, counts=traj.counts, n_events=traj.n_events
    )


def ssa_ensemble(
    model: BioModel,
    times: Sequence[float],
    n_runs: int = 100,
    seed: int = 0,
    method: str = "direct",
) -> SsaEnsemble:
    """Mean and sample variance over ``n_runs`` independent realizations.

    Realization ``i`` is driven by the ``i``-th child of
    ``SeedSequence(seed)``, so the result is a pure function of
    ``(model, times, n_runs, seed)``.  Runs are processed in fixed
    chunks whose Welford partials are merged in chunk order (memory is
    bounded by one task's grids regardless of ensemble size); under
    ``engine.parallel(workers=...)`` the chunks execute on a process
    pool and the result is bit-identical to the sequential one.

    ``var`` uses the unbiased ``ddof=1`` normalization ``m2 / (n_runs -
    1)``; dividing by ``n_runs`` would be the biased population-variance
    estimator.

    ``method`` selects the ``ssa`` backend: ``"direct"`` (Gillespie,
    the default) or ``"next-reaction"`` (Anderson's modified
    next-reaction method; statistically equivalent, different RNG
    stream).  ``direct`` advances the runs together on the vectorized
    batched kernel, bit-identical to the scalar stepper it falls back
    to for laws the kernel cannot evaluate exactly;
    ``meta["kernel"]`` records which one ran.
    """
    with reraise_ir_errors(BioPepaError):
        ens = solve(
            lower_reactions(model),
            "ssa",
            backend=method,
            mode="ensemble",
            times=times,
            n_runs=n_runs,
            seed=seed,
        )
    return SsaEnsemble(
        model=model,
        times=ens.times,
        mean=ens.mean,
        var=ens.var,
        n_runs=n_runs,
        meta=dict(ens.meta),
    )
