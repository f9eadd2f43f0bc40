"""Discrete-event simulation of PEPA models.

The PEPA Eclipse plug-in offers stochastic simulation alongside exact
CTMC analysis; this module keeps that API but owns no simulation loop:
the chain lowers to :class:`repro.ir.MarkovIR` and the ``ssa``
capability of the backend registry does the stepping.

* :func:`simulate` — one jump path (state index + action sequence),
  sampled on a fixed grid;
* :func:`simulate_ensemble` — streaming state-occupancy estimates whose
  mean converges to the uniformization transient solution (tested);
* :func:`empirical_throughput` — action counts per unit time along a
  path, the simulation estimate of the steady-state throughput reward.

Ensembles follow the engine's determinism contract: one
``SeedSequence(seed)`` child per realization, fixed chunk boundaries,
so the same seed reproduces bit-identically under ``engine.parallel``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import PepaError, reraise_ir_errors
from repro.ir import solve
from repro.ir.backends.ssa import MARKOV_EVENT_BUDGET
from repro.pepa.ctmc import CTMC

__all__ = ["simulate", "simulate_ensemble", "empirical_throughput", "SimulatedPath", "OccupancyEstimate"]


@dataclass(frozen=True)
class SimulatedPath:
    """One realization of the chain.

    Attributes
    ----------
    times:
        The sample grid.
    states:
        State index occupied at each grid point.
    jump_times / jump_actions:
        The full event log (useful for empirical action statistics).
    """

    chain: CTMC
    times: np.ndarray
    states: np.ndarray
    jump_times: np.ndarray
    jump_actions: tuple[str, ...]

    @property
    def n_events(self) -> int:
        return self.jump_times.size

    def action_counts(self) -> dict[str, int]:
        """Completed activities by action type along the whole path."""
        return dict(Counter(self.jump_actions))


@dataclass(frozen=True)
class OccupancyEstimate:
    """Ensemble state-occupancy probabilities on a grid."""

    chain: CTMC
    times: np.ndarray
    occupancy: np.ndarray  # (len(times), n_states)
    n_runs: int

    def probability_of(self, state: int) -> np.ndarray:
        return self.occupancy[:, state]


def simulate(
    chain: CTMC,
    times: Sequence[float],
    seed: int | np.random.Generator = 0,
    initial_state: int | None = None,
    max_events: int = MARKOV_EVENT_BUDGET,
) -> SimulatedPath:
    """Simulate one path of the chain, sampled on ``times``.

    Self-loop activities are dropped (they do not change the state and
    the CTMC generator already excludes them).
    """
    with reraise_ir_errors(PepaError):
        path = solve(
            chain.lower(),
            "ssa",
            times=times,
            seed=seed,
            initial=initial_state,
            max_events=max_events,
        )
    return SimulatedPath(
        chain=chain,
        times=path.times,
        states=path.states,
        jump_times=path.jump_times,
        jump_actions=path.jump_actions,
    )


def simulate_ensemble(
    chain: CTMC,
    times: Sequence[float],
    n_runs: int = 200,
    seed: int = 0,
    initial_state: int | None = None,
) -> OccupancyEstimate:
    """Estimate state-occupancy probabilities from ``n_runs`` paths.

    Realization ``i`` is driven by the ``i``-th ``SeedSequence(seed)``
    child (the engine-wide ensemble discipline), so the estimate is a
    pure function of ``(chain, times, n_runs, seed)`` and reproduces
    bit-identically under ``engine.parallel`` fan-out.
    """
    with reraise_ir_errors(PepaError):
        ens = solve(
            chain.lower(),
            "ssa",
            mode="ensemble",
            times=times,
            n_runs=n_runs,
            seed=seed,
            initial=initial_state,
        )
    return OccupancyEstimate(
        chain=chain, times=ens.times, occupancy=ens.mean, n_runs=n_runs
    )


def empirical_throughput(path: SimulatedPath, action: str) -> float:
    """Completed activities of ``action`` per unit time along the path.

    Converges to the steady-state throughput reward for ergodic chains
    as the horizon grows (cross-checked against the exact value in the
    tests).  Self-loop activities are not observed by the simulator, so
    models relying on self-loop rewards should use the exact engine.
    """
    horizon = float(path.times[-1] - path.times[0])
    if horizon <= 0:
        raise PepaError("throughput needs a positive simulation horizon")
    count = sum(1 for a in path.jump_actions if a == action)
    return count / horizon
