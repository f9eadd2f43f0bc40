"""Reward evaluation over fluid trajectories.

GPAnalyser's analyses attach rewards to populations and action rates:
the client/server scalability example rewards servers for satisfying
requests, the power-consumption example weighs server states by wattage.
Both reduce to linear functionals over the fluid state plus action-rate
series, provided here.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.gpepa.fluid import FluidTrajectory
from repro.gpepa.lower import _plan_rate, action_plan

__all__ = ["action_throughput_series", "reward_series", "integrated_reward"]


def action_throughput_series(traj: FluidTrajectory, action: str) -> np.ndarray:
    """Global fluid rate of ``action`` at every time point of ``traj``.

    This is the fluid analogue of steady-state throughput: completed
    activities of the action per time unit.
    """
    plan = action_plan(traj.model, action)
    return np.array([_plan_rate(plan, x) for x in traj.counts])


def reward_series(
    traj: FluidTrajectory, weights: Mapping[tuple[str, str], float]
) -> np.ndarray:
    """Linear state reward over time: ``sum w[(group, deriv)] * count``.

    Unknown keys raise immediately (catching typos in derivative labels
    beats silently contributing zero).
    """
    w = np.zeros(traj.model.n_states)
    for key, weight in weights.items():
        group, deriv = key
        w[traj.model.index_of(group, deriv)] = weight
    return traj.counts @ w


def integrated_reward(
    traj: FluidTrajectory, weights: Mapping[tuple[str, str], float]
) -> float:
    """Time integral of a linear state reward along the trajectory
    (trapezoidal rule on the trajectory grid)."""
    series = reward_series(traj, weights)
    return float(np.trapezoid(series, traj.times))
