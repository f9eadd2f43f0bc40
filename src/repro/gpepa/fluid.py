"""Fluid (mean-field) translation of grouped PEPA models.

The Hayden–Bradley fluid semantics: component counts become continuous
variables, every action's *global* rate is computed on the composition
tree —

* at a group: the sum over enabled local transitions of
  ``count(source) * local_rate``,
* at a cooperation on a shared action: the **minimum** of the two
  subtrees' rates,
* at a cooperation on an unshared action: the **sum**,

and each local transition receives a share of the global rate
proportional to its contribution within its subtree (normalized-min
sharing).  The resulting ODE system conserves each group's population
exactly.

The compiled plans live in :mod:`repro.gpepa.lower`: one walk of the
sharing rule fills every local transition's flow into a fixed slot, and
the right-hand side scatters the slots onto their coordinates — the same
slots the stochastic simulation fires and the LNA's diffusion sums.  The
integration itself runs through the ``ode`` capability of the backend
registry.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import GPepaError, reraise_ir_errors
from repro.gpepa.lower import (
    PlanPropensities,
    PlanRhs,
    _plan_rate,
    action_plan,
    lower_reactions,
)
from repro.gpepa.model import GroupedModel
from repro.ir import solve

__all__ = ["fluid_rhs", "fluid_trajectory", "FluidTrajectory", "action_rate"]


def action_rate(model: GroupedModel, action: str, x: np.ndarray) -> float:
    """Global fluid rate of ``action`` at counts ``x`` (the fluid
    throughput; GPA's reward primitives integrate over this)."""
    return _plan_rate(action_plan(model, action), np.asarray(x, dtype=np.float64))


def fluid_rhs(model: GroupedModel):
    """Compile the fluid ODE right-hand side ``f(t, x) -> dx/dt``."""
    return PlanRhs(PlanPropensities(model), model.n_states)


@dataclass(frozen=True)
class FluidTrajectory:
    """A fluid solution: counts per (group, derivative) over time."""

    model: GroupedModel
    times: np.ndarray
    counts: np.ndarray

    def of(self, group: str, derivative: str) -> np.ndarray:
        """Time series of one population coordinate."""
        return self.counts[:, self.model.index_of(group, derivative)]

    def group_series(self, group: str) -> np.ndarray:
        """Total population of a group over time (constant up to solver
        tolerance — asserted by the conservation tests)."""
        idx = self.model.group_indices(group)
        return self.counts[:, idx].sum(axis=1)

    def final(self) -> dict[tuple[str, str], float]:
        return {
            key: float(self.counts[-1, i])
            for i, key in enumerate(self.model.state_names)
        }


def fluid_trajectory(
    model: GroupedModel,
    times: Sequence[float],
    method: str = "LSODA",
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> FluidTrajectory:
    """Integrate the fluid ODEs over ``times``.

    ``method="rk4"`` selects the deterministic fixed-step integrator
    (bit-identical output for container validation).
    """
    ir = lower_reactions(model)
    with reraise_ir_errors(GPepaError):
        if method == "rk4":
            counts = solve(ir, "ode", backend="rk4", times=times)
        else:
            counts = solve(
                ir, "ode", times=times, method=method, rtol=rtol, atol=atol
            )
    return FluidTrajectory(
        model=model, times=np.asarray(times, dtype=np.float64), counts=counts
    )
