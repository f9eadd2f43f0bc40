"""Parameter experimentation over PEPA models.

Replicates the PEPA Eclipse plug-in's "experimentation" feature: vary
one or more named rates over ranges, re-derive/re-solve, and tabulate a
performance measure for each parameter combination.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine import run_manifest
from repro.engine.executor import run_tasks
from repro.engine.metrics import get_registry
from repro.pepa.ctmc import CTMC, ctmc_of
from repro.pepa.statespace import derive
from repro.pepa.syntax import Model

__all__ = ["sweep", "SweepResult"]

Measure = Callable[[CTMC], float]


@dataclass(frozen=True)
class SweepResult:
    """Tabulated results of a parameter sweep.

    Attributes
    ----------
    parameters:
        Parameter names, in the order used in ``grid`` columns.
    grid:
        Array of shape ``(n_runs, n_parameters)`` of parameter values.
    values:
        Measured quantity per run, aligned with ``grid`` rows.
    meta:
        Execution metadata (``manifest``); excluded from equality and
        content hashing.
    """

    parameters: tuple[str, ...]
    grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def column(self, parameter: str) -> np.ndarray:
        """Values of one swept parameter across all runs."""
        try:
            j = self.parameters.index(parameter)
        except ValueError:
            raise KeyError(
                f"{parameter!r} was not swept; parameters: {self.parameters}"
            ) from None
        return self.grid[:, j]

    def as_rows(self) -> list[dict[str, float]]:
        """Rows as dictionaries, convenient for printing tables."""
        rows = []
        for k in range(self.grid.shape[0]):
            row = {p: float(self.grid[k, j]) for j, p in enumerate(self.parameters)}
            row["value"] = float(self.values[k])
            rows.append(row)
        return rows


def sweep(
    model: Model,
    ranges: Mapping[str, Sequence[float]],
    measure: Measure,
    max_states: int = 1_000_000,
) -> SweepResult:
    """Run ``measure`` over the Cartesian product of rate assignments.

    Parameters
    ----------
    model:
        Base model; each run overrides the swept rates via
        :meth:`Model.with_rate` (definitions not swept are untouched).
    ranges:
        Mapping of rate name to the values it takes.
    measure:
        Callable receiving the solved-ready :class:`CTMC` of each
        variant; typically wraps :func:`repro.pepa.rewards.throughput`
        or a passage-time quantile.

    Notes
    -----
    Rate changes cannot alter reachability in PEPA (rates are strictly
    positive), but the sweep re-derives per run anyway.  When the *same*
    rate assignment recurs, the registry analyses the measure runs
    (steady state, passage times) are served from the engine's
    content-addressed cache under the chain's IR digest.

    Each grid point is an independent work unit: under
    ``engine.parallel(workers=...)`` the points run on a process pool
    (values come back in grid order, so results are identical to the
    sequential path).  A ``measure`` that cannot be pickled — a lambda,
    say — silently degrades to sequential execution.
    """
    if not ranges:
        raise ValueError("sweep requires at least one parameter range")
    names = tuple(ranges.keys())
    value_lists = [list(ranges[name]) for name in names]
    for name, vals in zip(names, value_lists):
        if not vals:
            raise ValueError(f"parameter {name!r} has an empty range")
    combos = list(itertools.product(*value_lists))
    grid = np.array(combos, dtype=np.float64)
    with get_registry().timer("sweep") as gauges:
        tasks = [(model, names, combo, max_states, measure) for combo in combos]
        values = np.asarray(run_tasks(_sweep_point, tasks), dtype=np.float64)
        gauges["points"] = len(combos)
    result = SweepResult(parameters=names, grid=grid, values=values)
    # The measure callable has no stable serialization, so sweep
    # manifests document the run (ranges, chunking, environment, result
    # digest) without claiming to be re-executable from JSON alone.
    manifest = run_manifest.build_batch_manifest(
        "sweep",
        {
            "parameters": list(names),
            "ranges": {name: list(map(float, ranges[name])) for name in names},
            "max_states": max_states,
            "measure": getattr(measure, "__qualname__", repr(measure)),
        },
        result,
        model=run_manifest.current_model_context(),
        chunks={"count": len(combos)},
        replayable=False,
    )
    run_manifest.attach_manifest(result, manifest)
    return result


def _sweep_point(task) -> float:
    """Worker: solve one rate assignment and apply the measure."""
    model, names, combo, max_states, measure = task
    variant = model
    for name, value in zip(names, combo):
        variant = variant.with_rate(name, float(value))
    chain = ctmc_of(derive(variant, max_states=max_states))
    return float(measure(chain))
