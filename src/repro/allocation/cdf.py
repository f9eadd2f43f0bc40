"""Finishing-time distributions of mapped machines (paper Figs. 3 and 4).

The finishing time of a machine is the first-passage time of its PEPA
model from the initial state into the ``Done`` state, computed by the
uniformization-based passage engine.

Machines are statistically independent, so :func:`makespan_cdf` fans
the per-machine solves out through the execution engine — run it under
``engine.parallel(workers=...)`` to use a process pool — and repeated
calls with identical arguments are served from the engine's
content-addressed cache.  A single machine's curve is not cached as
such: its passage solve is, by the IR registry under the digest of the
machine's chain, so it is reused under any mapping that gives the
machine the same applications.  With the cache's disk layer on
(``$REPRO_CACHE_DIR``), each finished machine is also a checkpoint
entry, so an interrupted makespan resumes from the machines it solved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.allocation.machines import DONE_STATE, MACHINE_LEAF, build_machine_model
from repro.allocation.mapping import Mapping
from repro.allocation.workload import Workload
from repro.engine import run_manifest
from repro.engine.cache import cached
from repro.engine.executor import run_tasks
from repro.engine.metrics import get_registry
from repro.ir.registry import get_backend, pinned_revision
from repro.numerics.quantile import cdf_quantile
from repro.pepa.ctmc import ctmc_of
from repro.pepa.passage import passage_time_cdf, passage_time_mean
from repro.pepa.statespace import derive

__all__ = [
    "FinishingTime",
    "finishing_time_cdf",
    "finishing_time_mean",
    "makespan_cdf",
]


@dataclass(frozen=True)
class FinishingTime:
    """Finishing-time distribution of one machine under one mapping.

    Attributes
    ----------
    mapping_name / machine:
        Which Table I row/column this curve belongs to.
    times / cdf:
        The sampled CDF ``P(finish <= t)``.
    mean:
        Exact mean finishing time (for :func:`makespan_cdf` the
        numerical ``integral of (1 - F)`` over the supplied grid).
    n_states:
        Size of the derived state space (small: 2 availability states
        per machine stage).
    meta:
        Execution metadata: the ``cache`` status of the producing call
        (for :func:`finishing_time_cdf`, of its ``ir.passage`` solve).
    """

    mapping_name: str
    machine: str
    times: np.ndarray
    cdf: np.ndarray
    mean: float
    n_states: int
    meta: dict = field(default_factory=dict, compare=False)

    def quantile(self, q: float) -> float:
        """Grid-interpolated quantile of the finishing time; see
        :func:`repro.numerics.cdf_quantile`."""
        return cdf_quantile(self.times, self.cdf, q)


def finishing_time_mean(mapping: Mapping, machine: str, workload: Workload) -> float:
    """Exact mean finishing time of ``machine`` under ``mapping``."""
    model = build_machine_model(mapping, machine, workload, absorbing=True)
    chain = ctmc_of(derive(model))
    return passage_time_mean(chain, (MACHINE_LEAF, DONE_STATE))


def finishing_time_cdf(
    mapping: Mapping,
    machine: str,
    workload: Workload,
    times: np.ndarray | None = None,
    horizon_means: float = 4.0,
    grid_points: int = 200,
    method: str = "uniformization",
) -> FinishingTime:
    """Finishing-time CDF of ``machine`` under ``mapping``.

    Parameters
    ----------
    times:
        Explicit evaluation grid; when omitted, a uniform grid over
        ``[0, horizon_means * mean]`` with ``grid_points`` samples is
        used (matching the paper's plots, which span a few means).
    method:
        Passage backend, forwarded to
        :func:`repro.pepa.passage.passage_time_cdf` —
        ``"uniformization"`` (default) or ``"expm"``.
    """
    with get_registry().timer("finishing_time_cdf"):
        model = build_machine_model(mapping, machine, workload, absorbing=True)
        chain = ctmc_of(derive(model))
        target = (MACHINE_LEAF, DONE_STATE)
        if times is None:
            # The passage solution carries the exact mean; solve for it
            # separately only when it has to set the grid first.
            mean = passage_time_mean(chain, target)
            times = np.linspace(0.0, horizon_means * mean, grid_points)
        result = passage_time_cdf(chain, target, times, method=method)
    return FinishingTime(
        mapping_name=mapping.name,
        machine=machine,
        times=result.times,
        cdf=result.cdf,
        mean=result.mean,
        n_states=chain.n_states,
        meta={"cache": result.meta["cache"]},
    )


def _machine_cdf_task(task) -> np.ndarray:
    """Worker: one machine's finishing-time CDF on a shared grid, on the
    passage revision the parent runs (a worker process pins it again)."""
    mapping, machine, workload, times, method, revision = task
    with pinned_revision("passage", method, revision):
        return finishing_time_cdf(mapping, machine, workload, times=times, method=method).cdf


def makespan_cdf(
    mapping: Mapping,
    workload: Workload,
    times: np.ndarray,
    tail_tol: float = 1e-2,
    method: str = "uniformization",
) -> FinishingTime:
    """CDF of the mapping's overall makespan.

    Machines run independently (each has its own availability
    component), so the makespan — the time the *last* machine finishes —
    has CDF equal to the product of the per-machine finishing-time CDFs::

        F_makespan(t) = prod_M F_M(t)

    The per-machine solves are independent work units: under
    ``engine.parallel(workers=...)`` they run on a process pool, with
    results reduced in the fixed machine order so the product is
    bit-identical to the sequential one.

    The mean is recovered numerically as ``integral of (1 - F)`` over
    the grid.  When the supplied grid ends before the CDF reaches
    ``1 - tail_tol``, the integral silently truncates the upper tail, so
    a ``UserWarning`` flags the underestimated mean — supply a horizon
    where the CDF effectively reaches 1 (the per-machine means via
    :func:`finishing_time_mean` guide the choice).
    """
    times = np.asarray(times, dtype=np.float64)
    # The passage revision keys the result, its checkpoints and its
    # tasks; revision-1 keys predate revisions.
    revision = get_backend("passage", method).revision
    key = (mapping, workload, times, method) + ((revision,) if revision != 1 else ())
    with get_registry().timer("makespan_cdf") as gauges:
        result, status = cached(
            "makespan_cdf", key, lambda: _compute_makespan(key, revision)
        )
        gauges["grid_points"] = times.size
    result.meta["cache"] = status
    from repro.allocation.mapping import MACHINES

    manifest = run_manifest.build_batch_manifest(
        "makespan_cdf",
        {"times": times, "tail_tol": tail_tol, "method": method},
        result,
        model={
            "mapping": run_manifest.dataclass_descriptor(mapping),
            "workload": run_manifest.dataclass_descriptor(workload),
        },
        chunks={
            "count": sum(1 for m in MACHINES if mapping.applications_on(m)),
            "unit": "machine",
        },
        # Absent means revision 1, so older manifests keep their identity.
        backend={"revision": revision} if revision != 1 else None,
    )
    run_manifest.attach_manifest(result, manifest)
    if result.cdf.size and result.cdf[-1] < 1.0 - tail_tol:
        warnings.warn(
            f"makespan CDF reaches only {result.cdf[-1]:.4f} at the grid horizon "
            f"t={times[-1]:.4g}; the trapezoid mean integral of (1 - F) truncates "
            "the upper tail and underestimates the true mean — extend the grid",
            UserWarning,
            stacklevel=2,
        )
    return result


def _compute_makespan(key: tuple, revision: int) -> FinishingTime:
    from repro.allocation.mapping import MACHINES

    mapping, workload, times, method = key[:4]
    machines = [m for m in MACHINES if mapping.applications_on(m)]
    # With a disk cache layer, an interrupted sweep resumes its
    # per-machine solves from their checkpoint entries.
    per_machine = run_tasks(
        _machine_cdf_task,
        [(mapping, machine, workload, times, method, revision) for machine in machines],
        checkpoint=("makespan",) + key,
    )
    cdf = np.ones_like(times)
    for machine_cdf in per_machine:  # fixed MACHINES order: deterministic product
        cdf = cdf * machine_cdf
    mean = float(np.trapezoid(1.0 - cdf, times))
    return FinishingTime(
        mapping_name=mapping.name,
        machine="makespan",
        times=times,
        cdf=cdf,
        mean=mean,
        n_states=0,
    )
