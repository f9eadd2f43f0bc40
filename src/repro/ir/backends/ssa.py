"""Stochastic simulation backends: Gillespie direct and next-reaction.

This module owns the *single* jump-process stepper the three frontends
used to reimplement (``pepa/simulation.py``, ``biopepa/ssa.py``,
``gpepa/simulation.py``).  Seeded trajectories must stay bit-identical
to the pre-IR simulators, so the RNG-consumption discipline is part of
the IR contract:

* :class:`~repro.ir.markov.MarkovIR` paths draw
  ``rng.exponential(1/total)`` then invert the per-state cumulative-rate
  table with ``searchsorted(cum, rng.random() * total)`` (PEPA's
  discipline);
* :class:`~repro.ir.reaction.ReactionIR` with ``sampler="choice"``
  draws ``rng.exponential`` then ``rng.choice`` on the normalized
  propensities (Bio-PEPA's discipline);
* ``sampler="scan"`` draws ``rng.exponential`` then linearly scans the
  positive propensities for ``rng.random() * total`` (GPEPA's
  discipline; zero-propensity reactions neither accumulate nor fire).

Ensembles follow one determinism contract for *every* frontend: one
``SeedSequence`` child per realization (:func:`spawn_seeds`), fixed
chunks of :data:`CHUNK_RUNS` runs whose Welford partials are merged in
chunk order, so ``engine.parallel`` fan-out is bit-identical to the
sequential reduction.  :func:`ensemble_moments` is the one driver that
implements it.  The ``direct`` backend hands it the vectorized kernels
of :mod:`repro.ir.backends.ssa_batched`, which reproduce these steppers
bit for bit, and runs the steppers themselves only when a kernel cannot
serve the ensemble (:class:`~repro.errors.BatchedKernelError`).  The
steppers also serve trajectories, ``next-reaction`` ensembles, and —
as ``ensemble_moments(reaction_run | occupancy_run, ...)`` — the test
oracle for the kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.engine.executor import run_tasks, spawn_seeds, welford_merge
from repro.engine.metrics import get_registry
from repro.errors import (
    BackendError,
    BatchedKernelError,
    IRError,
    SimulationLimitError,
)
from repro.ir.backends.ssa_batched import markov_occupancy_chunk, reaction_chunk
from repro.ir.markov import MarkovIR
from repro.ir.reaction import ReactionIR
from repro.ir.registry import register_backend

__all__ = [
    "CHUNK_RUNS",
    "MARKOV_EVENT_BUDGET",
    "REACTION_EVENT_BUDGET",
    "JumpPath",
    "Trajectory",
    "EnsembleMoments",
    "validate_grid",
    "as_rng",
    "markov_path",
    "reaction_trajectory",
    "reaction_trajectory_next_reaction",
    "ensemble_moments",
    "occupancy_run",
    "reaction_run",
]

#: Realizations per ensemble work unit.  Fixed — never derived from the
#: worker count — so chunk boundaries, and therefore every floating-
#: point reduction, are identical however the chunks are scheduled.
CHUNK_RUNS = 25

#: Chunks a batched kernel advances together in one task.  Its per-round
#: NumPy overhead amortizes over the batch width while the per-trajectory
#: RNG draws scale linearly, so a wider batch is nearly free throughput.
#: Scalar runners keep one chunk per task: their cost is all per run, and
#: narrow tasks balance better across workers.  Partials stay per chunk
#: either way, so the width never changes the result.
BATCH_CHUNKS = 4

#: Default event budgets of one realization: jumps of a MarkovIR path,
#: reaction firings of a ReactionIR trajectory.
MARKOV_EVENT_BUDGET = 10_000_000
REACTION_EVENT_BUDGET = 5_000_000


@dataclass(frozen=True)
class JumpPath:
    """One realization of a MarkovIR jump process on a fixed grid."""

    times: np.ndarray
    states: np.ndarray
    jump_times: np.ndarray
    jump_actions: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n_events(self) -> int:
        return self.jump_times.size


@dataclass(frozen=True)
class Trajectory:
    """One realization of a ReactionIR jump process on a fixed grid."""

    times: np.ndarray
    counts: np.ndarray
    n_events: int
    meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class EnsembleMoments:
    """Streaming mean / sample variance (``ddof=1``) over realizations."""

    times: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_runs: int
    events: int
    chunks: int
    meta: dict = field(default_factory=dict, compare=False)


def validate_grid(times) -> np.ndarray:
    """A strictly increasing, non-empty float64 sample grid."""
    grid = np.asarray(times, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise IRError("simulation needs a non-empty time grid")
    if (np.diff(grid) <= 0).any():
        raise IRError("simulation time grid must be strictly increasing")
    return grid


def as_rng(seed) -> np.random.Generator:
    """An existing generator, or a fresh one from an integer seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Direct-method steppers
# ---------------------------------------------------------------------------

def markov_path(
    ir: MarkovIR,
    grid: np.ndarray,
    rng: np.random.Generator,
    initial: int | None = None,
    max_events: int = MARKOV_EVENT_BUDGET,
) -> JumpPath:
    """One jump path of a labelled CTMC, sampled on ``grid``.

    Self-loop transitions are excluded by the IR's jump tables (they do
    not change the state, and the generator already drops them).
    """
    tables = ir.ssa_tables()
    state = ir.initial_index if initial is None else int(initial)
    if not 0 <= state < ir.n_states:
        raise IRError(f"initial state {state} out of range")
    out_states = np.empty(grid.size, dtype=np.intp)
    out_states[0] = state
    jump_times: list[float] = []
    jump_actions: list[str] = []
    t = float(grid[0])
    cursor = 1
    while cursor < grid.size:
        cum, targets, actions = tables[state]
        if cum.size == 0 or cum[-1] <= 0.0:
            out_states[cursor:] = state  # absorbed
            break
        t += rng.exponential(1.0 / cum[-1])
        while cursor < grid.size and grid[cursor] <= t:
            out_states[cursor] = state
            cursor += 1
        if cursor >= grid.size:
            break
        # Budget check *before* the jump is drawn: a path that reaches
        # the horizon with exactly ``max_events`` jumps is admitted, the
        # (max_events+1)-th jump is refused before it consumes RNG draws
        # or is recorded — the same pre-fire semantics as the reaction
        # steppers.
        if len(jump_times) >= max_events:
            raise SimulationLimitError(
                f"simulation exceeded {max_events} events",
                budget=max_events, events=len(jump_times),
            )
        k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        k = min(k, targets.size - 1)
        jump_times.append(t)
        jump_actions.append(actions[k])
        state = int(targets[k])
    return JumpPath(
        times=grid,
        states=out_states,
        jump_times=np.asarray(jump_times),
        jump_actions=tuple(jump_actions),
    )


def _select_choice(rng: np.random.Generator, props: np.ndarray, total: float) -> int:
    return int(rng.choice(props.size, p=props / total))


def _select_scan(rng: np.random.Generator, props: np.ndarray, total: float) -> int:
    u = rng.random() * total
    acc = 0.0
    chosen = last_positive = None
    for k in range(props.size):
        a = float(props[k])
        if a <= 0.0:
            # Zero-propensity slots neither accumulate nor fire; the
            # running sum therefore matches the positive-only scan of
            # the pre-IR GPEPA simulator bit for bit.
            continue
        last_positive = k
        acc += a
        if u <= acc:
            chosen = k
            break
    return chosen if chosen is not None else last_positive


def reaction_trajectory(
    ir: ReactionIR,
    grid: np.ndarray,
    rng: np.random.Generator,
    max_events: int = REACTION_EVENT_BUDGET,
) -> Trajectory:
    """One Gillespie direct-method realization on a time grid."""
    N = ir.stoichiometry
    x = ir.integer_initial()
    out = np.empty((grid.size, x.size))
    out[0] = x
    t = float(grid[0])
    cursor = 1
    events = 0
    choice = ir.sampler == "choice"
    select = _select_choice if choice else _select_scan
    while cursor < grid.size:
        props = ir.propensities(x)
        # Both samplers validate negativity: ``scan`` skips negative
        # slots when selecting but ``float(sum(props))`` would still
        # fold them into the total, corrupting waiting times and the
        # selection threshold — a negative law is a model error, not a
        # samplable state.
        pvals = np.asarray(props, dtype=np.float64)
        if (pvals < 0).any():
            bad = ir.reaction_names[int(np.argmin(pvals))]
            raise IRError(f"negative propensity for reaction {bad!r}")
        # float(sum(...)) iterates sequentially — bit-equal to the old
        # positive-only Python-list sum because adding 0.0 is exact;
        # props.sum() keeps NumPy's pairwise order for "choice".
        total = float(props.sum()) if choice else float(sum(props))
        if props.size == 0 or total <= 0.0:
            out[cursor:] = x  # frozen for all time
            break
        t += rng.exponential(1.0 / total)
        while cursor < grid.size and grid[cursor] <= t:
            out[cursor] = x
            cursor += 1
        if cursor >= grid.size:
            break
        if events >= max_events:
            raise SimulationLimitError(
                f"simulation exceeded {max_events} events before the horizon",
                budget=max_events, events=events,
            )
        r = select(rng, props, total)
        x = x + N[:, r]
        if (x < 0).any():
            rx = ir.reaction_names[r]
            raise IRError(
                f"reaction {rx!r} fired with insufficient reactants — its kinetic "
                "law does not vanish at zero amounts"
            )
        events += 1
    return Trajectory(times=grid, counts=out, n_events=events)


def reaction_trajectory_next_reaction(
    ir: ReactionIR,
    grid: np.ndarray,
    rng: np.random.Generator,
    max_events: int = REACTION_EVENT_BUDGET,
) -> Trajectory:
    """One realization by Anderson's modified next-reaction method.

    Statistically equivalent to the direct method but with a different
    RNG stream: each reaction owns a unit-rate internal clock, and the
    next event is the reaction whose integrated propensity first reaches
    its threshold.  One exponential draw per firing (after the initial
    per-reaction thresholds) instead of two uniforms.
    """
    N = ir.stoichiometry
    x = ir.integer_initial()
    out = np.empty((grid.size, x.size))
    out[0] = x
    n_rx = ir.n_reactions
    # Internal clocks: next firing thresholds P and elapsed internal
    # times T, both in unit-rate exponential time.
    thresholds = rng.exponential(size=n_rx) if n_rx else np.empty(0)
    internal = np.zeros(n_rx)
    t = float(grid[0])
    cursor = 1
    events = 0
    while cursor < grid.size:
        props = np.asarray(ir.propensities(x), dtype=np.float64)
        if (props < 0).any():
            bad = ir.reaction_names[int(np.argmin(props))]
            raise IRError(f"negative propensity for reaction {bad!r}")
        active = props > 0.0
        if not active.any():
            out[cursor:] = x
            break
        waits = np.full(n_rx, np.inf)
        waits[active] = (thresholds[active] - internal[active]) / props[active]
        r = int(np.argmin(waits))
        dt = float(waits[r])
        t += dt
        while cursor < grid.size and grid[cursor] <= t:
            out[cursor] = x
            cursor += 1
        if cursor >= grid.size:
            break
        if events >= max_events:
            raise SimulationLimitError(
                f"simulation exceeded {max_events} events before the horizon",
                budget=max_events, events=events,
            )
        internal += props * dt
        thresholds[r] += rng.exponential()
        x = x + N[:, r]
        if (x < 0).any():
            rx = ir.reaction_names[r]
            raise IRError(
                f"reaction {rx!r} fired with insufficient reactants — its kinetic "
                "law does not vanish at zero amounts"
            )
        events += 1
    return Trajectory(times=grid, counts=out, n_events=events)


# ---------------------------------------------------------------------------
# Chunked ensembles (one code path for all frontends)
# ---------------------------------------------------------------------------

def reaction_run(payload, grid, rng, max_events=REACTION_EVENT_BUDGET):
    """Ensemble runner: one direct-method realization of a ReactionIR."""
    traj = reaction_trajectory(payload, grid, rng, max_events=max_events)
    return traj.counts, traj.n_events


def reaction_run_next_reaction(payload, grid, rng,
                               max_events=REACTION_EVENT_BUDGET):
    """Ensemble runner: one next-reaction realization of a ReactionIR."""
    traj = reaction_trajectory_next_reaction(
        payload, grid, rng, max_events=max_events
    )
    return traj.counts, traj.n_events


def occupancy_run(payload, grid, rng, max_events=MARKOV_EVENT_BUDGET):
    """Ensemble runner: one MarkovIR path as a one-hot occupancy matrix."""
    ir, initial = payload
    path = markov_path(ir, grid, rng, initial=initial, max_events=max_events)
    occ = np.zeros((grid.size, ir.n_states))
    occ[np.arange(grid.size), path.states] = 1.0
    return occ, path.n_events


def _ensemble_task(task) -> list[tuple[int, np.ndarray, np.ndarray, int]]:
    """Worker: Welford partials ``(count, mean, m2, events)``, one per
    :data:`CHUNK_RUNS` chunk of the task's seed slice, in run order.

    A batched kernel advances the whole slice at once; a scalar runner
    is called once per seed.  Without a budget the runner is called
    with three arguments, so custom runners need not accept one.
    """
    runner, payload, grid, seeds, budget = task
    kwargs = {} if budget is None else {"max_events": budget}
    if getattr(runner, "batched", False):
        runs, run_events = runner(payload, grid, seeds, **kwargs)
        realizations = zip(runs, run_events)
    else:
        realizations = (
            runner(payload, grid, np.random.default_rng(s), **kwargs)
            for s in seeds
        )
    partials = []
    for lo in range(0, len(seeds), CHUNK_RUNS):
        size = min(CHUNK_RUNS, len(seeds) - lo)
        mean = m2 = None
        events = 0
        for k, (counts, n_events) in enumerate(
            itertools.islice(realizations, size), start=1
        ):
            if mean is None:
                mean = np.zeros_like(counts)
                m2 = np.zeros_like(counts)
            delta = counts - mean
            mean += delta / k
            m2 += delta * (counts - mean)
            events += n_events
        partials.append((size, mean, m2, events))
    return partials


def _checkpoint_parts(runner, payload, grid, n_runs: int, seed: int,
                      max_events, stride: int) -> tuple | None:
    """Key parts of a checkpointed ensemble's batch (see ``run_tasks``).

    ``None`` (checkpointing skipped) when the payload's identity token
    is explicitly ``None`` — a tokenless IR marks itself as not
    content-addressable, and hashing it anyway would collide distinct
    models onto one key.  The runner's name, :data:`CHUNK_RUNS` and the
    task stride fix the task layout and the chunk boundaries inside each
    task, so they are part of the key: partials cut at other boundaries
    must never merge into this reduction.
    """
    ident = payload[0] if isinstance(payload, tuple) else payload
    if getattr(ident, "token", True) is None:
        return None
    name = getattr(
        runner, "checkpoint_name", getattr(runner, "__qualname__", repr(runner))
    )
    return ("ensemble", name, payload, grid, int(n_runs), int(seed), max_events,
            CHUNK_RUNS, stride)


def ensemble_moments(
    runner,
    payload,
    grid: np.ndarray,
    n_runs: int,
    seed: int,
    max_events=None,
) -> EnsembleMoments:
    """Streaming mean / sample variance over ``n_runs`` realizations.

    ``runner`` is a scalar runner — one realization per call,
    ``runner(payload, grid, rng[, max_events]) -> (counts, n_events)``
    — or a batched kernel (``runner.batched`` true) that advances a
    whole seed slice per call, ``runner(payload, grid, seeds,
    max_events) -> (runs, events)``.  A kernel's task spans
    :data:`BATCH_CHUNKS` chunks, a scalar runner's one; ``meta["kernel"]``
    records which kind ran.

    Realization ``i`` is driven by the ``i``-th child of
    ``SeedSequence(seed)``, so the result is a pure function of
    ``(payload, grid, n_runs, seed)`` — never of how runs are scheduled
    or which kernel ran them.  Runs are processed in fixed chunks whose
    Welford partials are merged in chunk order; under
    ``engine.parallel(workers=...)`` the tasks execute on a process pool
    and the result is bit-identical to the sequential one.  ``var`` uses
    the unbiased ``ddof=1`` normalization.

    When the result cache has a disk layer (``$REPRO_CACHE_DIR``), task
    partials are stored there as checkpoint entries as they complete, so
    an interrupted ensemble resumes from its completed tasks — and, the
    reduction order being fixed, still matches the uninterrupted result
    bit for bit.
    """
    if n_runs < 1:
        raise IRError("ensemble needs at least one run")
    batched = getattr(runner, "batched", False)
    seeds = spawn_seeds(seed, n_runs)
    stride = CHUNK_RUNS * (BATCH_CHUNKS if batched else 1)
    n_chunks = -(-n_runs // CHUNK_RUNS)
    with get_registry().timer("ssa_ensemble") as gauges:
        tasks = [
            (runner, payload, grid, seeds[lo : lo + stride], max_events)
            for lo in range(0, n_runs, stride)
        ]
        grouped = run_tasks(
            _ensemble_task, tasks, checkpoint=_checkpoint_parts(
                runner, payload, grid, n_runs, seed, max_events, stride
            )
        )
        count, mean, m2 = 0, 0.0, 0.0
        events = 0
        for partials in grouped:
            for chunk_count, chunk_mean, chunk_m2, chunk_events in partials:
                count, mean, m2 = welford_merge(
                    (count, mean, m2), (chunk_count, chunk_mean, chunk_m2)
                )
                events += chunk_events
        var = m2 / (n_runs - 1) if n_runs > 1 else np.zeros_like(m2)
        gauges["n_runs"] = n_runs
        gauges["events"] = events
    return EnsembleMoments(
        times=grid,
        mean=mean,
        var=var,
        n_runs=n_runs,
        events=events,
        chunks=n_chunks,
        meta={"events": events, "chunks": n_chunks, "chunk_runs": CHUNK_RUNS,
              "kernel": "batched" if batched else "scalar"},
    )


# ---------------------------------------------------------------------------
# Registry entry points
# ---------------------------------------------------------------------------

def _fastest_ensemble(kernel, runner, payload, grid, n_runs, seed, budget):
    """``kernel`` when it can serve the ensemble, else the scalar
    ``runner`` — the two give the same bits, so only the speed differs."""
    try:
        return ensemble_moments(kernel, payload, grid, n_runs, seed,
                                max_events=budget)
    except BatchedKernelError:
        get_registry().increment("ir.ssa.scalar_fallback")
        return ensemble_moments(runner, payload, grid, n_runs, seed,
                                max_events=budget)


def _ssa_solve(ir, *, variant, times, seed=0, mode="trajectory", n_runs=100,
               initial=None, max_events=None):
    grid = validate_grid(times)
    if isinstance(ir, MarkovIR):
        if variant != "direct":
            raise BackendError(
                "next-reaction simulation needs a ReactionIR (per-reaction "
                "clocks have no analogue in a per-state jump table)"
            )
        budget = MARKOV_EVENT_BUDGET if max_events is None else max_events
        if mode == "trajectory":
            return markov_path(ir, grid, as_rng(seed), initial=initial,
                               max_events=budget)
        return _fastest_ensemble(markov_occupancy_chunk, occupancy_run,
                                 (ir, initial), grid, n_runs, seed, budget)
    budget = REACTION_EVENT_BUDGET if max_events is None else max_events
    if variant == "next-reaction":
        if mode == "trajectory":
            return reaction_trajectory_next_reaction(
                ir, grid, as_rng(seed), max_events=budget
            )
        return ensemble_moments(reaction_run_next_reaction, ir, grid, n_runs,
                                seed, max_events=budget)
    if mode == "trajectory":
        return reaction_trajectory(ir, grid, as_rng(seed), max_events=budget)
    return _fastest_ensemble(reaction_chunk, reaction_run, ir, grid, n_runs,
                             seed, budget)


def _ssa_direct(ir, **params):
    return _ssa_solve(ir, variant="direct", **params)


def _ssa_next_reaction(ir, **params):
    return _ssa_solve(ir, variant="next-reaction", **params)


register_backend(
    "ssa",
    "direct",
    _ssa_direct,
    accepts=(MarkovIR, ReactionIR),
    aliases=("gillespie",),
    cache=False,
    default=True,
)
register_backend(
    "ssa",
    "next-reaction",
    _ssa_next_reaction,
    accepts=(ReactionIR,),
    cache=False,
)
