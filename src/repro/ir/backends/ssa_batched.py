"""Vectorized batched SSA ensemble kernels.

The scalar steppers in :mod:`repro.ir.backends.ssa` advance one
trajectory per Python loop iteration; for the paper's Table I / Fig. 3-6
ensembles (thousands of realizations, millions of events) that loop is
the dominant hot path.  The kernels here advance a whole seed slice of
realizations per NumPy call instead — batched propensity evaluation
across the live trajectories, vectorized grid-cursor advance and
reaction selection, and compaction of finished/absorbed paths out of
the working set — in the array-level spirit of Ding & Hillston's
numerical vector form.  The ``ssa`` backend's ``direct`` method runs
every ensemble on them through
:func:`~repro.ir.backends.ssa.ensemble_moments`; this module holds only
the array kernels.

Bit-identity contract
---------------------
The scalar steppers remain the *oracle* (exactly as the derivation fast
path kept ``derive_reference``): the batched kernel must reproduce every
seeded trajectory bit for bit.  Two disciplines make that possible:

* each realization still consumes only its own ``SeedSequence``-child
  stream, and waiting-time/selection draws stay interleaved per
  trajectory — the per-trajectory generator calls cannot be block-drawn
  without changing the stream, so they remain scalar calls while
  everything around them is batched;
* every vectorized reduction is elementwise or row-wise with the same
  operand order as the scalar code (``cumsum`` rows equal the scalar
  left-fold because adding ``0.0`` is exact; ``sum(axis=1)`` keeps
  NumPy's pairwise order per row; ``rng.choice`` is replicated by its
  own normalized-CDF inversion, which consumes the identical single
  uniform).

Chunk boundaries, seed spawning and the Welford merge belong to the
shared ensemble driver, so the kernels only turn seeds into runs.

Batched propensity evaluation uses ``ReactionIR.batch_propensities``
when the frontend attached one (elementwise-exact law forms only) and
self-checks its first evaluation against the scalar law; a disagreement
— or a padded jump table too large to allocate — raises
:class:`~repro.errors.BatchedKernelError`, on which the ``ssa`` backend
runs the ensemble on the scalar stepper instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BatchedKernelError, IRError, SimulationLimitError
from repro.ir.markov import MarkovIR
from repro.ir.reaction import ReactionIR

__all__ = [
    "batched_markov_tables",
    "markov_occupancy_chunk",
    "reaction_chunk",
]

#: Padded per-state jump tables beyond this many matrix entries fall
#: back to the scalar stepper rather than allocating a dense table.
_TABLE_ENTRY_LIMIT = 50_000_000


def batched_markov_tables(ir: MarkovIR):
    """Dense padded jump tables ``(CUM, TGT, deg, total)`` for batching.

    Row ``i`` holds state ``i``'s cumulative rates padded with ``+inf``
    (so a row-wise ``count(cum <= v)`` reproduces the scalar
    ``searchsorted(..., side="right")``) and its jump targets; ``deg``
    is the out-degree and ``total`` the exit rate.  Memoized on the IR
    like :meth:`~repro.ir.markov.MarkovIR.ssa_tables`.
    """
    memo = getattr(ir, "_batched_ssa_tables", None)
    if memo is not None:
        return memo
    tables = ir.ssa_tables()
    n = ir.n_states
    deg = np.array([t[1].size for t in tables], dtype=np.intp)
    width = int(deg.max()) if n else 0
    if n * max(width, 1) > _TABLE_ENTRY_LIMIT:
        raise BatchedKernelError(
            f"padded jump table would hold {n * width} entries "
            f"(> {_TABLE_ENTRY_LIMIT}); use the scalar stepper"
        )
    cum_pad = np.full((n, max(width, 1)), np.inf)
    tgt_pad = np.zeros((n, max(width, 1)), dtype=np.intp)
    total = np.zeros(n)
    for i, (cum, targets, _actions) in enumerate(tables):
        d = targets.size
        if d:
            cum_pad[i, :d] = cum
            tgt_pad[i, :d] = targets
            total[i] = cum[-1]
    memo = (cum_pad, tgt_pad, deg, total)
    object.__setattr__(ir, "_batched_ssa_tables", memo)
    return memo


def markov_occupancy_chunk(
    payload: tuple[MarkovIR, int | None],
    grid: np.ndarray,
    seeds,
    max_events: int,
):
    """One seed slice of jump paths, advanced together.

    ``payload`` is ``(ir, initial)`` as for
    :func:`~repro.ir.backends.ssa.occupancy_run`.  Returns an iterator
    of per-run ``(grid.size, n_states)`` one-hot occupancy matrices
    (built one at a time as the caller consumes them) and the per-run
    event counts, bit-identical to running ``occupancy_run`` per seed.
    """
    ir, initial = payload
    cum_pad, tgt_pad, deg, total = batched_markov_tables(ir)
    state0 = ir.initial_index if initial is None else int(initial)
    if not 0 <= state0 < ir.n_states:
        raise IRError(f"initial state {state0} out of range")
    n_runs = len(seeds)
    gens = [np.random.default_rng(s) for s in seeds]
    exp_draw = [g.exponential for g in gens]
    uni_draw = [g.random for g in gens]
    grid_size = grid.size
    state = np.full(n_runs, state0, dtype=np.intp)
    states_out = np.empty((n_runs, grid_size), dtype=np.intp)
    states_out[:, 0] = state
    cursor = np.ones(n_runs, dtype=np.intp)
    t = np.full(n_runs, float(grid[0]))
    events = np.zeros(n_runs, dtype=np.int64)
    # Every live row fires exactly one jump per round, so all live rows
    # share the same event count — the round number carries the budget.
    rounds = 0
    live = np.arange(n_runs) if grid_size > 1 else np.empty(0, dtype=np.intp)
    while live.size:
        st = state[live]
        tot = total[st]
        absorbed = tot <= 0.0
        if absorbed.any():
            for row in live[absorbed]:
                states_out[row, cursor[row]:] = state[row]
            keep = ~absorbed
            live, st, tot = live[keep], st[keep], tot[keep]
            if not live.size:
                break
        # Waiting times: one exponential per trajectory from its own
        # stream — the draws interleave with the selection uniforms on
        # one PCG64 stream each, so they cannot be block-drawn.
        scale = 1.0 / tot
        for j in range(live.size):
            row = live[j]
            t[row] += exp_draw[row](scale[j])
        new_cursor = np.searchsorted(grid, t[live], side="right")
        for j in np.flatnonzero(new_cursor > cursor[live]):
            row = live[j]
            states_out[row, cursor[row]:new_cursor[j]] = state[row]
        cursor[live] = new_cursor
        finished = new_cursor >= grid_size
        if finished.any():
            keep = ~finished
            live, st, tot = live[keep], st[keep], tot[keep]
            if not live.size:
                break
        if rounds >= max_events:
            raise SimulationLimitError(
                f"simulation exceeded {max_events} events",
                budget=max_events, events=int(max_events),
            )
        u = np.empty(live.size)
        for j in range(live.size):
            u[j] = uni_draw[live[j]]()
        # Row-wise inversion of the padded cumulative-rate rows: the
        # +inf padding makes count(cum <= v) equal the scalar
        # searchsorted(..., 'right') on the unpadded row.
        k = (cum_pad[st] <= (u * tot)[:, None]).sum(axis=1)
        k = np.minimum(k, deg[st] - 1)
        state[live] = tgt_pad[st, k]
        events[live] += 1
        rounds += 1
    return _one_hot(states_out, ir.n_states), [int(e) for e in events]


def _one_hot(states_out: np.ndarray, n_states: int):
    idx = np.arange(states_out.shape[1])
    for row in states_out:
        occ = np.zeros((row.size, n_states))
        occ[idx, row] = 1.0
        yield occ


def _rowwise_propensities(ir: ReactionIR, states: np.ndarray) -> np.ndarray:
    if ir.n_reactions == 0:
        return np.zeros((states.shape[0], 0))
    return np.stack(
        [np.asarray(ir.propensities(x), dtype=np.float64) for x in states]
    )


def reaction_chunk(
    ir: ReactionIR,
    grid: np.ndarray,
    seeds,
    max_events: int,
) -> tuple[list[np.ndarray], list[int]]:
    """One seed slice of direct-method realizations, advanced together.

    Returns per-run ``(grid.size, n_species)`` count matrices and event
    counts, bit-identical to :func:`~repro.ir.backends.ssa.reaction_run`
    per seed, for both the ``choice`` and ``scan`` samplers.
    """
    stoich_t = np.ascontiguousarray(ir.stoichiometry.T)
    x0 = ir.integer_initial()
    grid_size, n_rx = grid.size, ir.n_reactions
    n_runs = len(seeds)
    gens = [np.random.default_rng(s) for s in seeds]
    exp_draw = [g.exponential for g in gens]
    uni_draw = [g.random for g in gens]
    states = np.tile(x0, (n_runs, 1))
    out = np.empty((n_runs, grid_size, x0.size))
    out[:, 0] = x0
    cursor = np.ones(n_runs, dtype=np.intp)
    t = np.full(n_runs, float(grid[0]))
    events = np.zeros(n_runs, dtype=np.int64)
    # Every live row fires exactly one reaction per round, so all live
    # rows share the same event count — the round number is the budget.
    rounds = 0
    choice = ir.sampler == "choice"
    batch_eval = ir.batch_propensities
    self_checked = batch_eval is None
    live = np.arange(n_runs) if grid_size > 1 else np.empty(0, dtype=np.intp)
    while live.size:
        x_live = states[live]
        if batch_eval is not None:
            props = np.asarray(batch_eval(x_live), dtype=np.float64)
            if not self_checked:
                ref = _rowwise_propensities(ir, x_live)
                if props.shape != ref.shape or not np.array_equal(props, ref):
                    raise BatchedKernelError(
                        "batch propensity evaluator disagrees with the "
                        "scalar kinetic law"
                    )
                self_checked = True
        else:
            props = _rowwise_propensities(ir, x_live)
        if props.size and props.min() < 0.0:
            j = int(np.flatnonzero((props < 0.0).any(axis=1))[0])
            bad = ir.reaction_names[int(np.argmin(props[j]))]
            raise IRError(f"negative propensity for reaction {bad!r}")
        if choice:
            cum = None
            tot = props.sum(axis=1) if n_rx else np.zeros(live.size)
        else:
            # cumsum rows equal the scalar sequential left-fold (adding
            # 0.0 is exact), so tot matches ``float(sum(props))``.
            cum = np.cumsum(props, axis=1) if n_rx else None
            tot = cum[:, -1] if n_rx else np.zeros(live.size)
        frozen = tot <= 0.0
        if frozen.any():
            for row in live[frozen]:
                out[row, cursor[row]:] = states[row]
            keep = ~frozen
            live, props, tot = live[keep], props[keep], tot[keep]
            if cum is not None:
                cum = cum[keep]
            if not live.size:
                break
        scale = 1.0 / tot
        for j in range(live.size):
            row = live[j]
            t[row] += exp_draw[row](scale[j])
        new_cursor = np.searchsorted(grid, t[live], side="right")
        for j in np.flatnonzero(new_cursor > cursor[live]):
            row = live[j]
            out[row, cursor[row]:new_cursor[j]] = states[row]
        cursor[live] = new_cursor
        finished = new_cursor >= grid_size
        if finished.any():
            keep = ~finished
            live, props, tot = live[keep], props[keep], tot[keep]
            if cum is not None:
                cum = cum[keep]
            if not live.size:
                break
        if rounds >= max_events:
            raise SimulationLimitError(
                f"simulation exceeded {max_events} events before the horizon",
                budget=max_events, events=int(max_events),
            )
        u = np.empty(live.size)
        for j in range(live.size):
            u[j] = uni_draw[live[j]]()
        if choice:
            # Bit-exact replication of rng.choice(n, p=props/total): the
            # generator normalizes p, cumsums, renormalizes the CDF by
            # its last entry, and inverts one uniform with
            # searchsorted(..., 'right').
            norm = props / tot[:, None]
            cdf = np.cumsum(norm, axis=1)
            last = cdf[:, -1].copy()
            cdf = cdf / last[:, None]
            k = (cdf <= u[:, None]).sum(axis=1)
            k = np.minimum(k, n_rx - 1)
        else:
            # Positive-only scan: first positive slot whose running sum
            # reaches u*total, else the last positive slot.
            threshold = u * tot
            hit = (props > 0.0) & (threshold[:, None] <= cum)
            k = hit.argmax(axis=1)
            has_hit = hit.any(axis=1)
            if not has_hit.all():
                last_positive = n_rx - 1 - np.argmax(
                    props[:, ::-1] > 0.0, axis=1
                )
                k = np.where(has_hit, k, last_positive)
        states[live] += stoich_t[k]
        negative = np.flatnonzero((states[live] < 0).any(axis=1))
        if negative.size:
            rx = ir.reaction_names[int(k[negative[0]])]
            raise IRError(
                f"reaction {rx!r} fired with insufficient reactants — its "
                "kinetic law does not vanish at zero amounts"
            )
        events[live] += 1
        rounds += 1
    return [out[b] for b in range(n_runs)], [int(e) for e in events]


# The ensemble driver hands these a whole seed slice per task instead of
# calling them once per realization.
markov_occupancy_chunk.batched = True
reaction_chunk.batched = True
