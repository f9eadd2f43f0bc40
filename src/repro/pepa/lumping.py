"""Ordinary lumping of PEPA CTMCs.

PEPA's answer to state-space explosion (before GPEPA's fluid limit) is
aggregation: states equivalent under *ordinary lumpability* can be
merged without changing any measure defined on the lumped partition.
This module computes the coarsest ordinarily-lumpable partition that
refines a user-supplied initial partition (default: one block, i.e.
maximal aggregation) by signature-based partition refinement:

    repeat
        signature(s) = { (block(s'), total rate s -> block(s')) }
        split every block by signature
    until no block splits

and builds the lumped generator.  The initial partition is how callers
protect their reward structure — states with different reward values
must start in different blocks.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import PepaError
from repro.numerics.generator import generator_from_rates, off_diagonal
from repro.pepa.ctmc import CTMC

__all__ = [
    "lump",
    "LumpedCTMC",
    "symmetry_labels",
    "verify_population_agreement",
]


@dataclass(frozen=True)
class LumpedCTMC:
    """An aggregated chain.

    Attributes
    ----------
    generator:
        Lumped generator (one row/column per block).
    blocks:
        ``blocks[b]`` is the sorted tuple of original state indices.
    block_of:
        ``block_of[i]`` is the block index of original state ``i``.
    """

    generator: sp.csr_matrix
    blocks: tuple[tuple[int, ...], ...]
    block_of: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def lift(self, pi_lumped: np.ndarray) -> np.ndarray:
        """Spread a lumped distribution uniformly within each block.

        Exact for the stationary distribution when the chain is also
        *exactly* lumpable; for plain ordinary lumping, per-block sums
        (``project``-ed measures) are the meaningful quantities.
        """
        pi = np.zeros(self.block_of.size)
        for b, states in enumerate(self.blocks):
            pi[list(states)] = pi_lumped[b] / len(states)
        return pi

    def project(self, pi_full: np.ndarray) -> np.ndarray:
        """Aggregate a full-chain distribution onto the blocks."""
        out = np.zeros(self.n_blocks)
        np.add.at(out, self.block_of, pi_full)
        return out


def symmetry_labels(chain: CTMC) -> list[tuple]:
    """Default initial partition: the multiset of (component family,
    local derivative) pairs of each state.

    Replicated components (``PC[4]``) get family name ``PC`` for every
    copy, so states differing only by a permutation of identical copies
    share a label — the classic PEPA symmetry (canonical-state)
    aggregation.  Any population-count measure is preserved.
    """
    space = chain.space
    families = [leaf.name.split("#", 1)[0] for leaf in space.leaves]
    labels = []
    for i in range(space.size):
        state = space.states[i]
        key = tuple(
            sorted(
                (families[k], space.local_label(k, state[k]))
                for k in range(len(families))
            )
        )
        labels.append(key)
    return labels


def _initial_blocks(
    n: int,
    initial: Sequence[Hashable] | Callable[[int], Hashable] | None,
) -> list[list[int]]:
    if initial is None:
        raise PepaError("internal: default partition resolved by lump()")
    if callable(initial):
        keys = [initial(i) for i in range(n)]
    else:
        keys = list(initial)
        if len(keys) != n:
            raise PepaError(
                f"initial partition labels cover {len(keys)} states, chain has {n}"
            )
    by_key: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    # Blocks in order of first occurrence: deterministic, keeps the
    # initial state in block 0, and makes the identity partition yield
    # the identity permutation (sorting keys by repr would order block
    # 10 before block 2).
    return list(by_key.values())


def lump(
    chain: CTMC,
    initial: Sequence[Hashable] | Callable[[int], Hashable] | None = None,
    max_iterations: int = 10_000,
) -> LumpedCTMC:
    """Compute the coarsest ordinary lumping of ``chain``.

    Parameters
    ----------
    chain:
        The CTMC to aggregate.
    initial:
        Optional initial partition: per-state labels (sequence or
        callable).  States carrying different labels are never merged —
        use this to preserve reward distinctions (e.g. label states by
        the local derivative a utilization measure depends on).  The
        default is :func:`symmetry_labels` — the PEPA canonical-state
        aggregation merging permutations of identical replicas, which
        preserves every population-count measure.  (The one-block
        partition is always vacuously lumpable, so an *empty* default
        would silently destroy all structure.)

    Returns
    -------
    LumpedCTMC
        Blocks, membership map and the lumped generator.  Steady-state
        block probabilities of the lumped chain equal the block sums of
        the full chain's steady state (tested property).
    """
    n = chain.n_states
    if initial is None:
        initial = symmetry_labels(chain)
    # Strip the diagonal once; signatures use off-diagonal flows only.
    R = off_diagonal(chain.generator.tocsr())
    rows, cols, vals = R.row, R.col, R.data
    order = np.argsort(rows, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.searchsorted(rows, np.arange(n + 1))
    # Quantization scale for refinement signatures.  An absolute
    # round(r, 12) is a no-op for 1e6-scale rates (ulp is already larger
    # than 1e-12, so float summation-order jitter splits equivalent
    # states) and collapses everything at 1e-13 scale (genuinely
    # different rates merge).  Quantizing r/scale keeps the tolerance
    # relative to the chain's rate magnitude.
    scale = float(np.abs(vals).max()) if vals.size else 1.0
    if not scale > 0.0:
        scale = 1.0

    blocks = _initial_blocks(n, initial)
    block_of = np.empty(n, dtype=np.intp)
    for b, members in enumerate(blocks):
        block_of[members] = b

    for _ in range(max_iterations):
        changed = False
        new_blocks: list[list[int]] = []
        for members in blocks:
            if len(members) == 1:
                new_blocks.append(members)
                continue
            sig_groups: dict[tuple, list[int]] = {}
            for s in members:
                lo, hi = starts[s], starts[s + 1]
                agg: dict[int, float] = {}
                for k in range(lo, hi):
                    tgt_block = int(block_of[cols[k]])
                    agg[tgt_block] = agg.get(tgt_block, 0.0) + vals[k]
                # Exclude flows back into the state's own block: ordinary
                # lumpability constrains flows to *other* blocks.
                own = int(block_of[s])
                sig = tuple(
                    sorted(
                        (b, round(r / scale, 12))
                        for b, r in agg.items()
                        if b != own
                    )
                )
                sig_groups.setdefault(sig, []).append(s)
            if len(sig_groups) == 1:
                new_blocks.append(members)
            else:
                changed = True
                for sig in sorted(sig_groups):
                    new_blocks.append(sig_groups[sig])
        blocks = new_blocks
        for b, members in enumerate(blocks):
            block_of[members] = b
        if not changed:
            break
    else:
        raise PepaError("partition refinement did not converge")

    # Lumped generator: the exact mean of the members' aggregate flows.
    # Under the tolerance-based refinement above, member rows may
    # disagree by up to the quantization tolerance; taking any single
    # representative would make the result depend on member ordering.
    nb = len(blocks)
    lrows: list[int] = []
    lcols: list[int] = []
    lvals: list[float] = []
    for b, members in enumerate(blocks):
        agg: dict[int, float] = {}
        for s in members:
            for k in range(starts[s], starts[s + 1]):
                tgt = int(block_of[cols[k]])
                if tgt != b:
                    agg[tgt] = agg.get(tgt, 0.0) + vals[k]
        inv = 1.0 / len(members)
        for tgt, rate in agg.items():
            lrows.append(b)
            lcols.append(tgt)
            lvals.append(rate * inv)
    return LumpedCTMC(
        generator=generator_from_rates(nb, lrows, lcols, lvals),
        blocks=tuple(tuple(sorted(m)) for m in blocks),
        block_of=block_of.copy(),
    )


def verify_population_agreement(
    model, max_states: int = 100_000, tol: float = 1e-9
) -> dict:
    """Agreement oracle: population-form derivation vs. explicit + lump.

    Derives ``model`` both ways — directly in population form
    (:func:`repro.pepa.population.derive_population`) and explicitly
    followed by :func:`lump` seeded with the orbit keys
    (:func:`repro.pepa.population.canonical_partition`) — and checks the
    two quotients are the *same chain*: identical block structure
    (block sizes equal the orbit sizes exactly) and generators that
    agree entry-wise within ``tol`` (relative to the rate scale) under
    the block-matching permutation.

    Raises :class:`~repro.errors.PepaError` on any disagreement;
    returns a report dictionary on success.  Only usable where the
    explicit space fits ``max_states`` — this is the test-suite oracle,
    not a production path.
    """
    from repro.pepa.ctmc import ctmc_of
    from repro.pepa.population import canonical_partition, derive_population
    from repro.pepa.statespace import derive

    space = derive(model, max_states=max_states)
    chain = ctmc_of(space)
    keys = canonical_partition(model, space)
    lumped = lump(chain, initial=keys)
    pop = derive_population(model, max_states=max_states)
    info = pop.orbit_info

    if lumped.n_blocks != pop.size:
        raise PepaError(
            f"population derivation found {pop.size} orbits, explicit "
            f"lumping found {lumped.n_blocks} blocks"
        )
    if info.full_states != space.size:
        raise PepaError(
            f"population metadata claims {info.full_states} explicit "
            f"states, derivation reached {space.size}"
        )
    index = {s: i for i, s in enumerate(pop.states)}
    perm = np.empty(lumped.n_blocks, dtype=np.intp)
    for b, members in enumerate(lumped.blocks):
        key = keys[members[0]]
        if key not in index:
            raise PepaError(
                f"lumped block {b} has no matching population state"
            )
        perm[b] = index[key]
        if len(members) != int(round(float(info.orbit_sizes[perm[b]]))):
            raise PepaError(
                f"block {b} holds {len(members)} states, orbit size is "
                f"{info.orbit_sizes[perm[b]]:.0f}"
            )
    if np.unique(perm).size != perm.size:
        raise PepaError("block-to-orbit matching is not a bijection")

    Q_pop = ctmc_of(pop).generator
    # Reorder the population generator into lumped-block order.
    Q_pop_b = Q_pop[perm][:, perm]
    diff = (lumped.generator - Q_pop_b).tocoo()
    scale = max(
        1.0, float(np.abs(Q_pop.data).max()) if Q_pop.nnz else 1.0
    )
    max_rel = float(np.abs(diff.data).max()) / scale if diff.nnz else 0.0
    if max_rel > tol:
        raise PepaError(
            f"lumped and population generators disagree by {max_rel:.3e} "
            f"(relative, tolerance {tol:.3e})"
        )
    return {
        "explicit_states": space.size,
        "population_states": pop.size,
        "aggregation_ratio": space.size / pop.size,
        "max_rel_diff": max_rel,
        "tolerance": tol,
    }
