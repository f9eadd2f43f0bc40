"""Population-form (lumped) state-space derivation for PEPA models.

Models that replicate identical components — ``PC[50]`` aggregations,
or hand-written cooperations of structurally identical siblings —
explode the explicit state space even though the underlying CTMC is
ordinarily lumpable: permuting the replicas is an automorphism, so only
the *multiset* of their local states matters.  This module derives the
quotient chain directly, following Ding & Hillston's numerical
vector/population-form representation: during the BFS sweep every
discovered state is canonicalized to its orbit representative, so the
frontier never holds more than one state per symmetry orbit and PC-LAN
with N clients derives in O(poly(N)) states instead of O(2^N).

Canonicalization works on the static structure tree:

1. Maximal chains of cooperation nodes sharing one action set are
   flattened into a single member list (sound because PEPA cooperation
   over a fixed action set is associative and commutative up to strong
   equivalence).
2. Members with identical *shape* — the same subtree of action sets and
   leaf initial derivatives — form a replica cluster whose sub-states
   are interchangeable.
3. A state's representative sorts each cluster's member sub-state
   tuples, innermost clusters first, so nested replication (replicated
   segments of replicated clients) canonicalizes bottom-up.

Sorting member sub-tuples compares interned local-derivative indices
across leaves, so the deriver eagerly pre-interns each leaf's full
local derivative set in deterministic local-BFS order: shape-identical
leaves then carry identical interning tables and index comparison
coincides with term comparison.  (The explicit deriver interns lazily
in global discovery order; its bit-exact state numbering is untouched.)

Transition rates need no correction factors: the representative's
outgoing transitions into a target orbit are exactly the lumped
generator row once the CTMC layer sums parallel edges — ordinary
lumpability of the orbit partition guarantees every member row
aggregates identically.

The derived :class:`~repro.pepa.statespace.StateSpace` carries two
extra attributes: ``orbit_info`` (an :class:`repro.ir.markov.OrbitInfo`
with orbit sizes, the exact full-space state count and the population
count vectors) and ``population_labels`` (count-form state labels like
``((3*PC, PC1), Medium)``).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.ir.markov import MarkovIR, OrbitInfo
from repro.pepa.statespace import (
    Leaf,
    StateSpace,
    _CoopNode,
    _Deriver,
    _HideNode,
    _build_structure,
    derive,
)
from repro.pepa.syntax import Constant, Model, expand_aggregations, unparse

__all__ = [
    "derive_population",
    "population_markov_ir",
    "lower_population",
    "canonical_partition",
    "has_replicated_symmetry",
    "replicated_cluster_count",
]


# ---------------------------------------------------------------------------
# Structural symmetry detection (cheap, no derivation)
# ---------------------------------------------------------------------------


def _tree_shape(node) -> tuple:
    """Recursive structural signature of a raw structure-tree node.

    Two subtrees with equal shapes start in the same configuration and
    stay behaviorally interchangeable, leaf for leaf, so their
    sub-states can be transplanted by index permutation.
    """
    if isinstance(node, Leaf):
        return ("leaf", node.initial)
    if isinstance(node, _HideNode):
        return ("hide", node.actions, _tree_shape(node.child))
    return ("coop", node.actions, _tree_shape(node.left), _tree_shape(node.right))


def _tree_flatten(node, actions: frozenset, members: list) -> None:
    """Flatten a maximal same-action-set cooperation chain."""
    if isinstance(node, _CoopNode) and node.actions == actions:
        _tree_flatten(node.left, actions, members)
        _tree_flatten(node.right, actions, members)
    else:
        members.append(node)


def replicated_cluster_count(model: Model) -> int:
    """Number of replica clusters (>= 2 shape-identical cooperation
    siblings) in the model's expanded structure tree."""
    leaves: list[Leaf] = []
    root = _build_structure(expand_aggregations(model.system), leaves, {})
    count = 0

    def walk(node) -> None:
        nonlocal count
        if isinstance(node, Leaf):
            return
        if isinstance(node, _HideNode):
            walk(node.child)
            return
        members: list = []
        _tree_flatten(node, node.actions, members)
        shapes = Counter(_tree_shape(m) for m in members)
        count += sum(1 for c in shapes.values() if c >= 2)
        for m in members:
            walk(m)

    walk(root)
    return count


def has_replicated_symmetry(model: Model) -> bool:
    """True when population-form derivation can aggregate anything."""
    return replicated_cluster_count(model) > 0


# ---------------------------------------------------------------------------
# The population-form deriver
# ---------------------------------------------------------------------------


class _PopulationDeriver(_Deriver):
    """The memoized fast deriver with orbit canonicalization plugged in.

    Everything about transition computation (structure numbering, memo
    tables, float SOS mirrors) is inherited; this subclass only adds
    the symmetry analysis and sets ``_canonical`` so the BFS in
    :meth:`_Deriver.run` explores orbit representatives.
    """

    def __init__(self, model: Model, max_states: int):
        super().__init__(model, max_states)
        self._preintern_leaves()
        self._shape_memo: dict[int, tuple] = {}
        #: Per cluster (post-order, innermost first): the member
        #: leafsets, each a tuple of leaf indices in identical
        #: traversal order across the cluster.
        self._groups: list[list[tuple[int, ...]]] = []
        #: Parallel to ``_groups``: the member node ids (for labels).
        self._group_nodes: list[list[int]] = []
        self._collect_groups(self.root)
        if self._groups:
            self._canonical = self._canonicalize

    # -- symmetry analysis ---------------------------------------------------

    def _preintern_leaves(self) -> None:
        """Intern every leaf's full local derivative set, local-BFS order.

        Shape-identical leaves share the initial derivative and the
        sequential semantics, so this assigns them *identical*
        term -> index tables; comparing interned indices across such
        leaves is then the same as comparing terms, which is what makes
        sorting member sub-tuples meaningful.
        """
        for leaf in self.leaves:
            k = leaf.index
            j = 0
            terms = self.local_terms[k]
            while j < len(terms):
                self._local_transitions(k, j)  # interns targets in order
                j += 1

    def _shape(self, nid: int) -> tuple:
        shape = self._shape_memo.get(nid)
        if shape is None:
            node = self._nodes[nid]
            if isinstance(node, Leaf):
                shape = ("leaf", node.initial)
            elif isinstance(node, _HideNode):
                shape = ("hide", node.actions, self._shape(self._kids[nid][0]))
            else:
                shape = (
                    "coop",
                    node.actions,
                    self._shape(self._kids[nid][0]),
                    self._shape(self._kids[nid][1]),
                )
            self._shape_memo[nid] = shape
        return shape

    def _flatten(self, nid: int, actions: frozenset, members: list[int]) -> None:
        node = self._nodes[nid]
        if isinstance(node, _CoopNode) and node.actions == actions:
            self._flatten(self._kids[nid][0], actions, members)
            self._flatten(self._kids[nid][1], actions, members)
        else:
            members.append(nid)

    def _collect_groups(self, nid: int) -> None:
        node = self._nodes[nid]
        if isinstance(node, Leaf):
            return
        if isinstance(node, _HideNode):
            self._collect_groups(self._kids[nid][0])
            return
        members: list[int] = []
        self._flatten(nid, node.actions, members)
        # Recurse first: nested clusters canonicalize before the
        # enclosing one sorts its member sub-tuples.
        for m in members:
            self._collect_groups(m)
        by_shape: dict[tuple, list[int]] = {}
        for m in members:
            by_shape.setdefault(self._shape(m), []).append(m)
        for ms in by_shape.values():
            if len(ms) >= 2:
                self._group_nodes.append(ms)
                self._groups.append([self._leafsets[m] for m in ms])

    # -- canonicalization ----------------------------------------------------

    def _canonicalize(self, state: tuple[int, ...]) -> tuple[int, ...]:
        out = list(state)
        for leafsets in self._groups:
            subs = sorted(tuple(out[i] for i in ls) for ls in leafsets)
            for ls, sub in zip(leafsets, subs):
                for i, v in zip(ls, sub):
                    out[i] = v
        return tuple(out)

    # -- orbit accounting ----------------------------------------------------

    def orbit_size(self, state: tuple[int, ...]) -> int:
        """Exact number of explicit states in ``state``'s orbit.

        Product over clusters of the multinomial coefficient of the
        member sub-tuple multiset: arrangements at each cluster compose
        independently with the nested clusters' own arrangements (the
        symmetry group is the corresponding iterated wreath product).
        """
        total = 1
        for leafsets in self._groups:
            counts = Counter(tuple(state[i] for i in ls) for ls in leafsets)
            perm = math.factorial(len(leafsets))
            for c in counts.values():
                perm //= math.factorial(c)
            total *= perm
        return total

    # -- labels and population counts ----------------------------------------

    def _local_label(self, leaf: int, local_idx: int) -> str:
        term = self.local_terms[leaf][local_idx]
        return term.name if isinstance(term, Constant) else unparse(term)

    def _node_label(self, nid: int, state) -> str:
        node = self._nodes[nid]
        if isinstance(node, Leaf):
            return self._local_label(node.index, state[node.index])
        if isinstance(node, _HideNode):
            return self._node_label(self._kids[nid][0], state)
        members: list[int] = []
        self._flatten(nid, node.actions, members)
        counted: dict[str, int] = {}
        for m in members:
            label = self._node_label(m, state)
            counted[label] = counted.get(label, 0) + 1
        parts = [
            f"{c}*{label}" if c > 1 else label for label, c in counted.items()
        ]
        return "(" + ", ".join(parts) + ")"

    def population_label(self, state) -> str:
        """Count-form state label, e.g. ``((3*PC, PC1), Medium)``."""
        label = self._node_label(self.root, state)
        return label if label.startswith("(") else "(" + label + ")"

    def _member_config_label(self, group: int, sub: tuple[int, ...]) -> str:
        leafsets = self._groups[group]
        pseudo = [0] * len(self.leaves)
        for i, v in zip(leafsets[0], sub):
            pseudo[i] = v
        return self._node_label(self._group_nodes[group][0], pseudo)

    def orbit_info(self, states: list[tuple[int, ...]]) -> OrbitInfo:
        """Assemble the aggregation metadata for the derived states."""
        sizes = [self.orbit_size(s) for s in states]
        cfg_cols: list[dict[tuple[int, ...], int]] = [{} for _ in self._groups]
        col_labels: list[str] = []
        col_group: list[int] = []
        entries: dict[tuple[int, int], int] = {}
        for i, state in enumerate(states):
            for g, leafsets in enumerate(self._groups):
                for ls in leafsets:
                    sub = tuple(state[i2] for i2 in ls)
                    col = cfg_cols[g].get(sub)
                    if col is None:
                        col = cfg_cols[g][sub] = len(col_labels)
                        col_labels.append(self._member_config_label(g, sub))
                        col_group.append(g)
                    key = (i, col)
                    entries[key] = entries.get(key, 0) + 1
        counts = np.zeros((len(states), len(col_labels)), dtype=np.float64)
        for (i, col), c in entries.items():
            counts[i, col] = c
        return OrbitInfo(
            orbit_sizes=np.asarray(sizes, dtype=np.float64),
            full_states=int(sum(sizes)),
            counts=counts,
            column_labels=tuple(col_labels),
            column_group=np.asarray(col_group, dtype=np.intp),
            group_totals=np.asarray(
                [len(ls) for ls in self._groups], dtype=np.intp
            ),
        )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def derive_population(model: Model, max_states: int = 1_000_000) -> StateSpace:
    """Derive the population-form (orbit-quotient) state space.

    Exact aggregation, not an approximation: the returned chain is the
    ordinary lumping of the explicit chain by the replica-symmetry
    partition, so every projected (population-count) measure agrees
    with the explicit chain's.  ``max_states`` bounds the *aggregated*
    state count — models whose explicit space is astronomically large
    derive fine as long as the quotient fits.

    The result carries ``orbit_info`` / ``population_labels`` attributes
    (see the module docstring).  Timed under ``derive.population``.
    """
    from repro.engine.metrics import get_registry

    registry = get_registry()
    with registry.timer("derive.population") as gauges:
        deriver = _PopulationDeriver(model, max_states)
        space = deriver.run()
        registry.increment("derive.memo_hit", deriver.memo_hits)
        registry.increment("derive.memo_miss", deriver.memo_misses)
        space.orbit_info = deriver.orbit_info(space.states)
        space.population_labels = tuple(
            deriver.population_label(s) for s in space.states
        )
        gauges["n_states"] = space.size
        gauges["full_states"] = min(float(space.orbit_info.full_states), 1e300)
    return space


def population_markov_ir(model: Model, max_states: int = 1_000_000) -> MarkovIR:
    """Lower the population-form space to a labelled :class:`MarkovIR`.

    Labels are the population-count form; the ``orbits`` field carries
    the :class:`OrbitInfo` the trust layer's lumped-derive sentinel and
    the measure-projection helpers consume.
    """
    return lower_population(derive_population(model, max_states=max_states))


def lower_population(space: StateSpace) -> MarkovIR:
    """The :class:`MarkovIR` of a :func:`derive_population` space."""
    from repro.pepa.ctmc import ctmc_of

    chain = ctmc_of(space)
    names = space.action_names
    return MarkovIR(
        generator=chain.generator,
        initial_index=space.initial_state,
        labels=space.population_labels,
        trans_source=space.trans_source,
        trans_target=space.trans_target,
        trans_rate=space.trans_rate,
        trans_action=tuple(names[c] for c in space.trans_action_code),
        orbits=space.orbit_info,
    )


def canonical_partition(
    model: Model,
    space: StateSpace | None = None,
    max_states: int = 1_000_000,
) -> list[tuple[int, ...]]:
    """Canonical orbit key of every state of the *explicit* space.

    The keys live in the population deriver's eagerly-interned index
    space, so they are directly comparable with
    ``derive_population(model).states``: two explicit states share a
    key iff they lie in the same symmetry orbit.  Use as the ``initial``
    partition of :func:`repro.pepa.lumping.lump` to lump exactly by
    orbits, or to project explicit measures onto population states.
    """
    if space is None:
        space = derive(model, max_states=max_states)
    analysis = _PopulationDeriver(model, max_states)
    remap = [
        [analysis.local_index[k][term] for term in space.local_terms[k]]
        for k in range(len(space.leaves))
    ]
    n_leaves = len(remap)
    canonical = analysis._canonicalize if analysis._groups else tuple
    return [
        canonical(tuple(remap[k][s[k]] for k in range(n_leaves)))
        for s in space.states
    ]
