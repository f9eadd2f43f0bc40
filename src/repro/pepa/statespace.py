"""Explicit state-space derivation for PEPA models.

A PEPA model's cooperation/hiding structure is static: only the local
states of the sequential components at the leaves evolve.  Derivation
therefore proceeds in two phases:

1. The system equation is analyzed into a *structure tree* of
   cooperation and hiding nodes over sequential leaves.
2. A breadth-first reachability sweep enumerates global states — tuples
   of interned local-derivative indices, one per leaf (design decision
   D3: interning keeps states tiny and hashable) — applying the SOS
   rules of :mod:`repro.pepa.semantics` at each node.

The sweep is the hot path of every analysis in the repository, so it is
memoized compositionally: each structure node's transition set depends
only on the *sub-state* under that node (the projection of the global
state onto its leaves), and replicated-component models revisit the
same sub-states constantly.  :class:`_Deriver` keys a per-node memo
table on that projection and accumulates transitions straight into flat
``numpy`` arrays, from which the CTMC layer assembles its CSR generator
without ever materializing :class:`Transition` objects.

:func:`derive_reference` retains the naive single-walk derivation as an
oracle: same SOS rules, no memo, ``Transition`` objects throughout.
The fast path is property-tested and benchmarked against it
(``tests/pepa/test_derivation_fastpath.py``,
``benchmarks/bench_derive.py``) and produces bit-identical state
orderings, generators and seeded SSA streams.

The result is a :class:`StateSpace`: states, labelled transitions, leaf
metadata, and convenience queries used by the reward and passage-time
layers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro.errors import (
    CooperationError,
    IllFormedModelError,
    StateSpaceLimitError,
)
from repro.pepa.semantics import (
    TAU,
    LocalTransition,
    PassiveRate,
    Rate,
    SequentialSemantics,
    cooperation_rate,
    rate_sum,
)
from repro.pepa.syntax import (
    Constant,
    Cooperation,
    Hiding,
    Model,
    ProcessTerm,
    expand_aggregations,
    unparse,
)

__all__ = ["derive", "derive_reference", "StateSpace", "Transition", "Leaf"]


# ---------------------------------------------------------------------------
# Structure tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A sequential component position in the system equation."""

    index: int
    name: str
    initial: ProcessTerm


@dataclass(frozen=True)
class _CoopNode:
    left: object
    right: object
    actions: frozenset[str]


@dataclass(frozen=True)
class _HideNode:
    child: object
    actions: frozenset[str]


def _build_structure(term: ProcessTerm, leaves: list[Leaf], counters: dict[str, int]):
    """Split the system equation into static structure and leaves.

    Anything that is not a Cooperation or Hiding node at the top of a
    subterm becomes a sequential leaf; the sequential-only restriction
    below cooperation is enforced later during local derivation.
    """
    if isinstance(term, Cooperation):
        left = _build_structure(term.left, leaves, counters)
        right = _build_structure(term.right, leaves, counters)
        return _CoopNode(left, right, frozenset(term.actions))
    if isinstance(term, Hiding):
        child = _build_structure(term.process, leaves, counters)
        return _HideNode(child, frozenset(term.actions))
    base = term.name if isinstance(term, Constant) else "Component"
    n = counters.get(base, 0)
    counters[base] = n + 1
    name = base if n == 0 else f"{base}#{n}"
    leaf = Leaf(len(leaves), name, term)
    leaves.append(leaf)
    return leaf


# ---------------------------------------------------------------------------
# State space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    """A global transition ``source --(action, rate)--> target``."""

    source: int
    target: int
    action: str
    rate: float


@dataclass(eq=False)
class StateSpace:
    """The derived labelled transition system of a PEPA model.

    Primary transition storage is four flat parallel arrays —
    ``trans_source``/``trans_target``/``trans_rate`` plus interned
    action codes — so the CTMC layer assembles its CSR generator
    directly from numpy buffers.  The :class:`Transition`-object view
    (:attr:`transitions`, :meth:`outgoing`) is materialized lazily for
    the label-oriented consumers (derivation graphs, probes, exporters).

    Attributes
    ----------
    model:
        The model this space was derived from.
    states:
        ``states[i]`` is the tuple of local-derivative indices, one per
        leaf, identifying global state ``i``.  State 0 is initial.
    leaves:
        Leaf metadata, aligned with state-tuple positions.
    local_terms:
        ``local_terms[k][j]`` is the ``j``-th local derivative (a
        sequential process term) of leaf ``k``.
    trans_source, trans_target, trans_rate, trans_action_code:
        Parallel arrays, one entry per global transition in derivation
        order.  Parallel edges are *not* merged here — the CTMC layer
        aggregates; the derivation graph keeps them.
    action_names:
        Decode table for ``trans_action_code``, in first-use order.
    """

    model: Model
    states: list[tuple[int, ...]]
    leaves: list[Leaf]
    local_terms: list[list[ProcessTerm]]
    trans_source: np.ndarray
    trans_target: np.ndarray
    trans_rate: np.ndarray
    trans_action_code: np.ndarray
    action_names: tuple[str, ...]
    _transitions: list[Transition] | None = field(default=None, repr=False)
    _out: list[list[Transition]] | None = field(default=None, repr=False)
    _index: dict[tuple[int, ...], int] | None = field(default=None, repr=False)
    _labels: list[list[str]] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_transitions(
        cls,
        model: Model,
        states: list[tuple[int, ...]],
        transitions: list[Transition],
        leaves: list[Leaf],
        local_terms: list[list[ProcessTerm]],
    ) -> "StateSpace":
        """Build a space from a ``Transition`` list (the reference path)."""
        m = len(transitions)
        codes: dict[str, int] = {}
        names: list[str] = []
        code_arr = np.empty(m, dtype=np.intp)
        for i, tr in enumerate(transitions):
            code = codes.get(tr.action)
            if code is None:
                code = codes[tr.action] = len(names)
                names.append(tr.action)
            code_arr[i] = code
        space = cls(
            model=model,
            states=states,
            leaves=leaves,
            local_terms=local_terms,
            trans_source=np.fromiter((t.source for t in transitions), np.intp, m),
            trans_target=np.fromiter((t.target for t in transitions), np.intp, m),
            trans_rate=np.fromiter((t.rate for t in transitions), np.float64, m),
            trans_action_code=code_arr,
            action_names=tuple(names),
        )
        space._transitions = list(transitions)
        return space

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of reachable global states."""
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        """Number of global transitions (parallel edges counted apart)."""
        return int(self.trans_source.size)

    @property
    def initial_state(self) -> int:
        return 0

    @property
    def actions(self) -> frozenset[str]:
        """All action types labelling at least one transition."""
        return frozenset(self.action_names)

    @property
    def transitions(self) -> list[Transition]:
        """The ``Transition``-object view, built on first use."""
        if self._transitions is None:
            names = self.action_names
            self._transitions = [
                Transition(int(s), int(t), names[c], float(r))
                for s, t, c, r in zip(
                    self.trans_source,
                    self.trans_target,
                    self.trans_action_code,
                    self.trans_rate,
                )
            ]
        return self._transitions

    def outgoing(self, state: int) -> list[Transition]:
        if self._out is None:
            out: list[list[Transition]] = [[] for _ in self.states]
            for tr in self.transitions:
                out[tr.source].append(tr)
            self._out = out
        return self._out[state]

    def state_index(self, local_indices: tuple[int, ...]) -> int | None:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        return self._index.get(local_indices)

    def deadlocked_states(self) -> list[int]:
        """States the CTMC can never leave.

        A state counts as deadlocked when it has no outgoing transition
        that *changes* the state: pure self-loops do not move the
        process, so a state whose only activities are self-loops is
        absorbing exactly like one with no activities at all.
        """
        src = self.trans_source
        proper = src[src != self.trans_target]
        has_exit = np.zeros(self.size, dtype=bool)
        has_exit[proper] = True
        return [int(i) for i in np.flatnonzero(~has_exit)]

    def exit_rate(self, state: int) -> float:
        """Total rate of leaving ``state`` — the CTMC holding rate.

        Self-loops are excluded: a transition with ``source == target``
        changes neither the state nor the distribution over states, so
        it contributes to neither the holding time nor the jump
        probabilities, and ``exit_rate(i)`` always equals
        ``-generator[i, i]``.
        """
        mask = (self.trans_source == state) & (self.trans_target != state)
        return float(self.trans_rate[mask].sum())

    # -- leaf-oriented queries -------------------------------------------------

    def leaf_index(self, name: str) -> int:
        for leaf in self.leaves:
            if leaf.name == name:
                return leaf.index
        raise KeyError(f"no component named {name!r}; have "
                       f"{[leaf.name for leaf in self.leaves]}")

    def local_term_of(self, state: int, leaf: int) -> ProcessTerm:
        """The local derivative of leaf ``leaf`` in global state ``state``."""
        return self.local_terms[leaf][self.states[state][leaf]]

    def _local_labels(self) -> list[list[str]]:
        """``[k][j]``: the label of leaf ``k``'s ``j``-th local derivative."""
        if self._labels is None:
            self._labels = [
                [t.name if isinstance(t, Constant) else unparse(t) for t in terms]
                for terms in self.local_terms
            ]
        return self._labels

    def local_label(self, leaf: int, local_index: int) -> str:
        return self._local_labels()[leaf][local_index]

    def state_label(self, state: int) -> str:
        """Human-readable label, e.g. ``(Client_think, Server)``."""
        parts = [names[j] for names, j in zip(self._local_labels(), self.states[state])]
        return "(" + ", ".join(parts) + ")"

    def states_where(self, predicate) -> list[int]:
        """All state indices satisfying ``predicate(space, index)``."""
        return [i for i in range(self.size) if predicate(self, i)]

    def states_with_local(self, leaf: int | str, term_name: str) -> list[int]:
        """States in which the given leaf is at the local derivative whose
        label equals ``term_name`` (a constant name or unparsed term)."""
        k = self.leaf_index(leaf) if isinstance(leaf, str) else leaf
        known = self._local_labels()[k]
        matching = {j for j, label in enumerate(known) if label == term_name}
        if not matching:
            raise KeyError(
                f"leaf {self.leaves[k].name!r} has no local state {term_name!r}; "
                f"known local states: {known}"
            )
        return [i for i, s in enumerate(self.states) if s[k] in matching]


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


class _DerivationBase:
    """Structure analysis and local-transition interning shared by the
    memoized fast deriver and the naive reference deriver."""

    def __init__(self, model: Model, max_states: int):
        self.model = model
        self.max_states = max_states
        self.semantics = SequentialSemantics(model)
        leaves: list[Leaf] = []
        system = expand_aggregations(model.system)
        self.structure = _build_structure(system, leaves, {})
        self.leaves = leaves
        # Interning tables: term -> local index, and the reverse list.
        self.local_index: list[dict[ProcessTerm, int]] = [dict() for _ in leaves]
        self.local_terms: list[list[ProcessTerm]] = [[] for _ in leaves]
        self.initial = tuple(self._intern(l.index, l.initial) for l in leaves)
        # Cache of local transitions in interned form:
        # (leaf, local_idx) -> tuple[(action, Rate, target_local_idx)]
        self._local_cache: dict[tuple[int, int], tuple] = {}

    def _intern(self, leaf: int, term: ProcessTerm) -> int:
        table = self.local_index[leaf]
        idx = table.get(term)
        if idx is None:
            idx = len(self.local_terms[leaf])
            table[term] = idx
            self.local_terms[leaf].append(term)
        return idx

    def _local_transitions(self, leaf: int, local_idx: int):
        key = (leaf, local_idx)
        cached = self._local_cache.get(key)
        if cached is None:
            term = self.local_terms[leaf][local_idx]
            raw: tuple[LocalTransition, ...] = self.semantics.transitions(term)
            cached = tuple(
                (tr.action, tr.rate, self._intern(leaf, tr.target)) for tr in raw
            )
            self._local_cache[key] = cached
        return cached

    @staticmethod
    def _apparent(action: str, entries: list) -> Rate:
        total: Rate | None = None
        for rate, _upd in entries:
            try:
                total = rate if total is None else rate_sum(total, rate)
            except CooperationError as exc:
                raise CooperationError(
                    f"apparent rate of shared action {action!r} is undefined: {exc}"
                ) from exc
        assert total is not None
        return total

    @staticmethod
    def _combine_cooperation(lt, rt, shared: frozenset[str], apparent) -> list:
        """SOS cooperation rule over the two sides' transition lists.

        Shared actions iterate in the *left side's enablement order*
        (not set-intersection hash order), so the transition order — and
        with it state numbering, the cached generator and seeded SSA
        streams — is independent of ``PYTHONHASHSEED``.
        """
        out = []
        for entry in lt:
            if entry[0] not in shared:
                out.append(entry)
        for entry in rt:
            if entry[0] not in shared:
                out.append(entry)
        if shared:
            # Group the shared-action transitions per side.
            lshared: dict[str, list] = {}
            rshared: dict[str, list] = {}
            for action, rate, upd in lt:
                if action in shared:
                    lshared.setdefault(action, []).append((rate, upd))
            for action, rate, upd in rt:
                if action in shared:
                    rshared.setdefault(action, []).append((rate, upd))
            for action, lefts in lshared.items():
                rights = rshared.get(action)
                if rights is None:
                    continue
                ra_l = apparent(action, lefts)
                ra_r = apparent(action, rights)
                for r1, u1 in lefts:
                    for r2, u2 in rights:
                        rate = cooperation_rate(r1, ra_l, r2, ra_r)
                        out.append((action, rate, u1 + u2))
        return out

    def _limit_error(self, n_states: int, n_transitions: int) -> StateSpaceLimitError:
        return StateSpaceLimitError(
            f"state space exceeds the configured limit of {self.max_states} "
            f"states (derivation stopped after reaching {n_states} states and "
            f"{n_transitions} transitions; no partial state space is retained)"
        )

    def _top_level_passive_error(self, action: str) -> IllFormedModelError:
        return IllFormedModelError(
            f"action {action!r} remains passive at the top level of the "
            "system equation; every passive activity must cooperate "
            "with an active partner"
        )


def _grow(arr: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty(capacity, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


class _Deriver(_DerivationBase):
    """Memoized compositional derivation with flat-array accumulation.

    The structure tree is numbered post-order into parallel lists so the
    recursion works on integer node ids.  Each node's memo table maps
    the sub-state signature — the projection of the global state onto
    the leaves under that node, extracted with a precompiled
    ``itemgetter`` — to the node's transition tuple.  Replicated
    components make these projections collide constantly, turning the
    recursive SOS walk into dictionary lookups.

    On this path rates travel as plain ``(value, is_passive)`` floats
    rather than :class:`~repro.pepa.semantics.Rate` objects: the
    cooperation arithmetic below replicates ``rate_sum`` / ``rate_min``
    / ``cooperation_rate`` operation-for-operation (same associativity,
    same operand order), so the resulting float rates are bit-identical
    to the reference walk while skipping the dataclass allocations that
    dominate its profile.
    """

    def __init__(self, model: Model, max_states: int):
        super().__init__(model, max_states)
        self._nodes: list = []
        self._kids: list[tuple[int, ...]] = []
        self._leafsets: list[tuple[int, ...]] = []
        self._getters: list = []
        self._memos: list[dict] = []
        self.root = self._number(self.structure)
        self.memo_hits = 0
        self.memo_misses = 0
        # (leaf, local_idx) -> tuple[(action, value, is_passive, updates)]
        self._fast_local_cache: dict[tuple[int, int], tuple] = {}
        # Optional state canonicalization hook: a callable mapping a
        # global state tuple to the representative of its symmetry
        # orbit.  When set (the population-form deriver), the BFS
        # frontier only ever contains one state per orbit; None (the
        # explicit path) leaves the sweep bit-identical to the
        # reference walk.
        self._canonical = None

    def _number(self, node) -> int:
        if isinstance(node, Leaf):
            kids: tuple[int, ...] = ()
            leafset: tuple[int, ...] = (node.index,)
        elif isinstance(node, _HideNode):
            kids = (self._number(node.child),)
            leafset = self._leafsets[kids[0]]
        elif isinstance(node, _CoopNode):
            kids = (self._number(node.left), self._number(node.right))
            leafset = self._leafsets[kids[0]] + self._leafsets[kids[1]]
        else:  # pragma: no cover - _build_structure emits nothing else
            raise AssertionError(f"unknown structure node {node!r}")
        nid = len(self._nodes)
        self._nodes.append(node)
        self._kids.append(kids)
        self._leafsets.append(leafset)
        # itemgetter with one index returns the bare element — a cheaper
        # memo key than a 1-tuple, and still unique per sub-state.
        self._getters.append(itemgetter(*leafset))
        self._memos.append({})
        return nid

    def _fast_local(self, leaf: int, local_idx: int):
        key = (leaf, local_idx)
        cached = self._fast_local_cache.get(key)
        if cached is None:
            cached = tuple(
                (
                    action,
                    rate.weight if rate.is_passive else rate.value,
                    rate.is_passive,
                    ((leaf, tgt),),
                )
                for action, rate, tgt in self._local_transitions(leaf, local_idx)
            )
            self._fast_local_cache[key] = cached
        return cached

    @staticmethod
    def _apparent_fast(action: str, entries: list) -> tuple[float, bool]:
        """Float mirror of :meth:`_apparent`: same left-associated sum."""
        first = entries[0]
        total, passive = first[1], first[2]
        for entry in entries[1:]:
            if entry[2] is not passive:
                raise CooperationError(
                    f"apparent rate of shared action {action!r} is undefined: "
                    "a component enables both active and passive activities "
                    "of the same action type; the apparent rate is undefined"
                )
            total += entry[1]
        return total, passive

    @classmethod
    def _combine_fast(cls, lt, rt, shared: frozenset[str]) -> list:
        """Float mirror of :meth:`_combine_cooperation`.

        Same transition order (unsynchronized left, unsynchronized
        right, then shared actions in the left side's enablement order)
        and the same multiplication order as ``cooperation_rate``, so
        rates and orderings are bit-identical to the reference walk.
        """
        out = []
        for entry in lt:
            if entry[0] not in shared:
                out.append(entry)
        for entry in rt:
            if entry[0] not in shared:
                out.append(entry)
        if shared:
            lshared: dict[str, list] = {}
            rshared: dict[str, list] = {}
            for entry in lt:
                if entry[0] in shared:
                    lshared.setdefault(entry[0], []).append(entry)
            for entry in rt:
                if entry[0] in shared:
                    rshared.setdefault(entry[0], []).append(entry)
            for action, lefts in lshared.items():
                rights = rshared.get(action)
                if rights is None:
                    continue
                va_l, pa_l = cls._apparent_fast(action, lefts)
                va_r, pa_r = cls._apparent_fast(action, rights)
                if pa_l and pa_r:
                    shared_min, passive = min(va_l, va_r), True
                elif pa_l:
                    shared_min, passive = va_r, False
                elif pa_r:
                    shared_min, passive = va_l, False
                else:
                    shared_min, passive = min(va_l, va_r), False
                for _a1, v1, _p1, u1 in lefts:
                    f1 = v1 / va_l
                    for _a2, v2, _p2, u2 in rights:
                        rate = f1 * (v2 / va_r) * shared_min
                        out.append((action, rate, passive, u1 + u2))
        return out

    def _node_transitions(self, nid: int, state: tuple[int, ...]):
        """Transitions of a structure subtree in a given global state.

        Returns a tuple of ``(action, value, is_passive, updates)``
        where ``value`` is the float rate (or passive weight) and
        ``updates`` is a tuple of ``(leaf_index, new_local_index)``
        pairs.
        """
        memo = self._memos[nid]
        key = self._getters[nid](state)
        result = memo.get(key)
        if result is not None:
            self.memo_hits += 1
            return result
        self.memo_misses += 1
        node = self._nodes[nid]
        if isinstance(node, Leaf):
            result = self._fast_local(node.index, state[node.index])
        elif isinstance(node, _HideNode):
            inner = self._node_transitions(self._kids[nid][0], state)
            hidden = node.actions
            result = tuple(
                (TAU if action in hidden else action, value, passive, upd)
                for action, value, passive, upd in inner
            )
        else:
            lt = self._node_transitions(self._kids[nid][0], state)
            rt = self._node_transitions(self._kids[nid][1], state)
            shared = node.actions
            if not shared:
                # Pure interleaving (e.g. `||` and expanded replica
                # arrays): left entries then right entries, exactly what
                # _combine_fast produces for an empty cooperation set.
                result = lt + rt
            else:
                result = tuple(self._combine_fast(lt, rt, shared))
        memo[key] = result
        return result

    def run(self) -> StateSpace:
        canon = self._canonical
        initial = self.initial if canon is None else canon(self.initial)
        states: list[tuple[int, ...]] = [initial]
        index: dict[tuple[int, ...], int] = {initial: 0}
        queue: deque[int] = deque([0])
        capacity = 256
        src = np.empty(capacity, dtype=np.intp)
        dst = np.empty(capacity, dtype=np.intp)
        rates = np.empty(capacity, dtype=np.float64)
        acts = np.empty(capacity, dtype=np.intp)
        m = 0
        action_codes: dict[str, int] = {}
        action_names: list[str] = []
        node_transitions = self._node_transitions
        root = self.root
        max_states = self.max_states
        while queue:
            s = queue.popleft()
            state = states[s]
            for action, value, passive, updates in node_transitions(root, state):
                if passive:
                    raise self._top_level_passive_error(action)
                if len(updates) == 1:
                    leaf_idx, local_idx = updates[0]
                    key = state[:leaf_idx] + (local_idx,) + state[leaf_idx + 1:]
                else:
                    new_state = list(state)
                    for leaf_idx, local_idx in updates:
                        new_state[leaf_idx] = local_idx
                    key = tuple(new_state)
                if canon is not None:
                    key = canon(key)
                d = index.get(key)
                if d is None:
                    d = len(states)
                    if d >= max_states:
                        raise self._limit_error(len(states), m)
                    index[key] = d
                    states.append(key)
                    queue.append(d)
                code = action_codes.get(action)
                if code is None:
                    code = action_codes[action] = len(action_names)
                    action_names.append(action)
                if m == capacity:
                    capacity *= 2
                    src = _grow(src, capacity)
                    dst = _grow(dst, capacity)
                    rates = _grow(rates, capacity)
                    acts = _grow(acts, capacity)
                src[m] = s
                dst[m] = d
                rates[m] = value
                acts[m] = code
                m += 1
        return StateSpace(
            model=self.model,
            states=states,
            leaves=self.leaves,
            local_terms=self.local_terms,
            trans_source=src[:m].copy(),
            trans_target=dst[:m].copy(),
            trans_rate=rates[:m].copy(),
            trans_action_code=acts[:m].copy(),
            action_names=tuple(action_names),
        )


class _ReferenceDeriver(_DerivationBase):
    """The naive derivation: a fresh recursive SOS walk per state, with
    ``Transition`` objects on the hot path and no memoization.  Retained
    as the oracle the fast path is property-tested and benchmarked
    against; must stay semantically identical, only slower."""

    def _node_transitions(self, node, state: tuple[int, ...]):
        if isinstance(node, Leaf):
            k = node.index
            return [
                (action, rate, ((k, tgt),))
                for action, rate, tgt in self._local_transitions(k, state[k])
            ]
        if isinstance(node, _HideNode):
            inner = self._node_transitions(node.child, state)
            return [
                (TAU if action in node.actions else action, rate, upd)
                for action, rate, upd in inner
            ]
        if isinstance(node, _CoopNode):
            lt = self._node_transitions(node.left, state)
            rt = self._node_transitions(node.right, state)
            return self._combine_cooperation(lt, rt, node.actions, self._apparent)
        raise AssertionError(f"unknown structure node {node!r}")

    def run(self) -> StateSpace:
        states: list[tuple[int, ...]] = [self.initial]
        index: dict[tuple[int, ...], int] = {self.initial: 0}
        transitions: list[Transition] = []
        queue: deque[int] = deque([0])
        while queue:
            src = queue.popleft()
            state = states[src]
            for action, rate, updates in self._node_transitions(self.structure, state):
                if isinstance(rate, PassiveRate):
                    raise self._top_level_passive_error(action)
                new_state = list(state)
                for leaf_idx, local_idx in updates:
                    new_state[leaf_idx] = local_idx
                key = tuple(new_state)
                dst = index.get(key)
                if dst is None:
                    dst = len(states)
                    if dst >= self.max_states:
                        raise self._limit_error(len(states), len(transitions))
                    index[key] = dst
                    states.append(key)
                    queue.append(dst)
                transitions.append(Transition(src, dst, action, rate.value))
        return StateSpace.from_transitions(
            model=self.model,
            states=states,
            transitions=transitions,
            leaves=self.leaves,
            local_terms=self.local_terms,
        )


def derive(model: Model, max_states: int = 1_000_000) -> StateSpace:
    """Derive the full reachable state space of a PEPA model.

    Runs the memoized fast path (:class:`_Deriver`).  Every call is
    timed in the ``derive`` metrics entry with
    ``n_states``/``n_transitions`` gauges, and memo-table effectiveness
    is counted under ``derive.memo_hit`` / ``derive.memo_miss``.

    A derivation that exceeds ``max_states`` raises
    :class:`repro.errors.StateSpaceLimitError` carrying the reached
    state/transition counts, so no partially-derived space can escape.

    Parameters
    ----------
    model:
        A parsed :class:`repro.pepa.syntax.Model`.
    max_states:
        Hard cap guarding against state-space explosion; exceeding it
        raises :class:`repro.errors.StateSpaceLimitError` rather than
        exhausting memory.
    """
    from repro.engine.metrics import get_registry

    registry = get_registry()
    with registry.timer("derive") as gauges:
        deriver = _Deriver(model, max_states)
        space = deriver.run()
        registry.increment("derive.memo_hit", deriver.memo_hits)
        registry.increment("derive.memo_miss", deriver.memo_misses)
        gauges["n_states"] = space.size
        gauges["n_transitions"] = space.n_transitions
    return space


def derive_reference(model: Model, max_states: int = 1_000_000) -> StateSpace:
    """Naive reference derivation (no memoization, no flat arrays).

    Semantically identical to :func:`derive` — same state ordering, same
    transition sequence — but recomputes every structure node per state.
    Timed under ``derive.naive``.  Exists as the oracle for the fast
    path's property tests and benchmarks, which call it directly.
    """
    from repro.engine.metrics import get_registry

    with get_registry().timer("derive.naive") as gauges:
        space = _ReferenceDeriver(model, max_states).run()
        gauges["n_states"] = space.size
        gauges["n_transitions"] = space.n_transitions
    return space
