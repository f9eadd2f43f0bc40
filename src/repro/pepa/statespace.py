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

The sweep is the hot path of every analysis in the repository.
:class:`_Deriver` encodes a global state as one mixed-radix integer
(leaf ``k``'s local index times a fixed stride), memoizes each structure
node's transitions on the node's own digit slice of that code, and
stores with every transition the change it makes to the code.  It then
expands one BFS level at a time: the frontier's transition lists are
concatenated, destination codes are the source codes plus those
deltas, and new states are numbered by first appearance.  That is the
order a one-transition-at-a-time FIFO walk discovers states in, so the
result is bit-identical to it.  Transitions land in flat ``numpy``
arrays, from which the CTMC layer assembles its CSR generator without
ever materializing :class:`Transition` objects.

:func:`derive_reference` retains the naive single-walk derivation as an
oracle: same SOS rules, no memo, ``Transition`` objects throughout.
The fast path is property-tested and benchmarked against it
(``tests/pepa/test_derivation_fastpath.py``,
``tests/pepa/test_random_models.py``, ``benchmarks/bench_derive.py``),
and ``tests/pepa/test_derive_pinned.py`` pins the bits of a corpus of
derivations, so state orderings, generators and seeded SSA streams
cannot drift.

The result is a :class:`StateSpace`: states, labelled transitions, leaf
metadata, and convenience queries used by the reward and passage-time
layers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count
from operator import itemgetter, mul

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
    Choice,
    Constant,
    Cooperation,
    Hiding,
    Model,
    Prefix,
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


#: Column getters of a transition entry ``(action, value, is_passive, delta)``.
_ACTION, _VALUE, _PASSIVE = (itemgetter(i) for i in range(3))


class _Deriver(_DerivationBase):
    """Memoized compositional derivation, swept one BFS level at a time.

    **State code.**  Leaf ``k`` gets a radix ``R[k]``, an upper bound on
    its local derivatives (:meth:`_radix`), so every interned index it
    can take is below ``R[k]``.  A global state is the mixed-radix integer
    ``sum(state[k] * S[k])`` with ``S[0] = 1`` and
    ``S[k + 1] = S[k] * R[k]``.  Codes are Python ints, so a model whose
    code space exceeds 64 bits (a population model with a hundred
    replicas) runs the same sweep; only the final decode to tuples
    switches the array dtype from ``int64`` to ``object``.

    **Memo.**  The structure tree is numbered post-order; every node
    covers a contiguous leaf range ``[lo, hi)``, so its sub-state is the
    digit slice ``code // S[lo] % (S[hi] // S[lo])``.  Each node's memo
    maps that sub-state code to the node's transition tuple, entries
    ``(action, value, is_passive, delta)``: ``delta`` is the change of
    the global code, ``(target - local) * S[k]`` at leaf ``k`` and the
    sum of both sides' deltas at a synchronization.  It depends only on
    the node's own sub-state, which is what lets the entry be shared by
    every global state that projects onto it.  Replicated components
    make the projections collide constantly, turning the recursive SOS
    walk into dictionary lookups.

    **Level sweep.**  :meth:`run` expands the whole frontier (the states
    discovered by the previous level) at once: it looks up each state's
    root entry, adds each source code to its entries' deltas to get the
    level's destination codes, and numbers them in one pass through a
    :class:`_Numbering`, which numbers a code it has not seen on first
    lookup.  Expanding states in level order and numbering by first
    appearance is the order in which a FIFO walk expanding one
    transition at a time discovers states, so states, transitions and
    action coding equal :func:`derive_reference` bit for bit.  No state
    tuple is built or hashed during the sweep: states are decoded from
    their codes once, at the end, and the rates and actions are read
    off the concatenated entries in one pass each.

    **Canonicalization.**  When ``_canonical`` is set (the population
    deriver), each level's distinct raw destination codes are decoded,
    mapped to their orbit representatives and re-encoded once; the
    level is then numbered by first appearance of the canonical code,
    which is the state a per-transition walk would number.

    Rates travel as plain ``(value, is_passive)`` floats rather than
    :class:`~repro.pepa.semantics.Rate` objects: the cooperation
    arithmetic replicates ``rate_sum`` / ``rate_min`` /
    ``cooperation_rate`` operation-for-operation (same associativity,
    same operand order), so the float rates are bit-identical to the
    reference walk while skipping its dataclass allocations.
    """

    def __init__(self, model: Model, max_states: int):
        super().__init__(model, max_states)
        radices: dict[int, int] = {}
        strides = [1]
        for leaf in self.leaves:
            # Replicas of one aggregation share their initial term object.
            radix = radices.get(id(leaf.initial))
            if radix is None:
                radix = radices[id(leaf.initial)] = self._radix(leaf.initial)
            strides.append(strides[-1] * radix)
        self._strides = strides
        self._nodes: list = []
        self._kids: list[tuple[int, ...]] = []
        self._leafsets: list[tuple[int, ...]] = []
        self._slices: list[tuple[int, int]] = []
        self._memos: list[dict] = []
        self.root = self._number(self.structure)
        self.memo_hits = 0
        self.memo_misses = 0
        # Optional state canonicalization hook: a callable mapping a
        # global state tuple to the representative of its symmetry
        # orbit.  When set (the population-form deriver), the frontier
        # only ever contains one state per orbit; None (the explicit
        # path) leaves the sweep bit-identical to the reference walk.
        self._canonical = None

    def _radix(self, initial: ProcessTerm) -> int:
        """An upper bound on the number of local derivatives of a leaf.

        A derivative is the initial term or the continuation of a prefix
        reachable from it through choices, constant bodies and earlier
        continuations.  Counting them syntactically (constants by name,
        other continuations by identity) needs no SOS and no term
        hashing, and is exact unless two prefixes continue with equal
        anonymous terms.  A term the semantics would reject still counts
        once; the sweep raises for it if and when it reaches it, as the
        reference walk does.
        """
        process_body = self.model.process_body
        derivatives = {initial.name if isinstance(initial, Constant) else id(initial)}
        unfolded: set[str] = set()
        stack = [initial]
        while stack:
            term = stack.pop()
            if isinstance(term, Prefix):
                nxt = term.continuation
                key = nxt.name if isinstance(nxt, Constant) else id(nxt)
                if key not in derivatives:
                    derivatives.add(key)
                    stack.append(nxt)
            elif isinstance(term, Choice):
                stack += (term.left, term.right)
            elif isinstance(term, Constant) and term.name not in unfolded:
                unfolded.add(term.name)
                body = process_body(term.name)
                if body is not None:
                    stack.append(body)
        return len(derivatives)

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
        # Leaves are numbered left to right, so a leafset is a range.
        lo, hi = leafset[0], leafset[-1] + 1
        self._slices.append((self._strides[lo], self._strides[hi] // self._strides[lo]))
        self._memos.append({})
        return nid

    def _encode(self, state: tuple[int, ...]) -> int:
        return sum(map(mul, state, self._strides))

    def _decode(self, codes: list[int]) -> list[tuple[int, ...]]:
        """State tuples of ``codes``, one vectorized digit extraction."""
        dtype = np.int64 if self._strides[-1] < 2**63 else object
        strides = np.array(self._strides, dtype=dtype)[:, None]
        digits = np.array(codes, dtype=dtype) // strides[:-1] % (strides[1:] // strides[:-1])
        return list(zip(*digits.tolist()))

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
        The two sides move disjoint leaves, so a synchronized
        transition's code delta is the sum of theirs.
        """
        out = []
        lshared: dict[str, list] = {}
        rshared: dict[str, list] = {}
        for side, groups in ((lt, lshared), (rt, rshared)):
            for entry in side:
                if entry[0] in shared:
                    group = groups.get(entry[0])
                    if group is None:
                        groups[entry[0]] = [entry]
                    else:
                        group.append(entry)
                else:
                    out.append(entry)
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
            for _a1, v1, _p1, d1 in lefts:
                f1 = v1 / va_l
                for _a2, v2, _p2, d2 in rights:
                    rate = f1 * (v2 / va_r) * shared_min
                    out.append((action, rate, passive, d1 + d2))
        return out

    def _node_transitions(self, nid: int, code: int):
        """Transitions of a structure subtree in the state ``code``.

        Returns a tuple of ``(action, value, is_passive, delta)`` where
        ``value`` is the float rate (or passive weight) and ``delta``
        the change of the global state code.
        """
        low, width = self._slices[nid]
        key = code // low % width
        memo = self._memos[nid]
        result = memo.get(key)
        if result is not None:
            self.memo_hits += 1
            return result
        self.memo_misses += 1
        node = self._nodes[nid]
        if isinstance(node, Leaf):
            result = tuple(
                (
                    action,
                    rate.weight if rate.is_passive else rate.value,
                    rate.is_passive,
                    (target - key) * low,
                )
                for action, rate, target in self._local_transitions(node.index, key)
            )
        elif isinstance(node, _HideNode):
            inner = self._node_transitions(self._kids[nid][0], code)
            hidden = node.actions
            result = tuple(
                (TAU if action in hidden else action, value, passive, delta)
                for action, value, passive, delta in inner
            )
        else:
            lt = self._node_transitions(self._kids[nid][0], code)
            rt = self._node_transitions(self._kids[nid][1], code)
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

    def _canonical_codes(self, raw: list[int], seen: dict[int, int]) -> list[int]:
        """Map raw destination codes to orbit representatives' codes,
        canonicalizing each distinct code once (``seen`` persists across
        levels)."""
        fresh = [c for c in dict.fromkeys(raw) if c not in seen]
        if fresh:
            canon = map(self._canonical, self._decode(fresh))
            seen.update(zip(fresh, map(self._encode, canon)))
        return list(map(seen.__getitem__, raw))

    def run(self) -> StateSpace:
        canon = self._canonical
        initial = self._encode(self.initial if canon is None else canon(self.initial))
        index = _Numbering([initial], self.max_states)
        codes = index.codes
        canonical_of: dict[int, int] = {}
        counts: list[int] = []  # transitions per expanded state
        targets: list[int] = []
        expanded: list[tuple] = []  # root entries, in expansion order
        expand = self._node_transitions
        root = self.root
        done = 0
        while done < len(codes):
            frontier = codes[done:]
            done = len(codes)
            entries = []
            try:
                for code in frontier:
                    entries.append(expand(root, code))
            except Exception:
                # A per-state walk would first have met whatever the
                # states before this one raise; settle those, then this.
                self._number_level(index, targets, frontier, entries, canonical_of)
                raise
            self._number_level(index, targets, frontier, entries, canonical_of)
            counts += map(len, entries)
            expanded += entries
        transitions = list(chain.from_iterable(expanded))
        actions = list(map(_ACTION, transitions))
        names = tuple(dict.fromkeys(actions))
        code_of = {name: i for i, name in enumerate(names)}
        m = len(transitions)
        return StateSpace(
            model=self.model,
            states=self._decode(codes),
            leaves=self.leaves,
            local_terms=self.local_terms,
            trans_source=np.repeat(np.arange(len(counts), dtype=np.intp), counts),
            trans_target=np.array(targets, dtype=np.intp),
            trans_rate=np.fromiter(map(_VALUE, transitions), np.float64, m),
            trans_action_code=np.fromiter(map(code_of.__getitem__, actions), np.intp, m),
            action_names=names,
        )

    def _number_level(self, index, targets, frontier, entries, canonical_of) -> None:
        """Number the destinations of ``entries`` (the root entries of
        ``frontier``, or of a prefix of it) onto ``targets``, and raise
        what a walk that expands one transition at a time raises first:
        a passive top-level activity, or the state past ``max_states``."""
        n_transitions = len(targets)
        dst = [code + delta for code, entry in zip(frontier, entries)
               for _a, _v, _p, delta in entry]
        if self._canonical is not None:
            dst = self._canonical_codes(dst, canonical_of)
        try:
            # Numbers unseen codes in order of first appearance.
            targets += map(index.__getitem__, dst)
        except _LimitReached as limit:
            over = dst.index(limit.code)
            self._raise_first_passive(list(chain.from_iterable(entries))[: over + 1])
            raise self._limit_error(len(index), n_transitions + over) from None
        if any(map(_PASSIVE, chain.from_iterable(entries))):
            self._raise_first_passive(chain.from_iterable(entries))

    def _raise_first_passive(self, transitions) -> None:
        for action, _value, passive, _delta in transitions:
            if passive:
                raise self._top_level_passive_error(action)


class _LimitReached(Exception):
    def __init__(self, code: int):
        self.code = code


class _Numbering(dict):
    """State code -> state number.  Looking up a code not seen before
    numbers it next and appends it to ``codes``, so a pass over a level's
    destinations numbers new states by first appearance; past ``limit``
    states it raises :class:`_LimitReached` instead."""

    def __init__(self, codes: list[int], limit: int):
        super().__init__(zip(codes, count()))
        self.codes = codes
        self.limit = limit

    def __missing__(self, code: int) -> int:
        number = len(self.codes)
        if number >= self.limit:
            raise _LimitReached(code)
        self[code] = number
        self.codes.append(code)
        return number


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
