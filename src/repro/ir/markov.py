"""``MarkovIR`` — the explicit labelled-CTMC intermediate representation.

Every frontend whose semantics is a finite continuous-time Markov chain
(PEPA's derivation graph, Bio-PEPA's population CTMC) lowers to this
form: a sparse generator in the row convention, an initial state, and —
when the frontend has them — state labels and a labelled transition
table for simulation and action-reward queries.

The IR is canonically hashable through the engine's content-addressed
cache (:func:`repro.engine.canonical_key`): two models that lower to the
same matrices share every cached solve, whatever frontend produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import IRError

__all__ = ["MarkovIR", "OrbitInfo"]


@dataclass(frozen=True)
class OrbitInfo:
    """Aggregation metadata of a lumped (population-form) CTMC.

    Attached by derive backends that quotient symmetric replicated
    components: each state of the lumped chain represents a whole orbit
    of states of the underlying explicit chain.  The trust layer's
    lumped-derive sentinel validates these invariants on every dispatch.

    Attributes
    ----------
    orbit_sizes:
        ``orbit_sizes[i]`` is the number of explicit states the lumped
        state ``i`` stands for (float64; exact below 2**53).
    full_states:
        Exact total number of reachable explicit states, i.e. the sum
        of the orbit sizes (computed in exact integer arithmetic).
    counts:
        ``counts[i, c]`` is the population count of column ``c``'s
        member configuration in lumped state ``i`` — the numerical
        vector form of the state.
    column_labels:
        Human-readable member-configuration label per column.
    column_group:
        Replica-cluster id per column; columns of one cluster partition
        that cluster's members.
    group_totals:
        ``group_totals[g]`` is the number of replicas in cluster ``g``;
        every row of ``counts`` sums to it over the cluster's columns
        (population conservation).
    """

    orbit_sizes: np.ndarray
    full_states: int
    counts: np.ndarray
    column_labels: tuple[str, ...]
    column_group: np.ndarray
    group_totals: np.ndarray

    @property
    def n_groups(self) -> int:
        return int(self.group_totals.size)

    def expected_populations(self, pi: np.ndarray) -> dict[str, float]:
        """Per member-configuration expected population under ``pi``.

        ``pi`` is a distribution over the *lumped* states (steady-state
        vector, or one row of a transient sweep); the result maps each
        column label to the expected number of replicas sitting in that
        configuration — the natural measure on a population-form chain.
        """
        pi = np.asarray(pi, dtype=np.float64)
        values = pi @ self.counts
        return {
            label: float(values[c])
            for c, label in enumerate(self.column_labels)
        }


@dataclass(frozen=True, eq=False)
class MarkovIR:
    """An explicit labelled CTMC.

    Attributes
    ----------
    generator:
        Sparse ``n x n`` generator ``Q`` (CSR, rows sum to zero,
        self-loops already removed).
    initial_index:
        Index of the initial state (transient/passage analyses start
        from the unit mass there unless given an explicit ``pi0``).
    labels:
        Optional human-readable state labels, ``labels[i]`` for state
        ``i``.  ``None`` when the frontend has no cheap labelling (e.g.
        large population CTMCs).
    trans_source / trans_target / trans_rate / trans_action:
        Optional labelled transition table (parallel arrays / tuple) in
        the frontend's derivation order, *including* self-loops.  Drives
        the SSA backend and per-action reward matrices; ``None`` when
        the frontend only exposes the aggregated generator.
    """

    generator: sp.csr_matrix
    initial_index: int = 0
    labels: tuple[str, ...] | None = None
    trans_source: np.ndarray | None = None
    trans_target: np.ndarray | None = None
    trans_rate: np.ndarray | None = None
    trans_action: tuple[str, ...] | None = None
    #: Lumped-chain aggregation metadata (population-form derive
    #: backends); ``None`` for explicit chains.  Excluded from the
    #: content hash — the lumped generator itself already identifies
    #: the chain.
    orbits: OrbitInfo | None = field(default=None, compare=False)
    #: The frontend's state space the IR was lowered from, when the
    #: frontend keeps it for checks on the IR (PEPA's derive shadow
    #: comparison); not part of the chain's identity.
    _space: object | None = field(
        default=None, repr=False, compare=False, hash=False
    )
    _ssa_tables: list | None = field(
        default=None, repr=False, compare=False, hash=False
    )
    _action_rates: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        n, m = self.generator.shape
        if n != m:
            raise IRError(f"MarkovIR generator must be square, got {n}x{m}")
        if not 0 <= self.initial_index < n:
            raise IRError(f"initial state {self.initial_index} out of range")
        if self.labels is not None and len(self.labels) != n:
            raise IRError(
                f"{len(self.labels)} labels for {n} states"
            )
        table = (self.trans_source, self.trans_target, self.trans_rate)
        if any(t is not None for t in table) and any(t is None for t in table):
            raise IRError("transition table must be given completely or not at all")

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    @property
    def has_transitions(self) -> bool:
        return self.trans_source is not None

    def initial_distribution(self) -> np.ndarray:
        pi0 = np.zeros(self.n_states)
        pi0[self.initial_index] = 1.0
        return pi0

    def generator_defect(self) -> dict:
        """:func:`~repro.numerics.generator.generator_defect` of the
        generator, memoized: one sweep serves the steady backends'
        validation and the trust sentinels of every solve on this IR."""
        memo = getattr(self, "_trust_generator_defect", None)
        if memo is None:
            # Deferred: loading repro.numerics mid-way through repro.ir's
            # import page-faults more in scipy.special and slows cold starts.
            from repro.numerics.generator import generator_defect

            memo = generator_defect(self.generator)
            object.__setattr__(self, "_trust_generator_defect", memo)
        return memo

    def action_rate_matrix(self, action: str) -> sp.csr_matrix:
        """Sparse matrix of total per-``action`` rates between states
        (self-loops included — rewards observe them; memoized)."""
        if not self.has_transitions:
            raise IRError("this MarkovIR carries no labelled transition table")
        memo = self._action_rates.get(action)
        if memo is not None:
            return memo
        keep = [k for k, a in enumerate(self.trans_action) if a == action]
        n = self.n_states
        R = sp.coo_matrix(
            (
                self.trans_rate[keep],
                (self.trans_source[keep], self.trans_target[keep]),
            ),
            shape=(n, n),
        ).tocsr()
        self._action_rates[action] = R
        return R

    def ssa_tables(self) -> list[tuple[np.ndarray, np.ndarray, tuple[str, ...]]]:
        """Per-state jump tables ``(cum_rates, targets, actions)``.

        Self-loops are excluded (they do not change the state), and the
        per-state order is the transition-table order restricted to each
        source — exactly the frontend's derivation order, which keeps
        seeded paths bit-identical to the pre-IR simulators.  Memoized
        on the instance (the table is a pure function of the IR).
        """
        if self._ssa_tables is not None:
            return self._ssa_tables
        if not self.has_transitions:
            raise IRError("this MarkovIR carries no labelled transition table")
        per_state: list[list[int]] = [[] for _ in range(self.n_states)]
        for k in range(self.trans_source.size):
            s, t = int(self.trans_source[k]), int(self.trans_target[k])
            if s != t:
                per_state[s].append(k)
        tables = []
        actions = self.trans_action or ("",) * self.trans_source.size
        for ks in per_state:
            cum = np.cumsum(self.trans_rate[ks]) if ks else np.empty(0)
            targets = self.trans_target[ks].astype(np.intp)
            tables.append((cum, targets, tuple(actions[k] for k in ks)))
        object.__setattr__(self, "_ssa_tables", tables)
        return tables
