"""CSL model checking over PEPA CTMCs.

The paper places PEPA next to PRISM (Hinton et al.) in the
quantitative-analysis toolbox; besides exporting chains to PRISM
(:mod:`repro.pepa.export`), this module checks the core of Continuous
Stochastic Logic directly:

    Φ ::= true | ap | ¬Φ | Φ ∧ Φ | Φ ∨ Φ
        | P ⋈ p [ X Φ ]                    (next)
        | P ⋈ p [ Φ U[t1, t2] Φ ]          (time-bounded until)
        | P ⋈ p [ Φ U Φ ]                  (unbounded until)
        | S ⋈ p [ Φ ]                      (steady state)

Atomic propositions are state predicates — usually
:func:`label_ap`/`local_ap` over component derivatives.  Checking is
the standard recursive algorithm: every formula evaluates to the set of
satisfying states; probability operators compute per-start-state
probability vectors:

* **next**: one embedded-DTMC step, ``u = P_embed @ 1_Φ``;
* **bounded until** ``Φ U[0,t] Ψ``: make ``Ψ`` absorbing and ``¬Φ∧¬Ψ``
  absorbing-losing, then one *backward* uniformization sweep gives the
  probability from every start state simultaneously;
* **until** ``Φ U[t1,t2] Ψ`` with ``t1 > 0``: the textbook two-phase
  product — survive inside ``Φ`` until ``t1``, then reach ``Ψ`` through
  ``Φ`` within ``t2 − t1``;
* **unbounded until**: the linear-system limit (absorbing reachability);
* **steady state**: for irreducible chains, ``π(Φ)`` compared once
  (the same verdict for every state).

`prob_*` functions expose the raw vectors for quantitative queries
(`P=? [...]` in PRISM syntax).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import NumericsError, PepaError
from repro.numerics.generator import absorbing, off_diagonal
from repro.numerics.transient import backward_transient
from repro.pepa.ctmc import CTMC

__all__ = [
    "Formula",
    "TrueFormula",
    "Atomic",
    "Not",
    "And",
    "Or",
    "Next",
    "Until",
    "SteadyStateOp",
    "ProbOp",
    "label_ap",
    "local_ap",
    "check",
    "satisfying_states",
    "prob_until",
    "prob_next",
    "prob_steady",
]


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------


class Formula:
    """Base class for CSL state formulas."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class TrueFormula(Formula):
    """``true`` — satisfied everywhere."""


@dataclass(frozen=True)
class Atomic(Formula):
    """An atomic proposition: a predicate over (space, state index)."""

    name: str
    predicate: Callable[[object, int], bool]


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    """Path formula ``X Φ`` (must sit under a :class:`ProbOp`)."""

    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    """Path formula ``Φ U[t1, t2] Ψ``; ``t2 = inf`` for unbounded."""

    left: Formula
    right: Formula
    t1: float = 0.0
    t2: float = float("inf")

    def __post_init__(self):
        if self.t1 < 0 or self.t2 < self.t1:
            raise PepaError(f"bad until interval [{self.t1}, {self.t2}]")


@dataclass(frozen=True)
class ProbOp(Formula):
    """``P ⋈ p [path]`` — probability threshold on a path formula."""

    comparison: str
    threshold: float
    path: Formula

    def __post_init__(self):
        if self.comparison not in (">=", ">", "<=", "<"):
            raise PepaError(f"bad comparison {self.comparison!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise PepaError(f"probability threshold {self.threshold} outside [0, 1]")
        if not isinstance(self.path, (Next, Until)):
            raise PepaError("P operator needs a Next or Until path formula")


@dataclass(frozen=True)
class SteadyStateOp(Formula):
    """``S ⋈ p [Φ]`` — long-run probability threshold."""

    comparison: str
    threshold: float
    operand: Formula

    def __post_init__(self):
        if self.comparison not in (">=", ">", "<=", "<"):
            raise PepaError(f"bad comparison {self.comparison!r}")


def label_ap(label_fragment: str) -> Atomic:
    """AP: the state label contains ``label_fragment``."""
    return Atomic(
        name=f"label~{label_fragment}",
        predicate=lambda space, i: label_fragment in space.state_label(i),
    )


def local_ap(leaf: str, derivative: str) -> Atomic:
    """AP: component ``leaf`` is at local state ``derivative``."""

    def predicate(space, i: int) -> bool:
        k = space.leaf_index(leaf)
        return space.local_label(k, space.states[i][k]) == derivative

    return Atomic(name=f"{leaf}@{derivative}", predicate=predicate)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _indicator(chain: CTMC, states: set[int]) -> np.ndarray:
    z = np.zeros(chain.n_states)
    z[list(states)] = 1.0
    return z


def _compare(values: np.ndarray, comparison: str, threshold: float) -> set[int]:
    if comparison == ">=":
        mask = values >= threshold - 1e-12
    elif comparison == ">":
        mask = values > threshold + 1e-12
    elif comparison == "<=":
        mask = values <= threshold + 1e-12
    else:
        mask = values < threshold - 1e-12
    return set(np.nonzero(mask)[0].tolist())


def prob_next(chain: CTMC, target: set[int]) -> np.ndarray:
    """Per-state probability that the *next* jump lands in ``target``.

    States with no outgoing transitions never jump: probability 0.
    """
    Q = chain.generator
    exit_rates = -Q.diagonal()
    n = chain.n_states
    z = _indicator(chain, target)
    flux = off_diagonal(Q) @ z
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(exit_rates > 0, flux / np.where(exit_rates > 0, exit_rates, 1.0), 0.0)
    return np.clip(u, 0.0, 1.0)


def prob_until(
    chain: CTMC,
    phi: set[int],
    psi: set[int],
    t1: float = 0.0,
    t2: float = float("inf"),
) -> np.ndarray:
    """Per-start-state probability of ``Φ U[t1,t2] Ψ``."""
    n = chain.n_states
    if np.isinf(t2):
        return _prob_until_unbounded(chain, phi, psi)
    # Phase 2: within [0, t2-t1], reach Ψ travelling through Φ.  Make Ψ
    # absorbing (success) and ¬Φ∧¬Ψ absorbing (failure), then a backward
    # sweep of the indicator of Ψ.
    running = phi - psi
    Q2 = absorbing(chain.generator, [s for s in range(n) if s not in running])
    u2 = backward_transient(Q2, _indicator(chain, psi), t2 - t1)
    if t1 == 0.0:
        u = u2
    else:
        # Phase 1: survive inside Φ for t1, then continue with u2 from the
        # state reached.  Outside Φ everything is lost.
        outside = [s for s in range(n) if s not in phi]
        Q1 = absorbing(chain.generator, outside)
        v = u2.copy()
        v[outside] = 0.0
        u = backward_transient(Q1, v, t1)
        u[outside] = 0.0
    return np.clip(u, 0.0, 1.0)


def _prob_until_unbounded(chain: CTMC, phi: set[int], psi: set[int]) -> np.ndarray:
    """Probability of eventually reaching Ψ through Φ (no deadline).

    Uses the standard prob0 precomputation: states of ``Φ \\ Ψ`` that
    cannot reach ``Ψ`` through ``Φ`` (by graph reachability) get
    probability 0 up front, which both prunes work and keeps the linear
    system nonsingular (closed classes inside ``Φ \\ Ψ`` would otherwise
    make ``Q_TT`` singular).
    """
    import scipy.sparse.linalg as spla

    n = chain.n_states
    u = np.zeros(n)
    u[list(psi)] = 1.0
    candidates = phi - psi
    if not candidates:
        return u
    # prob0: backward reachability from Ψ along edges inside Φ\Ψ.
    Q = chain.generator.tocsr()
    R = off_diagonal(Q)
    incoming: dict[int, list[int]] = {}
    for src, dst, val in zip(R.row, R.col, R.data):
        if val > 0:
            incoming.setdefault(int(dst), []).append(int(src))
    can_reach: set[int] = set()
    frontier = list(psi)
    while frontier:
        state = frontier.pop()
        for pred in incoming.get(state, ()):
            if pred in candidates and pred not in can_reach:
                can_reach.add(pred)
                frontier.append(pred)
    trans = sorted(can_reach)
    if not trans:
        return u
    rows_T = Q[trans]
    Q_TT = rows_T[:, trans].tocsc()
    b = np.asarray(rows_T[:, sorted(psi)].sum(axis=1)).ravel()
    try:
        x = spla.splu(Q_TT).solve(-b)
    except RuntimeError as exc:
        raise NumericsError(f"unbounded-until system is singular: {exc}") from exc
    u[trans] = np.clip(x, 0.0, 1.0)
    return u


def prob_steady(chain: CTMC, states: set[int]) -> float:
    """Long-run probability of the state set (irreducible chains)."""
    pi = chain.steady_state().pi
    return float(pi[list(states)].sum())


def satisfying_states(chain: CTMC, formula: Formula) -> set[int]:
    """The set of states satisfying a CSL state formula."""
    space = chain.space
    if isinstance(formula, TrueFormula):
        return set(range(chain.n_states))
    if isinstance(formula, Atomic):
        return {i for i in range(chain.n_states) if formula.predicate(space, i)}
    if isinstance(formula, Not):
        return set(range(chain.n_states)) - satisfying_states(chain, formula.operand)
    if isinstance(formula, And):
        return satisfying_states(chain, formula.left) & satisfying_states(
            chain, formula.right
        )
    if isinstance(formula, Or):
        return satisfying_states(chain, formula.left) | satisfying_states(
            chain, formula.right
        )
    if isinstance(formula, ProbOp):
        path = formula.path
        if isinstance(path, Next):
            values = prob_next(chain, satisfying_states(chain, path.operand))
        else:
            values = prob_until(
                chain,
                satisfying_states(chain, path.left),
                satisfying_states(chain, path.right),
                path.t1,
                path.t2,
            )
        return _compare(values, formula.comparison, formula.threshold)
    if isinstance(formula, SteadyStateOp):
        p = prob_steady(chain, satisfying_states(chain, formula.operand))
        verdict = _compare(np.array([p]), formula.comparison, formula.threshold)
        return set(range(chain.n_states)) if verdict else set()
    if isinstance(formula, (Next, Until)):
        raise PepaError("path formulas must appear under a P operator")
    raise PepaError(f"unknown formula {formula!r}")


def check(chain: CTMC, formula: Formula, state: int | None = None) -> bool:
    """Does ``state`` (default: the initial state) satisfy ``formula``?"""
    sats = satisfying_states(chain, formula)
    s = chain.space.initial_state if state is None else int(state)
    return s in sats
