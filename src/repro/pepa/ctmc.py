"""CTMC construction from a derived PEPA state space.

Aggregates parallel transitions into a sparse generator matrix (CSR,
row convention) and lowers the labelled transition system to
:class:`repro.ir.MarkovIR`.  All numerical analyses — steady-state,
transient, per-action rate matrices — delegate to the backend registry
through :func:`repro.ir.solve`; this module holds no numerical code.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import DeadlockError
from repro.ir import MarkovIR, solve
from repro.numerics.generator import generator_from_rates
from repro.numerics.steady import SteadyStateResult
from repro.pepa.statespace import StateSpace

__all__ = ["CTMC", "ctmc_of"]


@dataclass
class CTMC:
    """A continuous-time Markov chain derived from a PEPA model.

    Attributes
    ----------
    space:
        The originating state space (for labels and reward queries).
    generator:
        Sparse ``n x n`` generator ``Q`` (rows sum to zero).
    """

    space: StateSpace
    generator: sp.csr_matrix
    _ir: MarkovIR | None = field(default=None, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    def lower(self) -> MarkovIR:
        """Lower to the labelled-CTMC IR (memoized per chain).

        The transition table keeps self-loops — they matter for action
        throughput and for the jump chain of the stochastic simulator —
        while the generator already has them aggregated away.
        """
        if self._ir is None:
            space = self.space
            names = space.action_names
            self._ir = MarkovIR(
                generator=self.generator,
                initial_index=space.initial_state,
                labels=tuple(space.state_label(i) for i in range(space.size)),
                trans_source=space.trans_source,
                trans_target=space.trans_target,
                trans_rate=space.trans_rate,
                trans_action=tuple([names[c] for c in space.trans_action_code.tolist()]),
            )
        return self._ir

    def steady_state(self, method: str = "direct", **kwargs) -> SteadyStateResult:
        """Equilibrium distribution via the ``steady`` capability of the
        backend registry (``direct``/``gmres``/``power``...).

        Raises
        ------
        DeadlockError
            If the chain has absorbing states (use passage-time analysis
            for those models instead).
        """
        deadlocks = self.space.deadlocked_states()
        if deadlocks:
            labels = ", ".join(self.space.state_label(s) for s in deadlocks[:3])
            raise DeadlockError(
                f"model has {len(deadlocks)} deadlocked state(s) (e.g. {labels}); "
                "the steady state is degenerate — use passage-time analysis"
            )
        return solve(self.lower(), "steady", backend=method, **kwargs)

    def transient(
        self,
        times: Sequence[float],
        pi0: Sequence[float] | None = None,
        epsilon: float = 1e-12,
    ) -> np.ndarray:
        """Transient distributions ``pi(t)`` for each requested time.

        ``pi0`` defaults to all mass on the initial state.
        """
        return solve(self.lower(), "transient", times=times, pi0=pi0, epsilon=epsilon)

    def action_rate_matrix(self, action: str) -> sp.csr_matrix:
        """Sparse matrix ``R_a`` with ``R_a[i, j]`` the total rate of
        ``action``-transitions from state ``i`` to ``j`` (cached)."""
        return self.lower().action_rate_matrix(action)

    def action_exit_rates(self, action: str) -> np.ndarray:
        """Vector of total ``action`` rates out of each state."""
        return np.asarray(self.action_rate_matrix(action).sum(axis=1)).ravel()


def ctmc_of(space: StateSpace) -> CTMC:
    """Aggregate the labelled transition system into a CTMC.

    Parallel transitions (same source/target, any action) sum their
    rates — the race-condition semantics of PEPA.  The aggregation is
    memoized on the state-space instance (the generator is a pure
    function of it) and timed in the ``ctmc_of`` metrics entry.
    """
    from repro.engine.metrics import get_registry

    memo = getattr(space, "_ctmc_memo", None)
    if memo is not None:
        get_registry().increment("ctmc_of.memo_hit")
        return memo
    with get_registry().timer("ctmc_of") as gauges:
        chain = _aggregate(space)
        gauges["n_states"] = chain.n_states
    space._ctmc_memo = chain
    return chain


def _aggregate(space: StateSpace) -> CTMC:
    from repro.engine.metrics import get_registry

    n = space.size
    rows = space.trans_source
    cols = space.trans_target
    vals = space.trans_rate
    # Self-loops do not change the distribution of a CTMC: drop them so
    # the generator's diagonal reflects the true exit rates.
    keep = rows != cols
    with get_registry().timer("derive.csr_assembly") as gauges:
        Q = generator_from_rates(n, rows[keep], cols[keep], vals[keep])
        gauges["nnz"] = Q.nnz
    return CTMC(space=space, generator=Q)
