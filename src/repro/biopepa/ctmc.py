"""Explicit population CTMC semantics of Bio-PEPA models.

For small molecule counts the discrete-stochastic semantics is a finite
CTMC over population vectors.  This back-end enumerates the reachable
population states by breadth-first search (propensities > 0 gate
reachability), builds the sparse generator, and lowers to
:class:`repro.ir.MarkovIR` for steady-state and transient analysis
through the backend registry — mirroring the
Bio-PEPA plug-in's CTMC export, which the paper notes is limited to
~10^11 states (our cap is configurable and much lower by default).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.biopepa.model import BioModel
from repro.errors import BioPepaError, StateSpaceLimitError
from repro.ir import MarkovIR, solve
from repro.numerics.generator import generator_from_rates
from repro.numerics.steady import SteadyStateResult

__all__ = ["population_ctmc", "PopulationCTMC"]


@dataclass(frozen=True)
class VectorChain:
    """A CTMC whose states are species vectors, analysed through the
    backend registry (the shared base of the population and levels
    chains).

    Attributes
    ----------
    states:
        ``states[k]`` is the vector of state ``k`` (species order as in
        the model); state 0 is the initial one.
    generator:
        Sparse generator in the row convention.
    """

    model: BioModel
    states: np.ndarray
    generator: sp.csr_matrix
    _ir: MarkovIR | None = field(
        default=None, repr=False, compare=False, kw_only=True
    )

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def lower(self) -> MarkovIR:
        """Lower to the labelled-CTMC IR (memoized per chain).

        The state vectors label the states; the generator is already
        aggregated, and no per-transition table is needed (the SSA runs
        on the reaction IR, not on the explicit chain).
        """
        if self._ir is None:
            labels = tuple(
                ",".join(str(int(v)) for v in row) for row in self.states
            )
            object.__setattr__(
                self,
                "_ir",
                MarkovIR(generator=self.generator, initial_index=0, labels=labels),
            )
        return self._ir

    def state_index(self, vector: Sequence[float]) -> int:
        """Index of an exact state vector (raises if unreachable)."""
        key = np.asarray(vector, dtype=np.int64)
        matches = np.nonzero((self.states == key).all(axis=1))[0]
        if matches.size == 0:
            raise KeyError(f"state vector {key.tolist()} is not reachable")
        return int(matches[0])

    def steady_state(self, method: str = "direct") -> SteadyStateResult:
        return solve(self.lower(), "steady", backend=method)

    def transient(self, times: Sequence[float], pi0: np.ndarray | None = None) -> np.ndarray:
        return solve(self.lower(), "transient", times=times, pi0=pi0)


@dataclass(frozen=True)
class PopulationCTMC(VectorChain):
    """A CTMC over population vectors: ``states[k]`` holds molecule
    counts, and state 0 is the initial populations."""

    def expected_population(self, distribution: np.ndarray, species: str) -> float:
        """Expected count of ``species`` under a state distribution."""
        j = self.model.species_index(species)
        return float(distribution @ self.states[:, j])


def population_ctmc(model: BioModel, max_states: int = 200_000) -> PopulationCTMC:
    """Enumerate the reachable population CTMC of a Bio-PEPA model.

    Raises
    ------
    StateSpaceLimitError
        When reachability exceeds ``max_states`` — typical for open
        systems with unbounded production; bound the model or use the
        SSA/ODE back-ends instead.
    """
    x0 = model.initial_state()
    if not np.allclose(x0, np.round(x0)):
        raise BioPepaError("population CTMC requires integer initial amounts")
    x0 = np.round(x0).astype(np.int64)
    N = model.stoichiometry_matrix().astype(np.int64)
    init = tuple(int(v) for v in x0)
    index: dict[tuple[int, ...], int] = {init: 0}
    states: list[tuple[int, ...]] = [init]
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    queue: deque[int] = deque([0])
    while queue:
        src = queue.popleft()
        x = np.asarray(states[src], dtype=np.float64)
        props = model.reaction_rates(x)
        for r, a in enumerate(props):
            if a <= 0.0:
                continue
            nxt = states[src] + N[:, r]
            if (np.asarray(nxt) < 0).any():
                rx = model.reactions[r].name
                raise BioPepaError(
                    f"reaction {rx!r} has positive propensity with insufficient "
                    "reactants — its kinetic law does not vanish at zero"
                )
            key = tuple(int(v) for v in nxt)
            dst = index.get(key)
            if dst is None:
                dst = len(states)
                if dst >= max_states:
                    raise StateSpaceLimitError(
                        f"population CTMC exceeds {max_states} states"
                    )
                index[key] = dst
                states.append(key)
                queue.append(dst)
            rows.append(src)
            cols.append(dst)
            vals.append(float(a))
    n = len(states)
    return PopulationCTMC(
        model=model,
        states=np.asarray(states, dtype=np.int64),
        generator=generator_from_rates(n, rows, cols, vals),
    )
