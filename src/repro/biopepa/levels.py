"""Bio-PEPA's CTMC-with-levels semantics.

The Bio-PEPA plug-in's discrete analysis does not track molecule counts
directly: each species is discretized into *levels* of concentration
step ``h``, with a maximum amount bounding the level count.  A reaction
moves participants by their stoichiometry *in levels*, and fires with
rate ``law(concentrations) / h`` (one level step consumes ``h`` units of
concentration, so dividing by ``h`` preserves the continuous flux).

With ``h = 1`` and caps that never bind, the levels chain coincides
exactly with the molecule-count CTMC of :mod:`repro.biopepa.ctmc`
(property-tested); smaller ``h`` refines the lattice toward the ODE
limit.  Caps are enforced by *blocking*: a reaction that would push any
species above its maximum level (or below zero) is disabled in that
state — the boundary behaviour of the plug-in.

Both chains share :class:`~repro.biopepa.ctmc.VectorChain`: they lower
to :class:`repro.ir.MarkovIR` and solve through the backend registry.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.biopepa.ctmc import VectorChain
from repro.biopepa.model import BioModel
from repro.errors import BioPepaError, StateSpaceLimitError
from repro.numerics.generator import generator_from_rates

__all__ = ["levels_ctmc", "LevelsCTMC"]


@dataclass(frozen=True)
class LevelsCTMC(VectorChain):
    """A CTMC over species-level vectors.

    Attributes
    ----------
    states:
        ``states[k]`` is the level vector of state ``k`` (species order
        as in the model); concentrations are ``states * step``.
    step:
        The concentration step ``h``.
    max_levels:
        Per-species level cap, aligned with the species order.
    """

    step: float
    max_levels: np.ndarray

    def concentrations(self, state_index: int) -> np.ndarray:
        """Continuous concentrations of one state."""
        return self.states[state_index] * self.step

    def expected_concentration(self, distribution: np.ndarray, species: str) -> float:
        """Expected concentration of ``species`` under a distribution."""
        j = self.model.species_index(species)
        return float(distribution @ self.states[:, j]) * self.step


def levels_ctmc(
    model: BioModel,
    step: float = 1.0,
    max_amounts: Mapping[str, float] | None = None,
    max_states: int = 200_000,
) -> LevelsCTMC:
    """Enumerate the reachable levels CTMC of a Bio-PEPA model.

    Parameters
    ----------
    step:
        Concentration per level (``h``); must divide the initial
        amounts to machine precision so the initial state is on the
        lattice.
    max_amounts:
        Per-species maximum concentration.  Defaults to each species'
        maximum *conceivable* amount: its initial amount plus the total
        producible mass (sum of every other species' initial amount) —
        a safe over-approximation that keeps closed systems exact.
    max_states:
        Reachability cap.
    """
    if step <= 0:
        raise BioPepaError(f"level step must be positive, got {step}")
    x0 = model.initial_state()
    levels0 = x0 / step
    if not np.allclose(levels0, np.round(levels0), atol=1e-9):
        raise BioPepaError(
            f"initial amounts are not multiples of the level step {step}"
        )
    levels0 = np.round(levels0).astype(np.int64)
    total_mass = float(x0.sum())
    caps = np.empty(len(model.species), dtype=np.int64)
    for i, s in enumerate(model.species):
        if max_amounts is not None and s.name in max_amounts:
            cap_amount = float(max_amounts[s.name])
        else:
            cap_amount = total_mass if total_mass > 0 else s.initial
        # Inclusive bound: the highest level whose concentration does not
        # exceed the cap (floor, with tolerance for representation noise).
        caps[i] = int(np.floor(cap_amount / step + 1e-9))
        if caps[i] < levels0[i]:
            raise BioPepaError(
                f"species {s.name!r} starts above its maximum level"
            )

    # Per-reaction level-change vectors.
    N = model.stoichiometry_matrix().astype(np.int64)

    init = tuple(int(v) for v in levels0)
    index: dict[tuple[int, ...], int] = {init: 0}
    states: list[tuple[int, ...]] = [init]
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    queue: deque[int] = deque([0])
    while queue:
        src = queue.popleft()
        lv = np.asarray(states[src], dtype=np.int64)
        conc = lv.astype(np.float64) * step
        props = model.reaction_rates(conc) / step
        for r, a in enumerate(props):
            if a <= 0.0:
                continue
            nxt = lv + N[:, r]
            # Blocking boundaries: stay within [0, cap] on every species.
            if (nxt < 0).any() or (nxt > caps).any():
                continue
            key = tuple(int(v) for v in nxt)
            dst = index.get(key)
            if dst is None:
                dst = len(states)
                if dst >= max_states:
                    raise StateSpaceLimitError(
                        f"levels CTMC exceeds {max_states} states"
                    )
                index[key] = dst
                states.append(key)
                queue.append(dst)
            rows.append(src)
            cols.append(dst)
            vals.append(float(a))
    n = len(states)
    return LevelsCTMC(
        model=model,
        states=np.asarray(states, dtype=np.int64),
        generator=generator_from_rates(n, rows, cols, vals),
        step=step,
        max_levels=caps,
    )
