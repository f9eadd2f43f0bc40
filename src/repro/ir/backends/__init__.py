"""Solver backends: importing this package populates the registry.

Each submodule registers its backends at import time:

``markov``
    ``steady`` (sparse / gmres / uniformization), ``transient``
    (uniformization / expm) and ``passage`` (uniformization / expm)
    over :class:`~repro.ir.markov.MarkovIR`.
``ssa``
    ``ssa`` (direct / next-reaction) over both IRs, plus the one
    chunked-Welford ensemble driver.
``ssa_batched``
    The vectorized ensemble kernels ``direct`` runs ensembles on —
    bit-identical to the scalar steppers (no registrations).
``ode``
    ``ode`` (scipy / rk4) over :class:`~repro.ir.reaction.ReactionIR`.
"""

from repro.ir.backends import (  # noqa: F401  (registration)
    markov,
    ode,
    ssa,
)
from repro.ir.backends.markov import DENSE_STATE_LIMIT, PassageSolution
from repro.ir.backends.ode import DefaultRhs
from repro.ir.backends.ssa import (
    CHUNK_RUNS,
    EnsembleMoments,
    JumpPath,
    Trajectory,
    as_rng,
    ensemble_moments,
    markov_path,
    occupancy_run,
    reaction_run,
    reaction_trajectory,
    reaction_trajectory_next_reaction,
    validate_grid,
)
from repro.ir.backends.ssa_batched import markov_occupancy_chunk, reaction_chunk

__all__ = [
    "CHUNK_RUNS",
    "DENSE_STATE_LIMIT",
    "DefaultRhs",
    "EnsembleMoments",
    "JumpPath",
    "PassageSolution",
    "Trajectory",
    "as_rng",
    "ensemble_moments",
    "markov_occupancy_chunk",
    "markov_path",
    "reaction_chunk",
    "occupancy_run",
    "reaction_run",
    "reaction_trajectory",
    "reaction_trajectory_next_reaction",
    "validate_grid",
]
