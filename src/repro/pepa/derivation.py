"""PEPA derivation strategies as IR-registry ``derive`` backends.

Importing this module (``repro.pepa`` does it on package import)
registers two strategies plus an auto-selector under the registry's
``derive`` capability, so callers can pick how a PEPA model becomes a
:class:`repro.ir.MarkovIR`::

    from repro.ir import solve
    ir = solve(model, "derive")                       # explicit (default)
    ir = solve(model, "derive", backend="population") # orbit quotient
    ir = solve(model, "derive", backend="auto")       # by symmetry

Backends
--------
``explicit`` (default; aliases ``fast``, ``bfs``)
    The memoized fast path: :func:`repro.pepa.statespace.derive` +
    :func:`repro.pepa.ctmc.ctmc_of` + ``lower()``.  Bit-identical to
    every pre-existing analysis (same state order, same transition
    table, same seeded SSA streams).
    The un-memoized walk :func:`repro.pepa.statespace.derive_reference`
    is its test oracle and is called directly, not through the registry.

``population`` (alias ``lumped``)
    Population-form derivation
    (:func:`repro.pepa.population.population_markov_ir`): replicated
    symmetric components are quotiented to orbit representatives
    *during* the BFS, so the chain is the exact ordinary lumping of the
    explicit one and ``max_states`` bounds the aggregated count.  State
    identity differs from explicit (one state per orbit, count-form
    labels), so use it for population-level measures.  Carries
    :class:`repro.ir.markov.OrbitInfo` for the trust layer's
    lumped-derive sentinel.

``auto``
    ``population`` when the model replicates symmetric components (see
    :func:`repro.pepa.population.has_replicated_symmetry`), otherwise
    ``explicit``; records the choice under ``derive.auto.*`` metrics.
    :func:`resolve_derive_backend` performs the same resolution for
    callers that must record the backend that ran (run manifests).

The capability carries a fallback chain ``population -> explicit``
whose retry policy treats :class:`~repro.errors.StateSpaceLimitError`
as recoverable: a ``population`` derivation that fails recoverably
degrades to explicit derivation instead of failing the solve.

The module also registers the ``derive`` shadow hook with the trust
layer: sampled ``population`` derivations are re-derived explicitly
(when the exact explicit state count their orbits record fits a modest
budget) and the lumped generator is compared against the orbit
projection of the explicit one.
"""

from __future__ import annotations

import math

from repro.errors import StateSpaceLimitError
from repro.ir import MarkovIR
from repro.ir.registry import (
    RECOVERABLE,
    register_backend,
    register_fallback_chain,
)
from repro.pepa import population
from repro.pepa.ctmc import ctmc_of
from repro.pepa.population import has_replicated_symmetry
from repro.pepa.statespace import StateSpace, derive
from repro.pepa.syntax import Model

__all__ = [
    "derive_explicit",
    "derive_population",
    "derive_auto",
    "resolve_derive_backend",
    "select_derive_backend",
]


def derive_explicit(model: Model, max_states: int = 1_000_000) -> MarkovIR:
    """Explicit BFS derivation (memoized fast path) lowered to the IR."""
    space = derive(model, max_states=max_states)
    return _keeping(ctmc_of(space).lower(), space)


def derive_population(model: Model, max_states: int = 1_000_000) -> MarkovIR:
    """Population-form derivation: one state per replica-symmetry orbit."""
    space = population.derive_population(model, max_states=max_states)
    return _keeping(population.lower_population(space), space)


def select_derive_backend(model: Model) -> str:
    """``population`` when replicated symmetric components exist, else
    ``explicit``."""
    try:
        if has_replicated_symmetry(model):
            return "population"
    except Exception:
        # An unanalyzable structure is diagnosed by the chosen strategy
        # itself; the selector just declines to aggregate.
        pass
    return "explicit"


def resolve_derive_backend(model: Model, backend: str) -> str:
    """The backend ``backend`` runs for ``model``: ``auto`` resolves
    through :func:`select_derive_backend` (counted under
    ``derive.auto.*``); any other name is returned unchanged."""
    if backend != "auto":
        return backend
    from repro.engine.metrics import get_registry

    choice = select_derive_backend(model)
    get_registry().increment(f"derive.auto.{choice}")
    return choice


def derive_auto(model: Model, max_states: int = 1_000_000) -> MarkovIR:
    """Derive with the strategy :func:`select_derive_backend` picks."""
    if resolve_derive_backend(model, "auto") == "population":
        return derive_population(model, max_states=max_states)
    return derive_explicit(model, max_states=max_states)


#: Shadow re-derivations refuse explicit spaces larger than this bound
#: — the whole point of a population derivation is that the explicit
#: space may be astronomically large.
_SHADOW_EXPLICIT_LIMIT = 20_000


def _keeping(ir: MarkovIR, space: StateSpace) -> MarkovIR:
    """``ir``, carrying the space it was lowered from when the space is
    small enough to shadow, so the shadow comparison reuses both
    derivations instead of repeating them."""
    if space.size <= _SHADOW_EXPLICIT_LIMIT:
        object.__setattr__(ir, "_space", space)
    return ir


def _derive_shadow_partner(primary: str, model, result) -> str | None:
    """Shadow partner for sampled ``derive`` dispatches.

    Only population-form derivations are shadowed (explicit derivation
    is property-tested against the reference walk), and only when the
    explicit space — whose exact size the result's orbits record — fits
    a modest budget; otherwise the explicit re-derivation the shadow
    pass would run could itself blow up.
    """
    if primary not in ("population", "lumped"):
        return None
    if not isinstance(model, Model):
        return None
    orbits = getattr(result, "orbits", None)
    if orbits is None or orbits.full_states > _SHADOW_EXPLICIT_LIMIT:
        return None
    return "explicit"


def _derive_shadow_compare(model, result, shadow_result) -> float:
    """Disagreement between a population derivation and the orbit
    projection of an explicit one (relative max-abs over the lumped
    generator; ``inf`` on structural mismatch).

    The exact-lumping identity under test: with ``A`` the n_exp x n_pop
    0/1 orbit-membership matrix and ``sizes`` the orbit cardinalities,
    ``Q_pop == diag(1/sizes) @ A.T @ Q_exp @ A``.
    """
    import numpy as np
    import scipy.sparse as sp

    lumped, explicit_ir = result, shadow_result
    if getattr(lumped, "orbits", None) is None:
        lumped, explicit_ir = explicit_ir, lumped
    info = getattr(lumped, "orbits", None)
    if info is None:
        # Neither side is population-form: plain generator comparison.
        A, B = result.generator, shadow_result.generator
        if A.shape != B.shape:
            return math.inf
        diff = (A - B).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0
    space = explicit_ir._space or derive(model)
    if explicit_ir.n_states != space.size:
        return math.inf
    pop = lumped._space or population.derive_population(model)
    if lumped.n_states != pop.size:
        return math.inf
    index = {s: i for i, s in enumerate(pop.states)}
    proj = np.fromiter(
        (index.get(k, -1) for k in population.canonical_partition(model, space)),
        dtype=np.intp,
        count=space.size,
    )
    if proj.size and proj.min() < 0:
        return math.inf
    n, p = space.size, pop.size
    A = sp.csr_matrix(
        (np.ones(n), (np.arange(n), proj)), shape=(n, p)
    )
    sizes = np.asarray(info.orbit_sizes, dtype=np.float64)
    projected = sp.diags(1.0 / sizes) @ (A.T @ explicit_ir.generator @ A)
    diff = (projected - lumped.generator).tocoo()
    if not diff.nnz:
        return 0.0
    scale = max(
        1.0,
        float(np.abs(lumped.generator.data).max())
        if lumped.generator.nnz
        else 1.0,
    )
    return float(np.abs(diff.data).max()) / scale


def _register() -> None:
    # Derivation is not cached: the registry caches the analyses of a
    # derived chain under its IR digest, and a derived space pickles far
    # larger than any result keyed on it.
    register_backend(
        "derive",
        "explicit",
        derive_explicit,
        accepts=(Model,),
        aliases=("fast", "bfs"),
        cache=False,
        default=True,
    )
    register_backend(
        "derive",
        "population",
        derive_population,
        accepts=(Model,),
        aliases=("lumped",),
        cache=False,
    )
    register_backend(
        "derive",
        "auto",
        derive_auto,
        accepts=(Model,),
        cache=False,
    )
    register_fallback_chain(
        "derive", ("population", "explicit"),
        recoverable=RECOVERABLE + (StateSpaceLimitError,),
    )
    from repro.ir import guards

    guards.register_shadow_hook(
        "derive", _derive_shadow_partner, _derive_shadow_compare
    )


_register()
