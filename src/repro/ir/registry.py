"""Solver-backend registry: one dispatch point for every analysis.

Backends register under a ``(capability, name)`` pair; the six
capabilities are::

    derive      frontend model -> MarkovIR (PEPA: explicit / population
                derivation strategies)
    steady      equilibrium distribution of a MarkovIR
    transient   distribution over a time grid of a MarkovIR
    passage     first-passage CDF/mean into a target set of a MarkovIR
    ssa         stochastic trajectories / ensembles (MarkovIR or ReactionIR)
    ode         deterministic trajectory of a ReactionIR

``derive`` is the odd one out: its input is a *frontend model object*
(the frontend registers its own strategies and the ``accepts`` check
keeps types honest — the registry itself never imports a frontend) and
its output is a fresh ``MarkovIR``, which the sentinels then check for
generator well-formedness like any other Markov result.

:func:`solve` resolves the backend (aliases included), checks that it
accepts the IR's type, and wraps the call in the engine's metrics timer
(``ir.<capability>``) and — for deterministic capabilities — the
content-addressed cache under the uniform namespace ``ir.<capability>``,
keyed on ``(IR digest, backend, parameters)`` — the digest the run
manifest records, so a request hashes its model once.  The numerics
below cache nothing.  Capabilities that must not cache (``derive``;
``ssa`` ensembles feed the engine's parallel fan-out and batch
counters) opt out per registration.

Fallback chains
---------------
A capability may declare an ordered *fallback chain*
(:func:`register_fallback_chain`) — e.g. ``steady: gmres →
uniformization → sparse``.
When the requested backend fails with an error the chain
declares recoverable (by default :data:`RECOVERABLE`:
:class:`~repro.errors.ConvergenceError` /
:class:`~repro.errors.SingularGeneratorError` /
:class:`~repro.errors.NumericalTrustError`), :func:`solve` walks the
remaining chain entries in order, records ``ir.fallback.*`` metrics and
the result's ``meta["fallback_from"]``, and re-raises the *first* error
only if every candidate fails.  ``solve(..., fallback=False)`` disables
the walk for callers that need the raw failure.

Revisions
---------
A backend's ``revision`` numbers its numerics: a change that moves
result bits registers the backend again under the same name with a
higher revision.  Requests run the latest registration; the earlier
revisions stay registered, and :func:`pinned_revision` runs one of them
again for a block — replay's way back to the numerics a manifest
recorded.  A revision that is no longer registered cannot be replayed.

Numerical trust
---------------
Every backend result — fresh or cached — passes the sentinels of
:mod:`repro.ir.guards` before :func:`solve` returns it (and before the
cache stores it, so a rejected answer is never served again): probability
vectors on the simplex, generator rows summing to ~0, monotone CDFs,
finite non-negative trajectories, conserved stoichiometric sums.  A
violation raises :class:`~repro.errors.NumericalTrustError`, which is
recoverable — a silently-garbage ``gmres`` answer degrades through the
same chain as a raised exception.  Verified solves carry a diagnostics
dictionary (``meta["diagnostics"]`` / :func:`repro.ir.guards.last_diagnostics`),
and ``$REPRO_SHADOW_RATE`` or ``solve(..., shadow=...)`` re-solves a
sampled fraction on an independent backend, quarantining disagreements
as ``ir.trust.shadow_mismatch``.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.engine import run_manifest
from repro.engine.cache import Uncacheable, cached, canonical_key
from repro.engine.metrics import get_registry
from repro.errors import (
    BackendError,
    ConvergenceError,
    NumericalTrustError,
    SingularGeneratorError,
)
from repro.ir import guards

__all__ = [
    "CAPABILITIES",
    "RECOVERABLE",
    "register_backend",
    "register_fallback_chain",
    "fallback_chain",
    "get_backend",
    "available_backends",
    "available_revisions",
    "default_backend",
    "pinned_revision",
    "solve",
    "solve_step",
]

CAPABILITIES = ("derive", "steady", "transient", "passage", "ssa", "ode")


@dataclass(frozen=True)
class _Backend:
    capability: str
    name: str
    func: Callable
    accepts: tuple[type, ...]
    cache: bool
    revision: int


#: Failures a fallback chain recovers from unless it declares otherwise.
RECOVERABLE = (ConvergenceError, SingularGeneratorError, NumericalTrustError)


_REGISTRY: dict[tuple[str, str], _Backend] = {}
#: Every revision registered, ``(capability, name, revision)``.
_REVISIONS: dict[tuple[str, str, int], _Backend] = {}
#: Revisions :func:`pinned_revision` selects, ``(capability, name)``.
_PINNED: contextvars.ContextVar[dict] = contextvars.ContextVar("pinned_revisions", default={})
_ALIASES: dict[tuple[str, str], str] = {}
_DEFAULTS: dict[str, str] = {}
_FALLBACK_CHAINS: dict[str, tuple[str, ...]] = {}
_FALLBACK_RECOVERABLE: dict[str, tuple[type[BaseException], ...]] = {}


def register_backend(
    capability: str,
    name: str,
    func: Callable,
    *,
    accepts: tuple[type, ...],
    aliases: tuple[str, ...] = (),
    cache: bool = True,
    default: bool = False,
    revision: int = 1,
) -> None:
    """Register ``func`` as backend ``name`` for ``capability``.

    ``func`` is called as ``func(ir, **params)``.  ``aliases`` map extra
    names onto this backend (e.g. the numerics method names kept for
    backward compatibility).  The first registration for a capability —
    or the one passing ``default=True`` — becomes its default.
    ``revision`` numbers the backend's numerics: a change that moves
    result bits bumps it, manifests record it (when not 1) and replay
    runs the revision a manifest recorded while it stays registered.
    Registering ``name`` again replaces it for requests and keeps the
    earlier revision for replay.
    """
    if capability not in CAPABILITIES:
        raise BackendError(
            f"unknown capability {capability!r}; expected one of {CAPABILITIES}"
        )
    backend = _Backend(capability, name, func, accepts, cache, revision)
    _REGISTRY[(capability, name)] = _REVISIONS[(capability, name, revision)] = backend
    for alias in aliases:
        _ALIASES[(capability, alias)] = name
    if default or capability not in _DEFAULTS:
        _DEFAULTS[capability] = name


def register_fallback_chain(
    capability: str,
    chain: tuple[str, ...],
    recoverable: tuple[type[BaseException], ...] = RECOVERABLE,
) -> None:
    """Declare the ordered backend fallback chain for ``capability``.

    When a :func:`solve` call on this capability fails with one of the
    ``recoverable`` errors, the chain entries *after* the requested
    backend's position (all entries, if the requested backend is not in
    the chain) are tried in order, once each.
    """
    if capability not in CAPABILITIES:
        raise BackendError(
            f"unknown capability {capability!r}; expected one of {CAPABILITIES}"
        )
    _FALLBACK_CHAINS[capability] = tuple(chain)
    _FALLBACK_RECOVERABLE[capability] = tuple(recoverable)


def fallback_chain(capability: str) -> tuple[str, ...]:
    """The registered fallback chain for ``capability`` (may be empty)."""
    return _FALLBACK_CHAINS.get(capability, ())


def default_backend(capability: str) -> str:
    """Name of the default backend for ``capability``."""
    if capability not in _DEFAULTS:
        raise BackendError(f"no backend registered for capability {capability!r}")
    return _DEFAULTS[capability]


def available_backends(capability: str | None = None) -> dict[str, tuple[str, ...]]:
    """Mapping ``capability -> registered backend names`` (aliases omitted)."""
    caps = CAPABILITIES if capability is None else (capability,)
    return {
        cap: tuple(
            name for (c, name) in sorted(_REGISTRY) if c == cap
        )
        for cap in caps
    }


def _lookup(capability: str, name: str) -> _Backend | None:
    """The registered backend ``name`` at the revision this context runs."""
    backend = _REGISTRY.get((capability, name))
    pinned = _PINNED.get().get((capability, name))
    if backend is not None and pinned is not None:
        return _REVISIONS[(capability, name, pinned)]
    return backend


def available_revisions(capability: str, name: str | None = None) -> tuple[int, ...]:
    """The revisions of backend ``name`` this build can run, ascending."""
    name = get_backend(capability, name).name
    return tuple(sorted(r for (c, b, r) in _REVISIONS if (c, b) == (capability, name)))


@contextmanager
def pinned_revision(capability: str, name: str | None, revision: int):
    """Run revision ``revision`` of backend ``name`` inside the block (in
    this context only: a worker process pins again from its task)."""
    name = get_backend(capability, name).name
    if revision not in available_revisions(capability, name):
        raise BackendError(
            f"{capability!r} backend {name!r} has no revision {revision}"
        )
    token = _PINNED.set({**_PINNED.get(), (capability, name): revision})
    try:
        yield
    finally:
        _PINNED.reset(token)


def get_backend(capability: str, name: str | None = None) -> _Backend:
    """Resolve a backend by capability and (possibly aliased) name, at
    the revision this context runs (see :func:`pinned_revision`)."""
    if capability not in CAPABILITIES:
        raise BackendError(
            f"unknown capability {capability!r}; expected one of {CAPABILITIES}"
        )
    if name is None:
        name = default_backend(capability)
    name = _ALIASES.get((capability, name), name)
    backend = _lookup(capability, name)
    if backend is None:
        have = available_backends(capability)[capability]
        raise BackendError(
            f"no {capability!r} backend named {name!r}; available: {list(have)}"
        )
    return backend


#: Key part of an IR without a digest: ``cached`` reports "uncacheable".
_NO_DIGEST = object()


def _execute(be: _Backend, ir, params: dict):
    """One backend attempt: metrics timer, sentinels and (opt-in) cache."""
    reg = get_registry()
    reg.increment(f"ir.{be.capability}.{be.name}")
    guards.reset_notes()

    def compute():  # verified before the cache can store it
        result = be.func(ir, **params)
        guards.verify(be.capability, be.name, ir, result, params, be.revision)
        return result

    with reg.timer(f"ir.{be.capability}"):
        if be.cache and getattr(ir, "token", True) is not None:
            key = (_ir_digest(ir) or _NO_DIGEST, be.name, params)
            if be.revision != 1:  # revision-1 keys predate revisions
                key += (be.revision,)
            result, status = cached(f"ir.{be.capability}", key, compute)
            if status == "hit":  # a stale entry is as suspect as a bad solve
                guards.verify(be.capability, be.name, ir, result, params, be.revision)
        else:
            result, status = compute(), None
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        if status is not None:
            meta["cache"] = status
        meta["backend"] = be.name
    return result


def _ir_digest(ir) -> str | None:
    """Canonical content digest of the IR (the manifest's cache token).

    Memoized on the IR object — frozen dataclasses take the memo via
    ``object.__setattr__`` — because large generators hash their full
    CSR content.  An empty-string memo marks a known-uncacheable IR.
    """
    memo = getattr(ir, "_manifest_digest", None)
    if memo is not None:
        return memo or None
    try:
        digest = canonical_key("ir", ir)
    except Uncacheable:
        digest = ""
    try:
        object.__setattr__(ir, "_manifest_digest", digest)
    except (AttributeError, TypeError):
        pass
    return digest or None


def _attach_solve_manifest(
    capability: str,
    requested: _Backend,
    used: _Backend,
    chain: list[str],
    first_error: BaseException | None,
    ir,
    params: dict,
    result,
) -> None:
    """Assemble and attach the dispatch's reproducibility manifest.

    Best-effort by design: a result that cannot be canonically hashed
    still returns, just with a non-replayable manifest (or none at all
    when even the parameters resist encoding).
    """
    meta = getattr(result, "meta", None)
    manifest = run_manifest.build_solve_manifest(
        capability,
        params,
        result,
        requested=requested.name,
        used=used.name,
        revision=used.revision,
        chain=chain,
        fallback_error=(
            str(first_error) if used is not requested and first_error else None
        ),
        ir_digest=_ir_digest(ir),
        cache_status=meta.get("cache") if isinstance(meta, dict) else None,
    )
    run_manifest.attach_manifest(result, manifest)


def _candidates(capability: str, first: _Backend) -> list[_Backend]:
    """The requested backend plus the chain entries that follow it."""
    chain = [
        _ALIASES.get((capability, name), name)
        for name in _FALLBACK_CHAINS.get(capability, ())
    ]
    if first.name in chain:
        chain = chain[chain.index(first.name) + 1 :]
    names = [first.name] + [name for name in chain if name != first.name]
    out = []
    for name in names:
        be = _lookup(capability, name)
        if be is not None:
            out.append(be)
    return out


def _maybe_shadow(capability: str, be: _Backend, ir, result, params: dict,
                  explicit: str | None) -> None:
    """Re-solve a sampled request on an independent backend and compare.

    ``explicit`` (the ``shadow=`` argument) forces a check against that
    backend; otherwise ``$REPRO_SHADOW_RATE`` selects a deterministic
    sample of requests and :func:`repro.ir.guards.shadow_backend` picks
    the partner.  Disagreement above tolerance raises
    :class:`~repro.errors.NumericalTrustError` — the result is
    quarantined, not returned.
    """
    rate = 1.0 if explicit is not None else guards.shadow_rate()
    if rate <= 0.0 or not guards.shadow_due(capability, rate):
        return
    reg = get_registry()
    partner = guards.shadow_backend(capability, be.name, ir, result, explicit)
    if partner is not None:
        partner = _ALIASES.get((capability, partner), partner)
    shadow_be = _lookup(capability, partner) if partner else None
    if shadow_be is None or not isinstance(ir, shadow_be.accepts):
        reg.increment("ir.trust.shadow.skipped")
        return
    primary_diag = guards.last_diagnostics()
    shadow_result = _execute(shadow_be, ir, params)
    info = guards.shadow_compare(
        capability, be.name, shadow_be.name, ir, result, shadow_result
    )
    if isinstance(primary_diag, dict):
        primary_diag.update(info)
        guards.set_last(primary_diag)


def solve(ir, capability: str, backend: str | None = None, fallback: bool = True,
          shadow: str | None = None, **params):
    """Run ``capability`` on ``ir`` with the selected ``backend``.

    Deterministic capabilities are cached under ``ir.<capability>``
    keyed on ``(IR digest, backend, params)``; when the result carries a
    ``meta`` dict, its ``cache`` and ``backend`` entries record how this
    call was served.

    When the capability declares a fallback chain and the selected
    backend fails recoverably — raising an exception *or* returning a
    result the trust sentinels reject — the remaining chain entries are
    tried in order (``fallback=False`` disables this); a fallback
    success records ``meta["fallback_from"]`` / ``meta["fallback_error"]``
    and bumps the ``ir.fallback.*`` counters.  If every candidate fails,
    the *first* error is re-raised.

    ``shadow`` names a backend to re-solve on and compare against
    (``repro solve --shadow``; an unknown name fails like an unknown
    ``backend``); without it, ``$REPRO_SHADOW_RATE`` shadow-verifies a
    deterministic sample of requests.
    """
    result, be, used, attempted, first_error = _dispatch(
        ir, capability, backend, fallback, shadow, params
    )
    _attach_solve_manifest(
        capability, be, used, attempted, first_error, ir, params, result,
    )
    return result


def solve_step(ir, capability: str, backend: str | None = None, **params):
    """:func:`solve` without the manifest, for a dispatch that is one
    step of a larger request: returns ``(result, used)``, the result and
    the name of the backend that produced it (after any fallback).

    The request's own manifest records what it needs of this step (the
    derive backend that ran, in ``lower_and_resolve``), so building and
    hashing a second manifest here would only repeat work.
    """
    result, _be, used, _attempted, _error = _dispatch(
        ir, capability, backend, True, None, params
    )
    return result, used.name


def _dispatch(ir, capability, backend, fallback, shadow, params):
    """Select, run, fall back and shadow-check; returns ``(result,
    requested, used, attempted, first_error)``."""
    be = get_backend(capability, backend)
    if shadow is not None:
        get_backend(capability, shadow)
    if not isinstance(ir, be.accepts):
        names = " or ".join(t.__name__ for t in be.accepts)
        raise BackendError(
            f"{capability}/{be.name} accepts {names}, got {type(ir).__name__}"
        )
    recoverable = _FALLBACK_RECOVERABLE.get(capability, RECOVERABLE)
    candidates = _candidates(capability, be) if fallback else [be]
    reg = get_registry()
    first_error: BaseException | None = None
    attempted: list[str] = []
    for candidate in candidates:
        if not isinstance(ir, candidate.accepts):
            continue
        attempted.append(candidate.name)
        try:
            result = _execute(candidate, ir, params)
        except recoverable as exc:
            if first_error is None:
                first_error = exc
            continue
        if candidate is not be:
            reg.increment("ir.fallback.used")
            reg.increment(f"ir.fallback.{capability}.{be.name}->{candidate.name}")
            meta = getattr(result, "meta", None)
            if isinstance(meta, dict):
                meta["fallback_from"] = be.name
                meta["fallback_error"] = str(first_error)
        _maybe_shadow(capability, candidate, ir, result, params, shadow)
        return result, be, candidate, attempted, first_error
    if len(candidates) > 1:
        reg.increment("ir.fallback.exhausted")
    raise first_error
