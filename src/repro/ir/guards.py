"""Invariant sentinels and shadow verification for every registry solve.

A silently non-converged GMRES solve, a drifting integrator, or a torn
cache entry all return a plausible-looking array.  The paper's whole
claim — containerized runs are *trustworthy replicas* — therefore needs
the numerics themselves guarded, not just the execution layer.  This
module is that guard, applied by :func:`repro.ir.registry.solve` to the
result of **every** backend dispatch:

Sentinels (:func:`verify`)
    Structural invariants the mathematics demands of each capability:
    steady/transient vectors lie on the probability simplex, the
    generator's CSR rows sum to ~0, passage CDFs are monotone in
    ``[0, 1]``, ODE trajectories are finite with no negative species
    beyond tolerance, SSA trajectories conserve the network's invariant
    stoichiometric sums.  A violation raises
    :class:`~repro.errors.NumericalTrustError` carrying the invariant,
    backend and IR cache token — which the fallback chains treat as
    recoverable, so a sentinel failure on ``gmres`` degrades to
    ``sparse`` exactly like a raised exception.

Diagnostics
    Each verified solve also yields a measurement dictionary (residual
    norms, iteration counts, 1-norm condition estimate, uniformization
    truncation mass, integrator statistics) attached to the result's
    ``meta["diagnostics"]`` when it has a ``meta`` dict, retrievable via
    :func:`last_diagnostics` otherwise, and surfaced by ``repro solve
    --diagnostics``.  The steady condition estimate is the one the
    result carries from its solver's LU; this module never factorizes.

Shadow verification
    The cheap production analogue of the paper's container-vs-native
    identical-output validation: ``$REPRO_SHADOW_RATE`` (or ``repro
    solve --shadow BACKEND``) re-solves a deterministic sample of
    requests on an independent backend — steady: sparse LU vs. GMRES,
    transient/passage: expm vs. uniformization, ode: rk4 vs. scipy — and
    quarantines disagreements above tolerance as
    ``ir.trust.shadow_mismatch``.

Layering: this module sits beside the registry (``ir``), importing only
``numerics``, ``engine`` and ``errors``; the registry imports it, never
the reverse.
"""

from __future__ import annotations

import math
import os
import threading
import warnings

import numpy as np

from repro.engine import faults
from repro.engine.metrics import get_registry
from repro.errors import NumericalTrustError
from repro.ir.markov import MarkovIR
from repro.ir.reaction import ReactionIR
from repro.numerics import diagnostics as diag
from repro.numerics.transient import planned_truncation

__all__ = [
    "SIMPLEX_ATOL",
    "RESIDUAL_RTOL",
    "ODE_NEGATIVE_ATOL",
    "DEFAULT_SHADOW_TOL",
    "DENSE_STATE_LIMIT",
    "verify",
    "note",
    "reset_notes",
    "last_diagnostics",
    "set_last",
    "shadow_rate",
    "shadow_due",
    "shadow_backend",
    "shadow_compare",
    "register_shadow_hook",
    "reset_shadow_state",
]

#: Probability-simplex slack: entries above ``-SIMPLEX_ATOL`` and total
#: mass within ``SIMPLEX_ATOL`` of 1.
SIMPLEX_ATOL = 1e-8

#: Steady residual acceptance: ``‖pi @ Q‖∞ <= RESIDUAL_RTOL * rate_scale``
#: (the same rate-scaled threshold the numerics layer applies).
RESIDUAL_RTOL = 1e-6

#: ODE trajectories may undershoot zero by round-off, never by more.
ODE_NEGATIVE_ATOL = 1e-6

#: Conservation drift allowances: exact integer moves for SSA paths,
#: Welford rounding for ensembles, integrator tolerance for ODEs.
_CONSERVE_RTOL = {"ssa_path": 1e-9, "ssa_ensemble": 1e-7, "ode": 1e-6}

#: Per-capability shadow disagreement tolerances (max-abs).  ``ode`` is
#: loose: the fixed-step RK4 partner is an independent integrator, not a
#: bit-identical one.
DEFAULT_SHADOW_TOL = {
    "steady": 1e-8,
    "transient": 1e-8,
    "passage": 1e-8,
    "derive": 1e-8,
    "ode": 1e-3,
}

_SHADOW_ENV = "REPRO_SHADOW_RATE"

#: Preferred shadow partners per capability, most-independent first.
_SHADOW_PARTNERS = {
    "steady": ("sparse", "gmres"),
    "transient": ("expm", "uniformization"),
    "passage": ("expm", "uniformization"),
    "ode": ("rk4", "scipy"),
}

#: The dense ``expm`` backends (``repro.ir.backends.markov``) refuse
#: larger systems, so they are never picked as shadow partners for one.
DENSE_STATE_LIMIT = 2000

#: Frontend-registered shadow strategies, ``capability -> (partner_fn,
#: compare_fn)``.  Layering keeps this module below the frontends, so
#: capabilities whose shadow pass needs frontend knowledge (``derive``:
#: comparing a lumped chain against the orbit projection of an explicit
#: one requires the PEPA symmetry analysis) register a hook instead of
#: being hard-coded here.  ``partner_fn(primary, ir, result) -> str |
#: None`` picks the re-solve backend given the primary's result;
#: ``compare_fn(ir, result, shadow_result) -> float`` returns the
#: max-abs style disagreement (``inf`` for a structural mismatch).
_SHADOW_HOOKS: dict = {}


def register_shadow_hook(capability: str, partner_fn, compare_fn) -> None:
    """Register a frontend shadow strategy for ``capability``.

    Replaces any previous hook for the capability (latest frontend
    import wins — registration is idempotent per module).
    """
    _SHADOW_HOOKS[capability] = (partner_fn, compare_fn)

_notes = threading.local()

_shadow_lock = threading.Lock()
_shadow_counts: dict[str, int] = {}

_last = threading.local()


# ---------------------------------------------------------------------------
# Backend-deposited diagnostics (integrator statistics and the like)
# ---------------------------------------------------------------------------

def note(**values) -> None:
    """Deposit extra diagnostics from inside a backend call.

    Backends with measurements the result array cannot carry (the ODE
    integrator's evaluation counts, for instance) call this during the
    solve; :func:`verify` folds the notes into the diagnostics dict.
    """
    store = getattr(_notes, "data", None)
    if store is None:
        store = _notes.data = {}
    store.update(values)


def reset_notes() -> None:
    """Clear deposited notes (the registry calls this before each solve)."""
    _notes.data = {}


def _drain_notes() -> dict:
    store = getattr(_notes, "data", None)
    _notes.data = {}
    return store or {}


def last_diagnostics() -> dict | None:
    """Diagnostics of the most recent verified solve on this thread.

    Results that carry a ``meta`` dict also get the same dictionary as
    ``meta["diagnostics"]``; plain-array results (transient grids, ODE
    trajectories) are only reachable through this accessor.
    """
    return getattr(_last, "data", None)


def set_last(diagnostics: dict) -> None:
    """Restore/override the thread's last-diagnostics dictionary.

    The registry's shadow pass runs a second :func:`verify` (for the
    shadow backend's result), which displaces the primary's diagnostics;
    after comparing, it reinstates the primary's dict — now carrying the
    ``shadow_*`` fields — so callers always read the served result.
    """
    _last.data = diagnostics


# ---------------------------------------------------------------------------
# Sentinels
# ---------------------------------------------------------------------------

def _fail(
    invariant: str,
    message: str,
    *,
    capability: str,
    backend: str,
    ir,
    detail: float | None = None,
):
    reg = get_registry()
    reg.increment("ir.trust.sentinel_violation")
    reg.increment(f"ir.trust.violation.{invariant}")
    raise NumericalTrustError(
        invariant,
        message,
        capability=capability,
        backend=backend,
        token=getattr(ir, "token", None),
        detail=detail,
    )


def _check_generator(capability: str, backend: str, ir: MarkovIR) -> None:
    defect = ir.generator_defect()
    if defect["row_sum"] > SIMPLEX_ATOL * defect["scale"]:
        _fail(
            "generator_rows",
            f"generator rows sum to {defect['row_sum']:.3e}, not 0",
            capability=capability, backend=backend, ir=ir,
            detail=defect["row_sum"],
        )
    if defect["min_offdiag"] < -SIMPLEX_ATOL * defect["scale"]:
        _fail(
            "generator_rates",
            f"negative off-diagonal rate {defect['min_offdiag']:.3e}",
            capability=capability, backend=backend, ir=ir,
            detail=defect["min_offdiag"],
        )


def _check_orbits(capability, backend, ir, result) -> dict:
    """Lumped-derive sentinel: the aggregation metadata must describe a
    consistent quotient — orbit counts conserved, populations conserved
    per replica cluster, initial orbit trivial (replicas start alike)."""
    info = result.orbits
    n = result.n_states
    sizes = np.asarray(info.orbit_sizes, dtype=np.float64)
    if sizes.shape != (n,):
        _fail("orbit_shape",
              f"{sizes.shape[0] if sizes.ndim == 1 else sizes.shape} orbit "
              f"sizes for {n} lumped states",
              capability=capability, backend=backend, ir=ir)
    if not np.isfinite(sizes).all() or (sizes < 1.0 - 1e-6).any():
        _fail("orbit_sizes", "orbit sizes must be finite and >= 1",
              capability=capability, backend=backend, ir=ir)
    if float(np.abs(sizes - np.round(sizes)).max()) > 1e-6:
        _fail("orbit_sizes", "orbit sizes must be integral",
              capability=capability, backend=backend, ir=ir)
    total = float(sizes.sum())
    full = info.full_states
    if full < n:
        _fail("orbit_count",
              f"full chain claims {full} states for {n} orbits",
              capability=capability, backend=backend, ir=ir)
    # Orbit-count conservation: the exact total must equal the size sum.
    # Beyond 2**53 the float sum is no longer exact, so only the exactly
    # representable range is checked strictly.
    if full < 2**53 and abs(total - float(full)) > 0.5:
        _fail("orbit_count",
              f"orbit sizes sum to {total:.0f}, metadata claims {full}",
              capability=capability, backend=backend, ir=ir,
              detail=abs(total - float(full)))
    counts = np.asarray(info.counts, dtype=np.float64)
    if counts.shape[0] != n or (counts.size and counts.min() < 0):
        _fail("orbit_counts",
              "population count matrix malformed (wrong rows or negative)",
              capability=capability, backend=backend, ir=ir)
    # Population conservation per replica cluster — the invariant behind
    # every projected measure: each row distributes exactly the cluster's
    # replicas over its member configurations.
    group = np.asarray(info.column_group)
    worst = 0.0
    for g in range(info.n_groups):
        cols = np.flatnonzero(group == g)
        if not cols.size:
            continue
        drift = np.abs(
            counts[:, cols].sum(axis=1) - float(info.group_totals[g])
        )
        worst = max(worst, float(drift.max()) if drift.size else 0.0)
    if worst > 1e-9:
        _fail("population_conservation",
              f"cluster populations drift by {worst:.3e}",
              capability=capability, backend=backend, ir=ir, detail=worst)
    if sizes.size and abs(sizes[result.initial_index] - 1.0) > 1e-9:
        _fail("orbit_initial",
              f"initial orbit has size {sizes[result.initial_index]:.0f}, "
              "but replicas start identical",
              capability=capability, backend=backend, ir=ir)
    return {
        "full_states": full,
        "aggregation_ratio": float(full) / n if n else 1.0,
        "population_defect": worst,
    }


def _check_derive(capability, backend, ir, result, params, revision) -> dict:
    # ``ir`` is the frontend's model object here; the sentinels run on
    # the freshly built MarkovIR instead — a derivation strategy that
    # assembles a malformed generator must not hand it downstream.
    if not isinstance(result, MarkovIR):
        _fail(
            "derive_type",
            f"derive backend returned {type(result).__name__}, not MarkovIR",
            capability=capability, backend=backend, ir=ir,
        )
    _check_generator(capability, backend, result)
    defect = result.generator_defect()
    out = {
        "n_states": result.n_states,
        "nnz": int(result.generator.nnz),
        "row_sum_defect": defect["row_sum"],
    }
    if result.orbits is not None:
        out.update(_check_orbits(capability, backend, ir, result))
    return out


def _rate_scale(ir: MarkovIR) -> float:
    diag_abs = np.abs(ir.generator.diagonal())
    return max(1.0, float(diag_abs.max()) if diag_abs.size else 1.0)


def _check_steady(capability, backend, ir, result, params, revision) -> dict:
    _check_generator(capability, backend, ir)
    pi = np.asarray(result.pi, dtype=np.float64)
    simplex = diag.simplex_defect(pi)
    if not simplex["finite"]:
        _fail("finite", "steady vector contains NaN/Inf",
              capability=capability, backend=backend, ir=ir)
    if simplex["min"] < -SIMPLEX_ATOL or simplex["mass_error"] > SIMPLEX_ATOL:
        _fail(
            "simplex",
            f"steady vector off the simplex (min {simplex['min']:.3e}, "
            f"mass error {simplex['mass_error']:.3e})",
            capability=capability, backend=backend, ir=ir,
            detail=max(-simplex["min"], simplex["mass_error"]),
        )
    residual = diag.steady_residual(ir.generator, pi)
    scale = _rate_scale(ir)
    if residual > RESIDUAL_RTOL * scale:
        _fail(
            "residual",
            f"‖pi@Q‖∞ = {residual:.3e} exceeds {RESIDUAL_RTOL * scale:.3e}",
            capability=capability, backend=backend, ir=ir, detail=residual,
        )
    return {
        "residual": residual,
        "reported_residual": float(getattr(result, "residual", math.nan)),
        "iterations": int(getattr(result, "iterations", 0)),
        "condition_estimate": getattr(result, "condition_estimate", None),
        "mass_error": simplex["mass_error"],
        "min_probability": float(pi.min()) if pi.size else 0.0,
        "n_states": ir.n_states,
    }


_TRUNCATION_KEYS = (
    "kernel", "uniformization_rate", "poisson_mean", "truncation_k", "truncation_mass",
)


def _truncation(ir, params, targets=(), stepping=False) -> dict:
    """The uniformization solve's truncation: as the backend noted it,
    or else (a cache hit, a dense backend) planned again by the solve's
    own rule (:func:`~repro.numerics.transient.planned_truncation`), so
    that a hit and a miss report the same ``K``."""
    noted = getattr(_notes, "data", None) or {}
    if "truncation_k" in noted:
        return {key: noted.pop(key) for key in _TRUNCATION_KEYS}
    return planned_truncation(
        ir.generator, params.get("times", ()), float(params.get("epsilon", 1e-12)),
        targets, stepping,
    )


def _check_transient(capability, backend, ir, result, params, revision) -> dict:
    _check_generator(capability, backend, ir)
    dist = np.asarray(result, dtype=np.float64)
    if not np.isfinite(dist).all():
        _fail("finite", "transient distribution contains NaN/Inf",
              capability=capability, backend=backend, ir=ir)
    worst_neg = float(min(dist.min(), 0.0)) if dist.size else 0.0
    if worst_neg < -SIMPLEX_ATOL:
        _fail("simplex", f"negative transient probability {worst_neg:.3e}",
              capability=capability, backend=backend, ir=ir, detail=worst_neg)
    mass_error = 0.0
    if dist.size:
        mass_error = float(np.abs(dist.sum(axis=1) - 1.0).max())
        if mass_error > 1e-6:
            _fail(
                "simplex",
                f"transient row mass off by {mass_error:.3e}",
                capability=capability, backend=backend, ir=ir, detail=mass_error,
            )
    out = _truncation(ir, params)
    out.update(mass_error=mass_error, min_probability=worst_neg,
               n_states=ir.n_states)
    return out


def _check_passage(capability, backend, ir, result, params, revision) -> dict:
    _check_generator(capability, backend, ir)
    cdf = np.asarray(result.cdf, dtype=np.float64)
    if not np.isfinite(cdf).all() or not math.isfinite(result.mean):
        _fail("finite", "passage CDF or mean contains NaN/Inf",
              capability=capability, backend=backend, ir=ir)
    if cdf.size and (cdf.min() < -1e-12 or cdf.max() > 1.0 + 1e-12):
        _fail(
            "cdf_range",
            f"passage CDF leaves [0, 1] (min {cdf.min():.3e}, max {cdf.max():.3e})",
            capability=capability, backend=backend, ir=ir,
        )
    drop = diag.monotonicity_defect(cdf)
    if drop > 1e-12:
        _fail("cdf_monotone", f"passage CDF decreases by {drop:.3e}",
              capability=capability, backend=backend, ir=ir, detail=drop)
    if result.mean < -1e-12:
        _fail("mean_sign", f"negative mean passage time {result.mean:.3e}",
              capability=capability, backend=backend, ir=ir, detail=result.mean)
    # Revision 1 of uniformization sweeps every grid; revision 2 and the
    # dense backend report what the current uniformization would run.
    stepping = (backend, revision) != ("uniformization", 1)
    out = _truncation(ir, params, params.get("targets", ()), stepping)
    out.update(
        monotonicity_defect=drop,
        cdf_final=float(cdf[-1]) if cdf.size else 0.0,
        mean=float(result.mean),
        n_states=ir.n_states,
    )
    return out


def _conservation_checks(capability, backend, ir, counts, kind) -> dict:
    """Conservation-law drift of a (n_times, n_species) trajectory."""
    if not isinstance(ir, ReactionIR):
        return {}
    W = ir.conservation_laws()
    defect = diag.conservation_defect(W, counts, np.asarray(ir.initial))
    scale = max(1.0, float(np.abs(np.asarray(ir.initial)).sum()))
    if defect > _CONSERVE_RTOL[kind] * scale:
        _fail(
            "conservation",
            f"conserved stoichiometric sums drift by {defect:.3e} "
            f"(allowed {_CONSERVE_RTOL[kind] * scale:.3e})",
            capability=capability, backend=backend, ir=ir, detail=defect,
        )
    return {"conservation_laws": int(W.shape[0]), "conservation_defect": defect}


def _check_ode(capability, backend, ir, result, params, revision) -> dict:
    traj = np.asarray(result, dtype=np.float64)
    if not np.isfinite(traj).all():
        _fail("finite", "ODE trajectory contains NaN/Inf",
              capability=capability, backend=backend, ir=ir)
    worst_neg = float(min(traj.min(), 0.0)) if traj.size else 0.0
    atol = max(float(params.get("atol", 1e-10)), ODE_NEGATIVE_ATOL)
    if worst_neg < -atol:
        _fail("nonnegative", f"species drops to {worst_neg:.3e}",
              capability=capability, backend=backend, ir=ir, detail=worst_neg)
    out = {"min_value": worst_neg}
    out.update(_conservation_checks(capability, backend, ir, traj, "ode"))
    return out


def _check_ssa(capability, backend, ir, result, params, revision) -> dict:
    # Three result shapes share the capability: a MarkovIR JumpPath, a
    # ReactionIR Trajectory, and the chunked EnsembleMoments of either.
    counts = getattr(result, "counts", None)
    mean = getattr(result, "mean", None)
    if counts is not None:
        counts = np.asarray(counts, dtype=np.float64)
        if not np.isfinite(counts).all():
            _fail("finite", "SSA trajectory contains NaN/Inf",
                  capability=capability, backend=backend, ir=ir)
        if counts.size and counts.min() < 0:
            _fail("nonnegative", f"negative SSA count {counts.min():.3e}",
                  capability=capability, backend=backend, ir=ir)
        out = {"events": int(getattr(result, "n_events", 0))}
        out.update(_conservation_checks(capability, backend, ir, counts, "ssa_path"))
        return out
    if mean is not None:
        mean = np.asarray(mean, dtype=np.float64)
        var = np.asarray(result.var, dtype=np.float64)
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            _fail("finite", "SSA ensemble moments contain NaN/Inf",
                  capability=capability, backend=backend, ir=ir)
        if var.size and var.min() < -1e-9:
            _fail("variance_sign", f"negative ensemble variance {var.min():.3e}",
                  capability=capability, backend=backend, ir=ir,
                  detail=float(var.min()))
        out = {"events": int(getattr(result, "events", 0)),
               "n_runs": int(getattr(result, "n_runs", 0))}
        chunks = getattr(result, "chunks", None)
        n_runs = out["n_runs"]
        if chunks is not None and n_runs > 0:
            # Chunk boundaries own ensemble determinism: every kernel —
            # scalar, batched, parallel, resumed — must produce exactly
            # ceil(n_runs / CHUNK_RUNS) Welford partials.  A kernel that
            # compacted runs into a different chunk structure would merge
            # in a different order and silently break seeded replication.
            from repro.ir.backends.ssa import CHUNK_RUNS

            expected = -(-n_runs // CHUNK_RUNS)
            if int(chunks) != expected:
                _fail(
                    "chunk_structure",
                    f"ensemble built from {int(chunks)} chunks, expected "
                    f"{expected} for {n_runs} runs",
                    capability=capability, backend=backend, ir=ir,
                    detail=float(chunks),
                )
        out.update(
            _conservation_checks(capability, backend, ir, mean, "ssa_ensemble")
        )
        if isinstance(ir, MarkovIR) and mean.size:
            # Occupancy ensembles: mean rows are distributions over states.
            mass_error = float(np.abs(mean.sum(axis=1) - 1.0).max())
            if mass_error > SIMPLEX_ATOL:
                _fail("simplex", f"occupancy mass off by {mass_error:.3e}",
                      capability=capability, backend=backend, ir=ir,
                      detail=mass_error)
            out["mass_error"] = mass_error
        return out
    if hasattr(result, "states"):
        states = np.asarray(result.states)
        if states.size and (states.min() < 0 or states.max() >= ir.n_states):
            _fail("state_range", "jump path leaves the state space",
                  capability=capability, backend=backend, ir=ir)
        jt = np.asarray(result.jump_times, dtype=np.float64)
        if jt.size > 1 and (np.diff(jt) < 0).any():
            _fail("time_order", "jump times decrease along the path",
                  capability=capability, backend=backend, ir=ir)
        return {"events": int(result.n_events)}
    return {}


_CHECKS = {
    "derive": _check_derive,
    "steady": _check_steady,
    "transient": _check_transient,
    "passage": _check_passage,
    "ode": _check_ode,
    "ssa": _check_ssa,
}


def verify(
    capability: str, backend: str, ir, result, params: dict, revision: int | None = None
) -> dict:
    """Run the capability's sentinels on ``result`` and return diagnostics.

    ``revision`` is the backend's (see :mod:`repro.ir.registry`); the
    passage check reports the truncation that revision ran with.

    Raises :class:`~repro.errors.NumericalTrustError` on any violation
    (after counting it as ``ir.trust.sentinel_violation``); on success
    the diagnostics dictionary is merged with any backend-deposited
    :func:`note` values, attached to ``result.meta["diagnostics"]`` when
    the result has a ``meta`` dict, and kept for :func:`last_diagnostics`.
    """
    reg = get_registry()
    reg.increment("ir.trust.checked")
    if faults.should_fire("sentinel_violation", backend=backend) is not None:
        _fail("injected", "injected sentinel violation",
              capability=capability, backend=backend, ir=ir)
    check = _CHECKS.get(capability)
    out = {"capability": capability, "backend": backend}
    if check is not None:
        out.update(check(capability, backend, ir, result, params, revision))
    out.update(_drain_notes())
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        meta["diagnostics"] = out
    _last.data = out
    return out


# ---------------------------------------------------------------------------
# Shadow verification
# ---------------------------------------------------------------------------

def shadow_rate() -> float:
    """The sampled shadow-verification rate from ``$REPRO_SHADOW_RATE``.

    Malformed or out-of-range values warn once and disable shadowing
    rather than aborting production solves.
    """
    raw = os.environ.get(_SHADOW_ENV)
    if not raw:
        return 0.0
    try:
        rate = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {_SHADOW_ENV}={raw!r} (expected a float)",
            stacklevel=2,
        )
        return 0.0
    return min(max(rate, 0.0), 1.0)


def shadow_due(capability: str, rate: float) -> bool:
    """Deterministic stratified sampling: of ``n`` requests, shadow
    ``floor(n * rate)`` of them, evenly spaced — no RNG, so a rerun
    shadows exactly the same requests."""
    if rate <= 0.0:
        return False
    with _shadow_lock:
        n = _shadow_counts.get(capability, 0) + 1
        _shadow_counts[capability] = n
    return math.floor(n * rate) > math.floor((n - 1) * rate)


def reset_shadow_state() -> None:
    """Reset the sampling counters (test isolation)."""
    with _shadow_lock:
        _shadow_counts.clear()


def shadow_backend(
    capability: str, primary: str, ir, result=None, explicit: str | None = None
) -> str | None:
    """Choose the independent backend to re-solve on (``None`` = skip).

    ``explicit`` (the CLI's ``--shadow``) wins when it differs from the
    primary; then a registered hook, which also sees the primary's
    ``result``; otherwise the first partner in the capability's
    preference list that is not the primary and fits the system size.
    ``ssa`` is never shadowed — independent backends consume different
    RNG streams, so disagreement is expected, not suspicious.
    """
    if capability == "ssa":
        return None
    if explicit is not None:
        return explicit if explicit != primary else None
    hook = _SHADOW_HOOKS.get(capability)
    if hook is not None:
        return hook[0](primary, ir, result)
    n_states = getattr(ir, "n_states", 0)
    for name in _SHADOW_PARTNERS.get(capability, ()):
        if name == primary:
            continue
        if name == "expm" and n_states > DENSE_STATE_LIMIT:
            continue
        return name
    return None


def _comparable(capability: str, result) -> np.ndarray:
    if capability == "steady":
        return np.asarray(result.pi, dtype=np.float64)
    if capability == "passage":
        return np.asarray(result.cdf, dtype=np.float64)
    return np.asarray(result, dtype=np.float64)


def shadow_compare(
    capability: str,
    backend: str,
    shadow_name: str,
    ir,
    result,
    shadow_result,
) -> dict:
    """Compare primary and shadow results; quarantine disagreements.

    Returns ``{"shadow_backend", "shadow_max_abs", "shadow_tolerance"}``
    on agreement, raising :class:`~repro.errors.NumericalTrustError`
    (``invariant="shadow_mismatch"``, counted as
    ``ir.trust.shadow_mismatch``) when the max-abs disagreement exceeds
    the capability's :data:`DEFAULT_SHADOW_TOL` — neither answer can
    be trusted at that point, which is precisely what the paper's
    container-vs-native validation would flag.
    """
    reg = get_registry()
    tolerance = DEFAULT_SHADOW_TOL.get(capability, 1e-8)
    hook = _SHADOW_HOOKS.get(capability)
    if hook is not None:
        max_abs = float(hook[1](ir, result, shadow_result))
    else:
        a = _comparable(capability, result)
        b = _comparable(capability, shadow_result)
        if a.shape != b.shape:
            max_abs = math.inf
        else:
            max_abs = float(np.abs(a - b).max()) if a.size else 0.0
    if faults.should_fire("shadow_mismatch", backend=shadow_name) is not None:
        max_abs = math.inf
    reg.increment("ir.trust.shadow.checked")
    if max_abs > tolerance:
        # A mismatch is its own metric, not a sentinel violation: the
        # primary result passed every structural invariant — it is the
        # cross-backend agreement that failed.
        reg.increment("ir.trust.shadow_mismatch")
        raise NumericalTrustError(
            "shadow_mismatch",
            f"independent re-solve on {shadow_name!r} disagrees by "
            f"{max_abs:.3e} (tolerance {tolerance:.3e})",
            capability=capability,
            backend=backend,
            token=getattr(ir, "token", None),
            detail=max_abs,
        )
    return {
        "shadow_backend": shadow_name,
        "shadow_max_abs": max_abs,
        "shadow_tolerance": tolerance,
    }
