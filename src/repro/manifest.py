"""Replay of :class:`~repro.engine.run_manifest.RunManifest` artifacts.

The engine layer assembles manifests (see
:mod:`repro.engine.run_manifest`) but, by layering, knows nothing about
the frontends that turn model source text into IR.  This module is the
top-of-stack counterpart: it re-executes a manifest — parse the recorded
source with the recorded formalism, lower it for the recorded
capability, dispatch on the backend the original run actually *used* —
and optionally verifies bit-identity against the recorded result digest.

The public entry point is :func:`replay`::

    from repro.manifest import replay
    report = replay("MANIFEST.json", verify=True)   # raises on divergence
    report.result                                   # the re-computed result

``verify=True`` asserts two properties:

* the replayed result's canonical digest equals the recorded one
  (bit-identity of the numbers), and
* the replay's own manifest has the same :meth:`identity_digest` as the
  original (the reproducibility-relevant facts — model, parameters,
  seed spec, chunk structure, environment, backend used — all agree).

The CLI exposes this as ``repro replay MANIFEST.json [--verify]``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.engine.run_manifest import (
    MANIFEST_VERSION,
    RunManifest,
    attach_manifest,
    build_batch_manifest,
    build_solve_manifest,
    current_model_context,
    dataclass_descriptor,
    decode_params,
    encode_params,
    last_manifest,
    load_manifest,
    model_context,
    model_descriptor,
    result_digest,
    set_last_manifest,
)
from repro.errors import ReplayError

__all__ = [
    "MANIFEST_VERSION",
    "RunManifest",
    "ReplayReport",
    "attach_manifest",
    "build_batch_manifest",
    "build_solve_manifest",
    "current_model_context",
    "dataclass_descriptor",
    "decode_params",
    "encode_params",
    "instantiate_descriptor",
    "last_manifest",
    "load_manifest",
    "lower_and_resolve",
    "lower_for_capability",
    "model_context",
    "model_descriptor",
    "replay",
    "result_digest",
    "run_from_source",
    "set_last_manifest",
]


# ---------------------------------------------------------------------------
# Source -> IR (frontend-aware lowering, shared with the CLI)
# ---------------------------------------------------------------------------

def lower_for_capability(
    formalism: str,
    source: str,
    capability: str,
    derive_backend: str | None = None,
):
    """Lower model ``source`` to the IR the requested capability runs on.

    Returns ``(ir, labels)`` where ``labels`` names the states/species
    of the solution vectors.  ``derive_backend`` selects a non-default
    derivation strategy for PEPA sources (``population`` lowers to the
    orbit-quotient chain); other formalisms reject it.  Raises
    :class:`ReplayError` for combinations that have no finite-CTMC
    semantics (gpepa is lowered to population dynamics only).
    """
    ir, labels, _ = lower_and_resolve(
        formalism, source, capability, derive_backend=derive_backend
    )
    return ir, labels


def lower_and_resolve(
    formalism: str,
    source: str,
    capability: str,
    derive_backend: str | None = None,
):
    """:func:`lower_for_capability` that also names the derive backend
    that ran: returns ``(ir, labels, derive_backend)`` with ``auto``
    resolved to ``explicit`` or ``population``, and a fallback to the
    strategy that served it, which is what a manifest must record —
    replay then depends on neither the selector nor the fault."""
    markov = capability in ("steady", "transient", "passage")
    if formalism == "pepa":
        from repro.pepa import ctmc_of, derive, parse_model

        model = parse_model(source)
        if derive_backend is not None:
            from repro.ir.registry import solve_step
            from repro.pepa.derivation import resolve_derive_backend

            # Name the strategy that ran: a population derivation that
            # fell back to explicit yields the explicit chain.
            ir, derive_backend = solve_step(
                model, "derive",
                backend=resolve_derive_backend(model, derive_backend),
            )
            labels = ir.labels or tuple(
                str(i) for i in range(ir.n_states)
            )
            return ir, labels, derive_backend
        ir = ctmc_of(derive(model)).lower()
        return ir, ir.labels, None
    if derive_backend is not None:
        raise ReplayError(
            f"derive backend {derive_backend!r} only applies to the pepa "
            "formalism"
        )
    if formalism == "biopepa":
        from repro.biopepa import parse_biopepa, population_ctmc

        model = parse_biopepa(source)
        if markov:
            ir = population_ctmc(model).lower()
            return ir, ir.labels, None
        from repro.biopepa.lower import lower_reactions

        ir = lower_reactions(model)
        return ir, ir.species, None
    if formalism == "gpepa":
        # gpepa: population semantics only (no finite global CTMC).
        if markov:
            raise ReplayError(
                f"capability {capability!r} requires a finite CTMC; the "
                "gpepa frontend lowers to population dynamics — use "
                "capability ode or ssa"
            )
        from repro.gpepa import parse_gpepa
        from repro.gpepa.lower import lower_reactions as lower_grouped

        ir = lower_grouped(parse_gpepa(source))
        return ir, ir.species, None
    raise ReplayError(f"unknown formalism {formalism!r}")


def run_from_source(
    formalism: str,
    source: str,
    capability: str,
    backend: str | None = None,
    derive_backend: str | None = None,
    **params,
):
    """Solve model source text through the registry, under a model
    context so the resulting manifest is self-contained (replayable)."""
    from repro.ir import solve as ir_solve

    ir, _labels, derive_backend = lower_and_resolve(
        formalism, source, capability, derive_backend=derive_backend
    )
    descriptor = model_descriptor(
        formalism, source, derive_backend=derive_backend
    )
    with model_context(descriptor):
        return ir_solve(ir, capability, backend=backend, **params)


# ---------------------------------------------------------------------------
# Descriptor reconstruction (batch-run model objects)
# ---------------------------------------------------------------------------

def _reconstruct_mapping(descriptor: dict):
    from repro.allocation.mapping import Mapping

    fields = decode_params(descriptor.get("fields", {}))
    return Mapping(
        name=fields["name"],
        assignments={
            machine: tuple(apps)
            for machine, apps in fields["assignments"].items()
        },
    )


def _reconstruct_workload(descriptor: dict):
    from repro.allocation.workload import Workload

    return Workload(**decode_params(descriptor.get("fields", {})))


#: Descriptor types :func:`replay` knows how to instantiate.  An
#: allowlist, not dynamic import: manifests are plain JSON from
#: arbitrary sources and must not name code to execute.
_DESCRIPTOR_TYPES = {
    "repro.allocation.mapping.Mapping": _reconstruct_mapping,
    "repro.allocation.workload.Workload": _reconstruct_workload,
}


def instantiate_descriptor(descriptor: dict):
    """Reconstruct a model object from its manifest descriptor.

    Only the allowlisted :data:`_DESCRIPTOR_TYPES` are honored —
    descriptors are plain JSON from arbitrary sources (manifests, job
    submissions) and must never name code to execute.  Raises
    :class:`~repro.errors.ReplayError` for anything else.
    """
    type_name = descriptor.get("type") if isinstance(descriptor, dict) else None
    builder = _DESCRIPTOR_TYPES.get(type_name)
    if builder is None:
        raise ReplayError(
            f"manifest names a model object of unsupported type {type_name!r}"
        )
    return builder(descriptor)


_instantiate = instantiate_descriptor


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one manifest.

    ``digest_match``/``identity_match`` are ``None`` when the original
    manifest recorded no result digest to compare against.
    """

    manifest: RunManifest          #: the manifest that was replayed
    result: object                 #: the re-computed result
    replay_manifest: RunManifest | None  #: manifest of the replay run
    digest_match: bool | None      #: result digest == recorded digest
    identity_match: bool | None    #: identity_digest agrees with original

    @property
    def verified(self) -> bool:
        return bool(self.digest_match) and bool(self.identity_match)


def _check_model_integrity(model: dict) -> str:
    source = model.get("source")
    if not isinstance(source, str):
        raise ReplayError("manifest's model has no source text to replay")
    recorded = model.get("sha256")
    actual = hashlib.sha256(source.encode("utf-8")).hexdigest()
    if recorded is not None and recorded != actual:
        raise ReplayError(
            "manifest model source does not match its recorded sha256 "
            f"({actual[:12]}… != {recorded[:12]}…) — the manifest was edited"
        )
    return source


def _replay_solve(manifest: RunManifest):
    from repro.ir import get_backend

    model = manifest.model or {}
    source = _check_model_integrity(model)
    backend = (manifest.backend or {}).get("used")
    # Refuse numerics this build no longer runs (no revision means 1).
    recorded = (manifest.backend or {}).get("revision", 1)
    running = get_backend(manifest.capability, backend).revision
    if recorded != running:
        raise ReplayError(
            f"{manifest.capability!r} backend {backend!r} ran revision "
            f"{recorded}; this build runs revision {running}"
        )
    return run_from_source(
        model.get("formalism"),
        source,
        manifest.capability,
        backend=backend,
        derive_backend=model.get("derive_backend"),
        **manifest.decoded_params(),
    )


def _replay_makespan(manifest: RunManifest):
    from repro.allocation.cdf import makespan_cdf

    model = manifest.model or {}
    if "mapping" not in model or "workload" not in model:
        raise ReplayError(
            "makespan_cdf manifest lacks mapping/workload descriptors"
        )
    mapping = _instantiate(model["mapping"])
    workload = _instantiate(model["workload"])
    params = manifest.decoded_params()
    return makespan_cdf(
        mapping,
        workload,
        params["times"],
        tail_tol=params.get("tail_tol", 1e-2),
        method=params.get("method", "uniformization"),
    )


def replay(manifest, verify: bool = False) -> ReplayReport:
    """Re-execute a run manifest; optionally assert bit-identity.

    Parameters
    ----------
    manifest:
        A :class:`RunManifest`, or a path to a manifest JSON file.
    verify:
        When true, raise :class:`ReplayError` unless the replayed
        result's digest equals the recorded one *and* the replay's
        manifest carries the same identity digest as the original.
    """
    if not isinstance(manifest, RunManifest):
        manifest = load_manifest(manifest)
    if not manifest.replayable:
        raise ReplayError(
            f"manifest of kind {manifest.kind!r} is not self-contained "
            "enough to replay (replayable: false)"
        )
    set_last_manifest(None)
    if manifest.kind == "solve":
        result = _replay_solve(manifest)
    elif manifest.kind == "makespan_cdf":
        result = _replay_makespan(manifest)
    else:
        raise ReplayError(f"cannot replay manifests of kind {manifest.kind!r}")

    replayed = last_manifest()
    recorded_digest = (manifest.result or {}).get("digest")
    new_digest = result_digest(result)
    digest_match = (
        None if recorded_digest is None else new_digest == recorded_digest
    )
    identity_match = (
        None
        if recorded_digest is None or replayed is None
        else replayed.identity_digest() == manifest.identity_digest()
    )
    report = ReplayReport(
        manifest=manifest,
        result=result,
        replay_manifest=replayed,
        digest_match=digest_match,
        identity_match=identity_match,
    )
    if verify:
        if digest_match is None:
            raise ReplayError(
                "manifest records no result digest; nothing to verify against"
            )
        if not digest_match:
            raise ReplayError(
                "replay diverged: result digest "
                f"{(new_digest or '(none)')[:12]}… != recorded "
                f"{recorded_digest[:12]}…"
            )
        if identity_match is False:
            raise ReplayError(
                "replay diverged: the replay's manifest identity digest "
                "does not match the original (model, parameters, seed "
                "spec, chunking or environment differ)"
            )
    return report
