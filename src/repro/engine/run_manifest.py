"""Self-contained reproducibility manifests for engine runs.

The source paper's contribution is an artifact that *proves* a run is
re-executable elsewhere.  A :class:`RunManifest` is that artifact for
this codebase: everything needed to re-run an analysis bit-for-bit —
the model source (and its hash), the solver capability and parameters,
the full seed spec (root ``SeedSequence`` entropy plus spawn layout),
the chunk structure, the backend requested and the fallback chain
actually taken, the environment fingerprint — plus the digest of the
result actually produced, so a replay can *assert* bit-identity rather
than merely claim it.

Manifests are assembled by the IR registry around every dispatch and by
the batch entry points (makespan CDFs, sweeps), attached to results as
``meta["manifest"]`` and retrievable via :func:`last_manifest`, and are
plain JSON on disk — ``repro replay MANIFEST.json --verify`` re-executes
one (see :mod:`repro.manifest`, which owns the frontend-aware replay).

Determinism of the manifest itself is part of the contract: no
timestamps, hostnames or process ids — two bit-identical runs produce
manifests with equal :meth:`~RunManifest.identity_digest`, and a
replay's manifest matches the original's identity digest exactly.
Observational facts that may legitimately differ between identical runs
(platform, transport, which backend was *requested*, cache status,
diagnostics) are recorded but excluded from the identity digest.

Layering: this module lives in ``engine`` (rank 1) so the IR registry
can assemble manifests; it knows nothing about frontends.  Callers
above supply the model description through :func:`model_context`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.cache import Uncacheable, canonical_key
from repro.engine.environment import environment_fingerprint, platform_info
from repro.errors import ReplayError

__all__ = [
    "MANIFEST_VERSION",
    "RunManifest",
    "model_context",
    "current_model_context",
    "model_descriptor",
    "dataclass_descriptor",
    "last_manifest",
    "set_last_manifest",
    "result_digest",
    "encode_params",
    "decode_params",
    "build_solve_manifest",
    "build_batch_manifest",
    "attach_manifest",
    "load_manifest",
]

MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# JSON-safe parameter codec
# ---------------------------------------------------------------------------
#
# Solver parameters must survive manifest -> JSON -> manifest -> solve
# *exactly*: Python's json module round-trips floats via repr, so the
# only values needing help are NumPy arrays and scalars.

def _encode_value(value):
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": value.tolist(),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
    if isinstance(value, np.generic):
        return _encode_value(value.item())
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise Uncacheable(
        f"no JSON-safe manifest encoding for {type(value).__name__}"
    )


def _decode_value(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            arr = np.array(value["__ndarray__"], dtype=value["dtype"])
            return arr.reshape(tuple(value["shape"]))
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_params(params: dict) -> dict:
    """Solver parameters as a JSON-safe dict (exact float round-trip)."""
    return {str(k): _encode_value(v) for k, v in params.items()}


def decode_params(params: dict) -> dict:
    """Invert :func:`encode_params` (lists stay lists; solvers accept
    sequences wherever they accept arrays)."""
    return {k: _decode_value(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def result_digest(result) -> str | None:
    """Canonical content digest of a solver result (``None`` when the
    result type has no canonical encoding).

    Built on the cache's structural hashing, so volatile ``meta``
    entries (declared ``compare=False``) never leak into the digest —
    two bit-identical results digest identically however they were
    produced.
    """
    try:
        return canonical_key("result", result)
    except Uncacheable:
        return None


def _digest_of(obj) -> str | None:
    try:
        return canonical_key("manifest", obj)
    except Uncacheable:
        return None


# ---------------------------------------------------------------------------
# Model context (what is being solved, supplied from above)
# ---------------------------------------------------------------------------

_TLS = threading.local()


def model_descriptor(
    formalism: str, source: str, derive_backend: str | None = None
) -> dict:
    """Self-contained model description: formalism + source + hash.

    ``derive_backend`` records a non-default derivation strategy (e.g.
    ``population``) so a replay lowers the source the same way — a
    population-form chain and the explicit chain of the same source are
    different state spaces.  Callers record the strategy that ran, with
    ``auto`` already resolved (:func:`repro.manifest.lower_and_resolve`).
    """
    out = {
        "formalism": formalism,
        "source": source,
        "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
    }
    if derive_backend is not None:
        out["derive_backend"] = derive_backend
    return out


def dataclass_descriptor(obj) -> dict:
    """JSON-safe description of a frozen dataclass (compared fields
    only), tagged with its qualified type — how non-textual model
    objects (mappings, workloads) enter a manifest."""
    fields = {}
    for f in dataclasses.fields(obj):
        if f.compare:
            fields[f.name] = _encode_value(getattr(obj, f.name))
    return {
        "type": f"{type(obj).__module__}.{type(obj).__qualname__}",
        "fields": fields,
    }


@contextmanager
def model_context(descriptor: dict | None):
    """Declare the model being solved for manifests assembled below.

    The registry sits beneath the frontends, so it cannot know what
    source text produced the IR it is dispatching on; callers that do
    know (the CLI, :mod:`repro.manifest`, frontend shims) wrap their
    solve in this.  Without a context, manifests are still assembled
    but are not self-contained (``replayable`` is false).
    """
    prev = getattr(_TLS, "model", None)
    _TLS.model = descriptor
    try:
        yield
    finally:
        _TLS.model = prev


def current_model_context() -> dict | None:
    return getattr(_TLS, "model", None)


def set_last_manifest(manifest: RunManifest | None) -> None:
    _TLS.last = manifest


def last_manifest() -> RunManifest | None:
    """The manifest of the most recent run on this thread — how callers
    reach the manifest of a result that has no ``meta`` dict."""
    return getattr(_TLS, "last", None)


# ---------------------------------------------------------------------------
# The manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """One run, described completely enough to re-execute and verify.

    All fields hold JSON-safe values (see :func:`encode_params`).
    ``model``/``seed``/``chunks``/``backend``/``diagnostics`` are
    ``None`` when the run has no such aspect.
    """

    kind: str                      #: "solve" | "makespan_cdf" | "sweep"
    capability: str | None         #: registry capability for solves
    model: dict | None             #: model_descriptor / dataclass descriptors
    params: dict                   #: encoded solver parameters
    seed: dict | None              #: root entropy + spawn layout
    chunks: dict | None            #: chunk structure of the fan-out
    backend: dict | None           #: requested / used / revision / chain / kernel
    cache: str | None              #: cache status of the producing call
    diagnostics: dict | None       #: digest of the diagnostics dict
    environment: dict              #: numerical-stack fingerprint
    platform: dict                 #: observational platform facts
    transport: str | None          #: configured transport (observational)
    result: dict                   #: digest + type of the produced result
    replayable: bool               #: self-contained enough to re-execute
    version: int = MANIFEST_VERSION

    # -- identity -----------------------------------------------------------

    #: Fields two bit-identical runs must agree on.  ``transport``,
    #: ``platform``, the *requested* backend, cache status and
    #: diagnostics are observational: a replay may differ there while
    #: still reproducing the run.
    _IDENTITY_FIELDS = (
        "version", "kind", "capability", "model", "params",
        "seed", "chunks", "environment", "result",
    )

    def identity_digest(self) -> str:
        """SHA-256 over the reproducibility-relevant manifest content."""
        ident = {name: getattr(self, name) for name in self._IDENTITY_FIELDS}
        backend = self.backend or {}
        ident["backend_used"] = backend.get("used")
        if backend.get("revision", 1) != 1:
            ident["backend_revision"] = backend["revision"]
        blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: dict) -> RunManifest:
        if not isinstance(data, dict) or "version" not in data:
            raise ReplayError("not a run manifest (missing 'version')")
        if data["version"] != MANIFEST_VERSION:
            raise ReplayError(
                f"manifest version {data['version']!r} is not supported "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ReplayError(f"manifest has unknown fields: {sorted(unknown)}")
        missing = names - set(data)
        if missing:
            raise ReplayError(f"manifest is missing fields: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> RunManifest:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ReplayError(f"manifest is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def decoded_params(self) -> dict:
        return decode_params(self.params)


def load_manifest(path) -> RunManifest:
    """Read and validate a manifest JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ReplayError(f"cannot read manifest {path}: {exc}") from exc
    return RunManifest.from_json(text)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _seed_spec(params: dict, result) -> tuple[dict | None, dict | None]:
    """Seed + chunk structure for seeded ensemble runs.

    The engine's contract assigns the ``i``-th child of
    ``SeedSequence(root)`` to realization ``i`` and reduces fixed-size
    chunks in order, so the spawn layout is fully described by
    ``(root, n_realizations, chunk_runs)`` — exactly what is recorded.
    """
    meta = getattr(result, "meta", None)
    meta = meta if isinstance(meta, dict) else {}
    n_chunks = meta.get("chunks")
    if "seed" not in params or n_chunks is None:
        return None, None
    n_runs = params.get("n_runs")
    seed = {
        "root_entropy": int(params["seed"]),
        "spawned": int(n_runs) if n_runs is not None else None,
        "assignment": "SeedSequence(root).spawn(n)[i] -> realization i",
    }
    chunks = {"count": int(n_chunks)}
    if meta.get("chunk_runs") is not None:
        chunks["chunk_runs"] = int(meta["chunk_runs"])
    return seed, chunks


def _configured_transport() -> str | None:
    from repro.engine.executor import current_config
    from repro.engine.transport import resolve_transport

    config = current_config()
    return resolve_transport(config.transport, config.workers).name


def _diagnostics_digest(result) -> dict | None:
    meta = getattr(result, "meta", None)
    if not isinstance(meta, dict):
        return None
    diag = meta.get("diagnostics")
    if not isinstance(diag, dict):
        return None
    digest = _digest_of(diag)
    return {"digest": digest, "keys": sorted(map(str, diag))} if digest else None


def build_solve_manifest(
    capability: str,
    params: dict,
    result,
    *,
    requested: str,
    used: str,
    revision: int,
    chain: list[str],
    fallback_error: str | None,
    ir_digest: str | None,
    cache_status: str | None,
) -> RunManifest | None:
    """Manifest of one registry dispatch; ``None`` when the parameters
    or result have no stable encoding (manifests are best-effort, the
    solve always wins)."""
    try:
        encoded = encode_params(params)
    except Uncacheable:
        return None
    digest = result_digest(result)
    model = current_model_context()
    seed, chunks = _seed_spec(params, result)
    meta = getattr(result, "meta", None)
    kernel = meta.get("kernel") if isinstance(meta, dict) else None
    return RunManifest(
        kind="solve",
        capability=capability,
        model=model,
        params=encoded,
        seed=seed,
        chunks=chunks,
        backend={
            "requested": requested,
            "used": used,
            "chain": list(chain),
            "fallback_error": fallback_error,
            "ir_digest": ir_digest,
            # Which kernel ran an ensemble: observational, because every
            # kernel gives the same bits.
            "kernel": kernel,
            # Absent means 1, so older manifests keep their identity.
            **({"revision": revision} if revision != 1 else {}),
        },
        cache=cache_status,
        diagnostics=_diagnostics_digest(result),
        environment=environment_fingerprint(),
        platform=platform_info(),
        transport=_configured_transport(),
        result={
            "digest": digest,
            "type": f"{type(result).__module__}.{type(result).__qualname__}",
        },
        replayable=bool(model and model.get("source") is not None
                        and digest is not None),
    )


def build_batch_manifest(
    kind: str,
    params: dict,
    result,
    *,
    model: dict | None,
    chunks: dict | None = None,
    seed: dict | None = None,
    backend: dict | None = None,
    replayable: bool | None = None,
) -> RunManifest | None:
    """Manifest of a batch entry point above the registry (makespan
    CDFs, sweeps) — the caller supplies the model description and, for
    numerics past revision 1, ``backend={"revision": ...}``."""
    try:
        encoded = encode_params(params)
    except Uncacheable:
        return None
    digest = result_digest(result)
    if replayable is None:
        replayable = model is not None and digest is not None
    return RunManifest(
        kind=kind,
        capability=None,
        model=model,
        params=encoded,
        seed=seed,
        chunks=chunks,
        backend=backend,
        cache=getattr(result, "meta", {}).get("cache")
        if isinstance(getattr(result, "meta", None), dict) else None,
        diagnostics=_diagnostics_digest(result),
        environment=environment_fingerprint(),
        platform=platform_info(),
        transport=_configured_transport(),
        result={
            "digest": digest,
            "type": f"{type(result).__module__}.{type(result).__qualname__}",
        },
        replayable=bool(replayable and digest is not None),
    )


def attach_manifest(result, manifest: RunManifest | None) -> None:
    """Attach to ``result.meta["manifest"]`` (when it has a meta dict)
    and publish via :func:`last_manifest`."""
    if manifest is None:
        return
    set_last_manifest(manifest)
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        meta["manifest"] = manifest
