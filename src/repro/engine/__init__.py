"""Shared experiment-execution engine: parallelism, caching, metrics.

Four orthogonal facilities every analysis layer builds on:

``executor`` / ``transport``
    Ordered fan-out of independent work units over a pluggable transport
    (inline, supervised process pool, or the lease-based remote worker
    fleet in :mod:`repro.engine.remote`) with deterministic per-task
    seeding — results are bit-identical across worker counts *and*
    transports (see the executor docstring for the contract).  ``remote`` is imported lazily on first use; reach it via
    ``get_transport("remote")`` or ``$REPRO_TRANSPORT=remote``.
``run_manifest`` / ``environment``
    Self-contained reproducibility manifests assembled around every
    engine run — model hash, seed spec, backend chain, chunk structure,
    environment fingerprint — serializable to JSON and re-executable by
    ``repro replay``.
``resilience`` / ``faults``
    Fault tolerance for unattended runs: the supervised pool loop
    (per-task timeout, bounded retry, broken-pool recovery, sequential
    degradation) and the deterministic fault-injection harness the
    chaos suite uses to prove bit-identity under failure.
``cache``
    Content-addressed result cache (in-memory LRU plus optional disk
    layer, SHA-256 integrity trailer on every entry) keyed on canonical
    hashes of (model, solver, parameters).  The disk layer also holds
    the per-task checkpoints an interrupted batch resumes from.
``metrics``
    Process-wide registry of solver wall times, state-space sizes,
    iteration counts and cache hit/miss counters, surfaced by the
    ``repro metrics`` CLI subcommand.
"""

from repro.engine import faults
from repro.engine.cancellation import (
    CancelScope,
    cancel_scope,
    current_scope,
)
from repro.engine.cache import (
    ResultCache,
    Uncacheable,
    cache_disabled,
    cache_override,
    cached,
    canonical_key,
    configure_cache,
    get_cache,
    seal_payload,
    unseal_payload,
    unseal_payload_env,
)
from repro.engine.environment import environment_fingerprint, platform_info
from repro.engine.executor import (
    EngineConfig,
    current_config,
    parallel,
    run_tasks,
    spawn_seeds,
    welford_merge,
)
from repro.engine.metrics import (
    MetricsRegistry,
    get_registry,
    increment,
    metrics_snapshot,
    render_metrics,
    reset_metrics,
    timer,
)
from repro.engine.resilience import (
    ResiliencePolicy,
    resolve_policy,
    supervised_map,
)
from repro.engine.transport import (
    InlineTransport,
    ProcessPoolTransport,
    Transport,
    available_transports,
    get_transport,
    resolve_transport,
)

__all__ = [
    # executor
    "EngineConfig",
    "parallel",
    "current_config",
    "run_tasks",
    "spawn_seeds",
    "welford_merge",
    # cancellation
    "CancelScope",
    "cancel_scope",
    "current_scope",
    # resilience
    "ResiliencePolicy",
    "resolve_policy",
    "supervised_map",
    "faults",
    # cache
    "ResultCache",
    "Uncacheable",
    "canonical_key",
    "cached",
    "get_cache",
    "configure_cache",
    "cache_disabled",
    "cache_override",
    "seal_payload",
    "unseal_payload",
    "unseal_payload_env",
    # transport
    "Transport",
    "InlineTransport",
    "ProcessPoolTransport",
    "available_transports",
    "get_transport",
    "resolve_transport",
    # environment
    "environment_fingerprint",
    "platform_info",
    # metrics
    "MetricsRegistry",
    "get_registry",
    "increment",
    "timer",
    "metrics_snapshot",
    "reset_metrics",
    "render_metrics",
]
