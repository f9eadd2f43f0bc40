"""Content-addressed result cache for solver artifacts.

Ding & Hillston's treatment of the numerical representation of a
stochastic process algebra model as a first-class artifact motivates
this layer: a solved distribution is fully determined by (the lowered
chain's IR digest, solver name, solver parameters), so identical
requests can be served from a cache without re-solving — the backbone
of bit-for-bit reproducible re-runs of published experiments.  Two
callers use it: the IR registry's dispatch (``ir.<capability>``) and
the makespan CDF (whole requests plus checkpoint chunks).  Derived
state spaces are inputs, not results, and are never stored.

Keys are SHA-256 hashes of a type-tagged frame encoding: dataclasses
encode by qualified type name plus their compared fields, mappings and
sets are order-insensitive, NumPy arrays encode dtype/shape/contents,
and sparse matrices their canonical CSR form.  The encoding is a
persisted format: result, IR and manifest digests in every stored
manifest are made of it, so changing any frame changes every stored
digest, and a fast path must emit the very bytes of the branch it
shortcuts.  Anything the encoder does not understand (object-dtype
arrays included) raises :class:`Uncacheable` and the computation simply
runs uncached — caching is always best-effort.

Values are stored as pickle bytes (in-memory LRU, plus an optional
on-disk layer under ``$REPRO_CACHE_DIR``) and unpickled on every hit so
callers always receive a private copy they may mutate freely.

The disk layer also holds batch checkpoints: each completed task of a
checkpointed :func:`~repro.engine.executor.run_tasks` batch is a disk
entry ``chunk-<sha256>-<index>``, where the hash covers the caller's
key parts and the task count.  An interrupted batch resumes from these
entries and a finished one deletes them.  Chunks never enter the
in-memory LRU.  :meth:`ResultCache.purge_chunks` ages out the batches
nobody resumed, but only ``repro serve`` calls it (at startup, with
``$REPRO_SERVE_CHECKPOINT_TTL``); outside the service an abandoned
batch's entries stay on disk until removed by hand.

Environment knobs::

    REPRO_CACHE=off       disable caching (and checkpoints) entirely
    REPRO_CACHE_DIR=path  enable the on-disk layer (and checkpoints)
    REPRO_CACHE_SIZE=n    in-memory LRU capacity (default 256 entries)
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import struct
import threading
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.engine import faults
from repro.engine.metrics import get_registry
from repro.engine.resilience import env_number

__all__ = [
    "Uncacheable",
    "ResultCache",
    "canonical_key",
    "cached",
    "get_cache",
    "configure_cache",
    "cache_disabled",
    "cache_override",
    "seal_payload",
    "unseal_payload",
    "unseal_payload_env",
]


class Uncacheable(TypeError):
    """Raised when a value has no canonical content hash."""


_MISS = object()

#: In-memory LRU capacity when ``$REPRO_CACHE_SIZE`` is unset or invalid.
_DEFAULT_SIZE = 256


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------

#: Per dataclass type, filled on first use: tag frame, compared fields' frames.
_LAYOUTS: dict[type, tuple[bytes, tuple[tuple[str, bytes], ...]]] = {}


def _str_frame(obj: str) -> bytes:
    raw = obj.encode("utf-8")
    return b"S%d:" % len(raw) + raw + b";"


def _encode(obj, out: list) -> None:
    """Append the canonical frames of ``obj`` to ``out``: each object
    meets the branch of the format's order (None, bool, int, float, str,
    bytes, NumPy scalar, array, sparse, sequence, set, dict, dataclass);
    common types come first where no object can be two of them."""
    t = type(obj)
    if isinstance(obj, str):
        out.append(_str_frame(obj))
    elif isinstance(obj, float):
        out.append(b"F" + struct.pack("<d", obj) + b";")
    elif isinstance(obj, bool):
        out.append(b"B1;" if obj else b"B0;")
    elif isinstance(obj, int):
        out.append(b"I%d;" % obj)
    elif t is tuple or t is list:
        out.append(b"L%d:" % len(obj))
        frames: dict[str, bytes] = {}  # one frame per distinct string
        for item in obj:
            if type(item) is str:
                out.append(frames.get(item) or frames.setdefault(item, _str_frame(item)))
            else:
                _encode(item, out)
        out.append(b";")
    elif obj is None:
        out.append(b"N;")
    elif t is np.ndarray:
        if obj.dtype.hasobject:  # its raw bytes are the elements' addresses
            raise Uncacheable("no canonical content hash for an object-dtype array")
        arr = np.ascontiguousarray(obj)
        out.append(b"A" + arr.dtype.str.encode() + repr(arr.shape).encode() + b":")
        out.extend((arr, b";"))  # join reads the buffer: no tobytes() copy
    elif t in _LAYOUTS:
        tag, fields = _LAYOUTS[t]
        out.append(tag)
        for name, frame in fields:
            out.append(frame)
            _encode(getattr(obj, name), out)
        out.append(b";")
    elif isinstance(obj, bytes):
        out.append(b"Y%d:" % len(obj) + obj + b";")
    elif isinstance(obj, np.generic):
        _encode(obj.item(), out)
    elif isinstance(obj, np.ndarray):
        _encode(np.ascontiguousarray(obj), out)
    elif sp.issparse(obj):
        m = obj.tocsr()
        if not m.has_sorted_indices:
            m = m.sorted_indices()
        out.append(b"M" + repr(m.shape).encode() + b":")
        for arr in (m.indptr, m.indices, m.data):
            _encode(arr, out)
        out.append(b";")
    elif isinstance(obj, (tuple, list)):
        _encode(tuple(obj), out)
    elif isinstance(obj, (set, frozenset)):
        out.append(b"E%d:" % len(obj))
        out.extend(sorted(_digest(item) for item in obj))
        out.append(b";")
    elif isinstance(obj, dict):
        out.append(b"D%d:" % len(obj))
        for key_digest, value in sorted((_digest(k), v) for k, v in obj.items()):
            out.append(key_digest)
            _encode(value, out)
        out.append(b";")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Derived memo fields (e.g. Model._rates) are excluded from
        # equality and therefore from the content hash.
        fields = [(f.name, f.name.encode() + b"=") for f in dataclasses.fields(obj) if f.compare]
        _LAYOUTS.setdefault(t, (f"O{t.__module__}.{t.__qualname__}:".encode(), tuple(fields)))
        _encode(obj, out)
    else:
        raise Uncacheable(
            f"no canonical content hash for {type(obj).__module__}."
            f"{type(obj).__qualname__}"
        )


def _digest(obj) -> bytes:
    out: list = []
    _encode(obj, out)
    return hashlib.sha256(b"".join(out)).digest()


def canonical_key(namespace: str, *parts) -> str:
    """Content-addressed cache key: ``namespace-<sha256 of parts>``.

    Raises
    ------
    Uncacheable
        If any part contains a value without a canonical encoding.
    """
    out = [namespace.encode("utf-8") + b"\x00"]
    for part in parts:
        _encode(part, out)
    return f"{namespace}-{hashlib.sha256(b''.join(out)).hexdigest()}"


# ---------------------------------------------------------------------------
# Integrity trailer
# ---------------------------------------------------------------------------

_PAYLOAD_MAGIC = b"RPRO2"
# v2 trailer: sha256(payload + env + env_len) | env_len (uint32 LE) | magic
_TRAILER_LEN = 32 + 4 + len(_PAYLOAD_MAGIC)


def _current_env_blob() -> bytes:
    from repro.engine.environment import environment_fingerprint

    return json.dumps(environment_fingerprint(), sort_keys=True).encode("utf-8")


def seal_payload(payload: bytes, env: bytes | None = None) -> bytes:
    """Append an environment-stamped SHA-256 integrity trailer.

    Disk-cache entries (batch checkpoints included) are written through
    this, so a torn write (power loss, full disk, killed process) is
    detected on read instead of surfacing as a pickle error — or worse,
    silently deserializing garbage.  The trailer also seals the writing
    process's environment fingerprint (python/numpy/scipy versions), so
    an entry produced under a different numerical stack can be
    quarantined instead of silently served (``unseal_payload_env``).
    """
    if env is None:
        env = _current_env_blob()
    body = payload + env + struct.pack("<I", len(env))
    return body + hashlib.sha256(body).digest() + _PAYLOAD_MAGIC


def unseal_payload_env(blob: bytes) -> tuple[bytes, dict | None] | None:
    """Verify a sealed blob; return ``(payload, env)`` or ``None``.

    ``env`` is the writer's environment fingerprint, or ``None`` when
    the sealed fingerprint is not a JSON object — callers that care
    about environment identity must treat that as a mismatch.  Returns
    ``None`` outright when the blob is torn, truncated, tampered with,
    or not sealed by :func:`seal_payload` at all.
    """
    if not blob.endswith(_PAYLOAD_MAGIC) or len(blob) < _TRAILER_LEN:
        return None
    len_bytes = blob[-_TRAILER_LEN : -_TRAILER_LEN + 4]
    digest = blob[-(32 + len(_PAYLOAD_MAGIC)) : -len(_PAYLOAD_MAGIC)]
    (env_len,) = struct.unpack("<I", len_bytes)
    if len(blob) < _TRAILER_LEN + env_len:
        return None
    env_raw = blob[-_TRAILER_LEN - env_len : -_TRAILER_LEN]
    payload = blob[: -_TRAILER_LEN - env_len]
    if hashlib.sha256(payload + env_raw + len_bytes).digest() != digest:
        return None
    try:
        env = json.loads(env_raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return payload, env if isinstance(env, dict) else None


def unseal_payload(blob: bytes) -> bytes | None:
    """Verify and strip the integrity trailer; ``None`` if corrupt.

    Integrity only — use :func:`unseal_payload_env` when the writer's
    environment matters (the disk cache does).
    """
    unsealed = unseal_payload_env(blob)
    return None if unsealed is None else unsealed[0]


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------

class ResultCache:
    """In-memory LRU of pickled results with an optional on-disk layer.

    Hits always unpickle a fresh copy, so cached results can never be
    corrupted by callers mutating what they were handed back.
    """

    def __init__(
        self,
        max_entries: int = _DEFAULT_SIZE,
        disk_dir: str | os.PathLike | None = None,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError("cache needs at least one entry of capacity")
        self._lock = threading.RLock()
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self._tmp_counter = itertools.count()
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self.enabled = enabled

    # -- storage ------------------------------------------------------------

    def get(self, key: str):
        """Return the cached value for ``key`` or the module-private miss
        sentinel; counts ``cache.hit`` / ``cache.miss`` metrics."""
        reg = get_registry()
        with self._lock:
            payload = self._mem.get(key)
            if payload is not None:
                self._mem.move_to_end(key)
        if payload is None and self.disk_dir is not None:
            payload = self._read_disk(key)
            if payload is not None:
                reg.increment("cache.disk_hit")
                with self._lock:
                    self._store_mem(key, payload)
        if payload is None:
            reg.increment("cache.miss")
            return _MISS
        try:
            value = pickle.loads(payload)
        except Exception:
            reg.increment("cache.corrupt_entries")
            with self._lock:
                self._mem.pop(key, None)
            reg.increment("cache.miss")
            return _MISS
        reg.increment("cache.hit")
        return value

    def _read_disk(self, key: str) -> bytes | None:
        """Read a disk entry, verifying its integrity + environment seal.

        A corrupt or truncated entry is quarantined — renamed to
        ``<key>.pkl.<pid>.corrupt`` for post-mortem inspection — counted,
        and treated as a miss.  An intact entry written under a
        *different* environment fingerprint is likewise quarantined as
        ``<key>.pkl.<pid>.envmismatch`` and counted under
        ``cache.env_mismatch``: a float produced by another numpy/scipy
        build is not evidence about this one.
        """
        path = self._disk_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        unsealed = unseal_payload_env(blob)
        if unsealed is None:
            get_registry().increment("cache.corrupt_entries")
            self._quarantine(path, "corrupt")
            return None
        payload, env = unsealed
        current = json.loads(_current_env_blob().decode("utf-8"))
        if env != current:
            get_registry().increment("cache.env_mismatch")
            self._quarantine(path, "envmismatch")
            return None
        return payload

    @staticmethod
    def _quarantine(path: Path, reason: str) -> None:
        try:
            path.replace(path.with_name(f"{path.name}.{os.getpid()}.{reason}"))
        except OSError:
            pass

    def put(self, key: str, value) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._store_mem(key, payload)
        if self.disk_dir is not None:
            self._write_disk(key, payload)

    def _write_disk(self, key: str, payload: bytes) -> bool:
        """Seal and atomically write one disk entry.  Best-effort: an
        unusable disk layer (unwritable, full, a path under a regular
        file) returns False instead of raising."""
        path = self._disk_path(key)
        blob = seal_payload(payload)
        if faults.should_fire("cache_corrupt") is not None:
            blob = blob[: max(1, len(blob) // 2)]  # simulate a torn write
        # Unique tmp name per process + call: two processes writing
        # the same key must never replace() each other's half-written
        # tmp file into place.
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(self._tmp_counter)}.tmp")
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            tmp.replace(path)  # atomic on POSIX
        except OSError:
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            return False
        return True

    def _store_mem(self, key: str, payload: bytes) -> None:
        self._mem[key] = payload
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def _disk_path(self, key: str) -> Path:
        return self.disk_dir / f"{key}.pkl"

    # -- batch checkpoints --------------------------------------------------

    def chunk_prefix(self, parts: tuple, n_tasks: int) -> str | None:
        """Key prefix of a checkpointed batch of ``n_tasks`` tasks.

        ``None`` (checkpointing off) unless the cache is enabled and has
        a disk layer — nothing is hashed then — or when ``parts`` has no
        canonical hash.  The task count is part of the key, so the same
        request cut into a different number of tasks never meets these
        chunks.
        """
        if not self.enabled or self.disk_dir is None:
            return None
        try:
            return canonical_key("chunk", *parts, n_tasks)
        except Uncacheable:
            return None

    def load_chunks(self, prefix: str, n_tasks: int) -> dict[int, object]:
        """Every intact stored task result of the batch (index -> value).

        Reads go through :meth:`_read_disk`, so a torn chunk, or one
        sealed under another environment, is quarantined and recomputed.
        """
        done: dict[int, object] = {}
        for index in range(n_tasks):
            key = f"{prefix}-{index:06d}"
            payload = self._read_disk(key)
            if payload is None:
                continue
            try:
                done[index] = pickle.loads(payload)
            except Exception:
                get_registry().increment("cache.corrupt_entries")
                self._quarantine(self._disk_path(key), "corrupt")
        return done

    def save_chunk(self, prefix: str, index: int, value) -> None:
        """Store one completed task's result on disk only — the running
        batch holds its own values.  Best-effort, like every disk write."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return
        if self._write_disk(f"{prefix}-{index:06d}", payload):
            get_registry().increment("engine.checkpoint_saved")

    def discard_chunks(self, prefix: str) -> None:
        """Delete a finished batch's chunk entries."""
        with suppress(OSError):
            for path in self.disk_dir.glob(f"{prefix}-*.pkl"):
                path.unlink(missing_ok=True)

    def purge_chunks(self, ttl_seconds: float) -> int:
        """Delete every chunk batch whose newest file is ``ttl_seconds``
        old or older.  Result entries are never evicted.

        Batches of jobs that crashed and were never retried would
        otherwise pile up under a long-lived service.  A batch's age is
        its *newest* file's, so a live batch that keeps sealing chunks
        is never purged mid-run.  Returns the number of batches dropped
        (counted as ``engine.checkpoint_purged``); a purged batch simply
        runs clean on its next attempt.
        """
        if ttl_seconds < 0:
            raise ValueError(f"ttl_seconds must be >= 0, got {ttl_seconds}")
        if self.disk_dir is None:
            return 0
        batches: dict[str, list[tuple[Path, float]]] = {}
        with suppress(OSError):
            for path in self.disk_dir.glob("chunk-*"):
                with suppress(OSError):  # racing a concurrent discard
                    batch = path.name.split("-", 2)[1]
                    batches.setdefault(batch, []).append((path, path.stat().st_mtime))
        cutoff = time.time() - ttl_seconds
        purged = 0
        for files in batches.values():
            if max(mtime for _, mtime in files) <= cutoff:
                for path, _ in files:
                    with suppress(OSError):
                        path.unlink(missing_ok=True)
                purged += 1
        if purged:
            get_registry().increment("engine.checkpoint_purged", by=purged)
        return purged

    # -- maintenance --------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._mem.clear()
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for pattern in ("*.pkl", "*.corrupt", "*.envmismatch", "*.tmp"):
                for path in self.disk_dir.glob(pattern):
                    path.unlink(missing_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def stats(self) -> dict:
        reg = get_registry()
        return {
            "entries": len(self),
            "hits": reg.counter("cache.hit"),
            "misses": reg.counter("cache.miss"),
            "disk_hits": reg.counter("cache.disk_hit"),
            "corrupt": reg.counter("cache.corrupt_entries"),
            "env_mismatch": reg.counter("cache.env_mismatch"),
            "enabled": self.enabled,
        }


def _cache_from_env() -> ResultCache:
    enabled = os.environ.get("REPRO_CACHE", "on").lower() not in ("off", "0", "false")
    size = env_number("REPRO_CACHE_SIZE", _DEFAULT_SIZE, int)
    if size < 1:
        warnings.warn(
            f"ignoring REPRO_CACHE_SIZE={size} (must be at least 1); "
            f"using default {_DEFAULT_SIZE}",
            RuntimeWarning,
            stacklevel=2,
        )
        size = _DEFAULT_SIZE
    return ResultCache(
        max_entries=size,
        disk_dir=os.environ.get("REPRO_CACHE_DIR") or None,
        enabled=enabled,
    )


_CACHE = _cache_from_env()


def get_cache() -> ResultCache:
    return _CACHE


_UNSET = object()


def configure_cache(
    max_entries: int | None = None,
    disk_dir: str | os.PathLike | None = _UNSET,
    enabled: bool | None = None,
) -> ResultCache:
    """Adjust the process-wide cache in place; returns it.

    Passing ``disk_dir=None`` explicitly *disables* the on-disk layer
    (leaving the argument out keeps the current setting).
    """
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError("cache needs at least one entry of capacity")
        _CACHE.max_entries = max_entries
    if disk_dir is not _UNSET:
        _CACHE.disk_dir = Path(disk_dir) if disk_dir is not None else None
    if enabled is not None:
        _CACHE.enabled = enabled
    return _CACHE


@contextmanager
def cache_override(enabled: bool):
    """Temporarily force the cache on or off."""
    prev = _CACHE.enabled
    _CACHE.enabled = enabled
    try:
        yield _CACHE
    finally:
        _CACHE.enabled = prev


def cache_disabled():
    """Context manager: run a block with caching off (benchmarks use this
    so repeated solves measure the solver, not the cache)."""
    return cache_override(False)


# ---------------------------------------------------------------------------
# Memoization helper used by the solver entry points
# ---------------------------------------------------------------------------

def cached(namespace: str, parts: tuple, compute):
    """Serve ``compute()`` through the content-addressed cache.

    Returns ``(value, status)`` with status one of ``"hit"``, ``"miss"``,
    ``"off"`` (cache disabled) or ``"uncacheable"`` (no canonical key, or
    the result itself cannot be pickled).  Never raises on cache
    machinery problems — the computation always wins.
    """
    reg = get_registry()
    if not _CACHE.enabled:
        return compute(), "off"
    try:
        key = canonical_key(namespace, *parts)
    except Uncacheable:
        reg.increment("cache.uncacheable")
        return compute(), "uncacheable"
    value = _CACHE.get(key)
    if value is not _MISS:
        reg.increment(f"{namespace}.cache_hit")
        return value, "hit"
    value = compute()
    reg.increment(f"{namespace}.cache_miss")
    try:
        _CACHE.put(key, value)
    except (pickle.PicklingError, TypeError, AttributeError):
        reg.increment("cache.unstorable")
        return value, "uncacheable"
    return value, "miss"
