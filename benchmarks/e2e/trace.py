"""Spans around the program's layers, recorded from outside the program.

:func:`install` wraps the public functions of each layer (the table
:data:`PATCH_POINTS`) and every backend registered for the ``derive``
and ``ssa`` registry capabilities.  A wrapper is installed in the
namespace of every ``repro`` module that holds the function — modules
bind names at import (``from repro.pepa.statespace import derive``), so
patching only the defining module would miss most calls.  Nothing under
``src/`` changes.

A span is ``(id, parent, name, layer, start, end, request, info,
kind)`` with ``time.monotonic()`` stamps, which on Linux read the
system-wide ``CLOCK_MONOTONIC`` — so spans of the traced server and of
the client process share one timeline.  Spans stay in memory until the
benchmark writes them out.

A layer's *self time* is its span durations minus the time covered by
direct child spans.  ``cached`` runs the computation it caches and
``run_tasks`` runs its task function inside themselves, so their
wrappers hand that work back to the caller's layer as a *resumed* span:
the solve under ``steady_state``'s cache lookup counts as
``numerics.steady`` time, not as cache time.  Resumed spans add self
time but not calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time

__all__ = [
    "BACKEND_LAYERS",
    "LAYERS",
    "PATCH_POINTS",
    "REGISTRY_LAYERS",
    "REQUEST_LAYER",
    "SERVER_FIRST_ID",
    "Tracer",
    "admission_waits_ms",
    "export_spans",
    "install",
    "layer_table",
    "patch_point_calls",
    "without_idle_waits",
]

#: ``(layer, module, attribute)``; ``Class.method`` attributes are
#: patched on the class.  Layer names are the modules' names.
PATCH_POINTS = (
    ("pepa.parser", "repro.pepa.parser", "parse_model"),
    ("pepa.statespace", "repro.pepa.statespace", "derive"),
    ("pepa.ctmc", "repro.pepa.ctmc", "ctmc_of"),
    ("pepa.ctmc", "repro.pepa.ctmc", "CTMC.lower"),
    ("engine.cache", "repro.engine.cache", "canonical_key"),
    ("engine.cache", "repro.engine.cache", "cached"),
    ("ir.registry", "repro.ir.registry", "solve"),
    ("numerics.steady", "repro.numerics.steady", "steady_state"),
    ("numerics.diagnostics", "repro.numerics.diagnostics", "condition_estimate"),
    ("numerics.diagnostics", "repro.numerics.diagnostics", "steady_residual"),
    ("ir.guards", "repro.ir.guards", "verify"),
    ("numerics.transient", "repro.numerics.transient", "transient_distribution"),
    ("numerics.transient", "repro.numerics.transient", "absorption_cdf"),
    ("numerics.transient", "repro.numerics.transient", "expected_hitting_time"),
    ("pepa.passage", "repro.pepa.passage", "passage_time_cdf"),
    ("pepa.passage", "repro.pepa.passage", "passage_time_mean"),
    ("allocation.machines", "repro.allocation.machines", "build_machine_model"),
    ("allocation.cdf", "repro.allocation.cdf", "makespan_cdf"),
    ("allocation.cdf", "repro.allocation.cdf", "finishing_time_cdf"),
    ("engine.executor", "repro.engine.executor", "run_tasks"),
    ("engine.run_manifest", "repro.engine.run_manifest", "build_solve_manifest"),
    ("engine.run_manifest", "repro.engine.run_manifest", "build_batch_manifest"),
    ("service.client", "repro.service.client", "ServiceClient.submit"),
    ("service.client", "repro.service.client", "ServiceClient.status"),
    ("service.client", "repro.service.client", "ServiceClient.result"),
    ("service.admission", "repro.service.admission", "AdmissionController.admit"),
    ("service.admission", "repro.service.admission", "AdmissionController.take"),
    ("service.journal", "repro.service.journal", "JobJournal.append"),
    ("service.journal", "repro.service.journal", "JobStore.save_result"),
    ("service.jobs", "repro.service.jobs", "execute_spec"),
)

#: Registry capabilities whose every backend is wrapped, and their layer.
REGISTRY_LAYERS = (
    ("pepa.derivation", "derive"),
    ("ir.backends.ssa", "ssa"),
)

#: Every traced layer, in stack order.
LAYERS = (
    "pepa.parser",
    "pepa.statespace",
    "pepa.derivation",
    "pepa.ctmc",
    "engine.cache",
    "ir.registry",
    "numerics.steady",
    "numerics.diagnostics",
    "ir.guards",
    "numerics.transient",
    "pepa.passage",
    "allocation.machines",
    "allocation.cdf",
    "engine.executor",
    "engine.run_manifest",
    "ir.backends.ssa",
    "service.client",
    "service.admission",
    "service.journal",
    "service.jobs",
)

#: The layers that do the numerical work a request asks for; every other
#: layer's self time is overhead around them (``overhead_ratio``).
BACKEND_LAYERS = ("numerics.steady", "numerics.transient", "ir.backends.ssa")

#: Layer of the benchmark's own span around each local request: its self
#: time is the entry point's glue that no wrapped layer covers.
REQUEST_LAYER = "request"

_SKIP = object()


#: Span ids of the traced server start here, so its spans and the
#: client's can be merged into one table without colliding.
SERVER_FIRST_ID = 1 << 40


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self, first_id: int = 0):
        self.spans: list[tuple] = []
        self.recording = True
        self._ids = itertools.count(first_id)
        self._local = threading.local()

    def set_request(self, request) -> None:
        """Tag spans opened by this thread with ``request`` from now on."""
        self._local.request = request

    def reset(self) -> None:
        self.spans = []

    @contextlib.contextmanager
    def paused(self):
        """Record nothing from this thread (the harness's own calls)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def current_layer(self) -> str:
        stack = getattr(self._local, "stack", None)
        return stack[-1][1] if stack else REQUEST_LAYER

    def call(self, layer, name, fn, args=(), kwargs=None, *, resumed=False,
             note=None):
        """Run ``fn(*args, **kwargs)`` inside a span.

        ``note(args, kwargs, result)`` may attach one value to the span,
        or return ``_SKIP`` to drop it (an idle queue poll is no work).
        """
        kwargs = kwargs or {}
        local = self._local
        if not self.recording or getattr(local, "paused", False):
            return fn(*args, **kwargs)
        stack = local.__dict__.setdefault("stack", [])
        parent = stack[-1][0] if stack else None
        span_id = next(self._ids)
        stack.append((span_id, layer))
        result = None
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic()
            stack.pop()
            info = note(args, kwargs, result) if note is not None else None
            if info is not _SKIP:
                self.spans.append((
                    span_id, parent, name, layer, start, end,
                    getattr(local, "request", None), info,
                    "resume" if resumed else "call",
                ))

    def wrap(self, layer, name, fn, note=None, hand_back=None):
        """``fn`` recording a span per call.

        ``hand_back`` is the position of a callable argument that ``fn``
        runs inside itself (a cached computation, an executor's task
        function).  It runs as a resumed span of the *caller's* layer, so
        its work is not counted as ``layer``'s own.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hand_back is not None and len(args) > hand_back:
                caller = tracer.current_layer()
                inner = args[hand_back]

                def resumed(*a, **k):
                    return tracer.call(caller, f"{name}:resumed", inner, a, k,
                                       resumed=True)

                args = args[:hand_back] + (resumed,) + args[hand_back + 1:]
            return tracer.call(layer, name, fn, args, kwargs, note=note)

        return traced


def export_spans(spans, origin: float) -> dict:
    """Spans in compact column form, times in microseconds since ``origin``."""
    names: dict[str, int] = {}
    layers = list(LAYERS) + [REQUEST_LAYER]
    rows = []
    for span_id, parent, name, layer, start, end, request, _info, kind in spans:
        rows.append([
            span_id, parent, names.setdefault(name, len(names)),
            layers.index(layer), round((start - origin) * 1e6),
            round((end - start) * 1e6), request, int(kind == "resume"),
        ])
    rows.sort(key=lambda row: row[0])
    return {
        "columns": ["id", "parent", "name", "layer", "start_us",
                    "duration_us", "request", "resumed"],
        "names": list(names),
        "layers": layers,
        "rows": rows,
    }


def _note_tasks(args, kwargs, result):
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    return len(tasks) if hasattr(tasks, "__len__") else None


def _note_admitted(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("job_id")


def _note_taken(args, kwargs, result):
    return _SKIP if result is None else result


_NOTES = {
    "run_tasks": _note_tasks,
    "AdmissionController.admit": _note_admitted,
    "AdmissionController.take": _note_taken,
}

#: Callable arguments run inside the wrapped function: the computation
#: ``cached`` serves on a miss, the task function ``run_tasks`` maps.
#: The benchmark runs with one worker, so tasks execute inline and the
#: wrapper around the task function is never pickled.
_HAND_BACK = {"cached": 2, "run_tasks": 0}


def _point_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute}"


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(tracer: Tracer, modules: tuple[str, ...] = ()) -> None:
    """Wrap every patch point (after importing ``modules`` and each
    point's own module, so import-time bindings exist to be rebound)."""
    for name in modules:
        importlib.import_module(name)
    for layer, module_name, attribute in PATCH_POINTS:
        module = importlib.import_module(module_name)
        point = _point_name(module_name, attribute)
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(
                layer, point, cls.__dict__[method], note=_NOTES.get(attribute)
            ))
        else:
            original = getattr(module, attribute)
            _rebind(original, tracer.wrap(
                layer, point, original, note=_NOTES.get(attribute),
                hand_back=_HAND_BACK.get(attribute),
            ))
    from repro.ir import registry

    for layer, capability in REGISTRY_LAYERS:
        for name in registry.available_backends(capability)[capability]:
            backend = registry.get_backend(capability, name)
            registry.register_backend(
                capability, name,
                tracer.wrap(layer, f"registry.{capability}.{name}", backend.func),
                accepts=backend.accepts, cache=backend.cache,
            )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def layer_table(spans) -> dict:
    """``{layer: {"calls", "self_s"}}`` over ``spans`` (resumed spans add
    self time only).  Child time is subtracted only for children inside
    the same span set, so filter whole requests, not single spans."""
    child_time: dict = {}
    for span in spans:
        parent = span[1]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (span[5] - span[4])
    table: dict = {}
    for span in spans:
        span_id, _parent, name, layer, start, end = span[:6]
        entry = table.setdefault(layer, {"calls": 0, "self_s": 0.0})
        if span[8] == "call":
            entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return table


def patch_point_calls(spans) -> dict:
    """Call count per wrapped function (resumed spans excluded)."""
    counts: dict = {}
    for span in spans:
        if span[8] == "call":
            counts[span[2]] = counts.get(span[2], 0) + 1
    return counts


_ADMIT = _point_name("repro.service.admission", "AdmissionController.admit")
_TAKE = _point_name("repro.service.admission", "AdmissionController.take")


def admission_waits_ms(spans) -> list[float]:
    """Admit→take delay per job (milliseconds)."""
    admitted = {span[7]: span[5] for span in spans if span[2] == _ADMIT}
    return [
        (span[5] - admitted[span[7]]) * 1e3 for span in spans
        if span[2] == _TAKE and span[7] in admitted
    ]


def without_idle_waits(spans) -> list[tuple]:
    """Start each ``take`` span no earlier than its job's admission.

    A worker blocks in ``take`` until a job arrives; that idle time is
    not work of the admission layer, so it is cut from the span.
    """
    admitted = {span[7]: span[5] for span in spans if span[2] == _ADMIT}
    out = []
    for span in spans:
        if span[2] == _TAKE and admitted.get(span[7], span[4]) > span[4]:
            span = span[:4] + (min(admitted[span[7]], span[5]),) + span[5:]
        out.append(span)
    return out
