"""Metric definitions and their computation from one workload's passes.

End-to-end metrics come from the untraced pass only; per-layer metrics
from the traced pass (plus the untraced throughput, for the tracing
overhead).  ``BENCHMARK.json`` names the same metrics: the end-to-end
ones that can never read 0 carry a regression bound there, except the
latency percentiles, which are only reported; ``error_rate`` and
``check_failures`` must stay exactly 0 and are reported in the result's
``failed``/``correct`` fields.
"""

from __future__ import annotations

import statistics

from benchmarks.e2e import calibrate, trace

__all__ = [
    "BOUNDED_METRICS",
    "END_TO_END",
    "PER_LAYER",
    "UNBOUNDED_METRICS",
    "ZERO_METRICS",
    "end_to_end",
    "per_layer",
    "timings",
]

#: ``(name, unit)`` of every end-to-end metric, reported per workload.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("error_rate", "ratio"),
    ("check_failures", "count"),
    ("peak_rss_mb", "MB"),
)

#: Metrics that must be exactly 0 on every run (bound: absolute 0).
ZERO_METRICS = ("error_rate", "check_failures")

#: Reported, but without a bound: over ten seeds, ``service_mix``'s
#: median and 90th-percentile request spread by up to 9% and 11%.
UNBOUNDED_METRICS = ("latency_p50_s", "latency_p90_s")

#: End-to-end metrics with a relative regression bound in BENCHMARK.json.
BOUNDED_METRICS = tuple(
    name for name, _ in END_TO_END if name not in ZERO_METRICS + UNBOUNDED_METRICS
)

_EXTRAS = (
    ("pepa.statespace.memo_hit_ratio", "ratio", "higher"),
    ("pepa.derivation.kronecker_share", "ratio", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("ir.registry.fallback_ratio", "ratio", "lower"),
    ("numerics.diagnostics.kappa_per_req", "count", "lower"),
    ("ir.guards.violations", "count", "lower"),
    ("engine.executor.tasks_per_req", "count", "lower"),
    ("service.client.rtt_ms_p50", "ms", "lower"),
    ("service.client.polls_per_job", "count", "lower"),
    ("service.admission.wait_ms_p50", "ms", "lower"),
    ("service.admission.rejected", "count", "lower"),
    ("service.jobs.dedupe_ratio", "ratio", "higher"),
    ("overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER = tuple(
    entry
    for layer in trace.LAYERS
    for entry in (
        (f"{layer}.calls_per_req", "count", "lower"),
        (f"{layer}.self_ms_per_req", "ms", "lower"),
    )
) + _EXTRAS


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``0 <= q <= 1``)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latencies(run: dict, scaled: bool = True) -> list[float]:
    """The completed requests' latencies, in reference seconds (see
    :mod:`benchmarks.e2e.calibrate`) or, with ``scaled=False``, in wall
    seconds."""
    if not run["completions"]:
        raise RuntimeError(f"{run['workload']}: no request completed in the window")
    if not scaled:
        return [latency for _end, latency in run["completions"]]
    factor = calibrate.host_factors(run["calibrations"], *run["window"])
    return [latency / factor(end) for end, latency in run["completions"]]


def throughput(lats: list[float]) -> float:
    """Requests completed per second of closed-loop client time: the
    client always has one request in flight, except while it runs a
    calibration, which is left out."""
    return len(lats) / sum(lats)


def timings(run: dict, scaled: bool = True) -> dict:
    lats = latencies(run, scaled)
    return {
        "throughput_rps": throughput(lats),
        "latency_p50_s": quantile(lats, 0.5),
        "latency_p90_s": quantile(lats, 0.9),
    }


def end_to_end(plain: dict, setup_s: float) -> dict:
    """Every end-to-end metric, ``{name: value}``, of an untraced pass;
    timings are in reference seconds."""
    return {
        "setup_s": setup_s,
        **timings(plain),
        "error_rate": plain["failed"] / plain["attempted"],
        "check_failures": plain["check_failures"],
        "peak_rss_mb": plain["peak_rss_mb"],
    }


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def window_spans(traced: dict) -> list[tuple]:
    """The traced pass's spans: the client's (already limited to the
    completed requests) plus the server's that started in the window."""
    spans = [tuple(span) for span in traced.get("spans", ())]
    start, end = traced["window"]
    server = [tuple(span) for span in traced.get("server_spans", ())
              if start <= span[4] < end]
    return spans + trace.without_idle_waits(server)


def per_layer(traced: dict, spans: list[tuple], plain_throughput: float) -> dict:
    """Every per-layer metric, ``{name: value}``, of a traced pass."""
    n = traced["completed"]
    if not n:
        raise RuntimeError(f"{traced['workload']}: no request completed in the traced window")
    table = trace.layer_table(spans)
    points = trace.patch_point_calls(spans)
    counters = traced["counters"]

    def count(name):
        return counters.get(name, 0)

    out = {}
    for layer in trace.LAYERS:
        entry = table.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls_per_req"] = entry["calls"] / n
        out[f"{layer}.self_ms_per_req"] = entry["self_s"] * 1e3 / n
    auto = {k: v for k, v in counters.items() if k.startswith("derive.auto.")}
    client = [s for s in spans if s[3] == "service.client"]
    out.update({
        "pepa.statespace.memo_hit_ratio": _ratio(
            count("derive.memo_hit"),
            count("derive.memo_hit") + count("derive.memo_miss")),
        "pepa.derivation.kronecker_share": _ratio(
            auto.get("derive.auto.kronecker", 0), sum(auto.values())),
        "engine.cache.hit_ratio": _ratio(
            count("cache.hit"), count("cache.hit") + count("cache.miss")),
        "ir.registry.fallback_ratio": _ratio(
            count("ir.fallback.used"),
            table.get("ir.registry", {}).get("calls", 0)),
        "numerics.diagnostics.kappa_per_req": points.get(
            "repro.numerics.diagnostics.condition_estimate", 0) / n,
        "ir.guards.violations": count("ir.trust.sentinel_violation"),
        "engine.executor.tasks_per_req": sum(
            s[7] or 0 for s in spans
            if s[2] == "repro.engine.executor.run_tasks") / n,
        "service.client.rtt_ms_p50": _median((s[5] - s[4]) * 1e3 for s in client),
        "service.client.polls_per_job": points.get(
            "repro.service.client.ServiceClient.status", 0) / n,
        "service.admission.wait_ms_p50": _median(trace.admission_waits_ms(spans)),
        "service.admission.rejected": count("service.rejected_full")
        + count("service.throttled") + count("service.shed"),
        "service.jobs.dedupe_ratio": _ratio(
            count("service.deduped"), count("service.submitted")),
    })
    # The client's spans wait on the server, whose own spans are counted.
    backend = sum(table[l]["self_s"] for l in trace.BACKEND_LAYERS if l in table)
    other = sum(entry["self_s"] for layer, entry in table.items()
                if layer not in trace.BACKEND_LAYERS and layer != "service.client")
    out["overhead_ratio"] = _ratio(other, backend)
    traced_throughput = throughput(latencies(traced))
    out["trace.overhead_ratio"] = plain_throughput / traced_throughput - 1.0
    return out
