"""One benchmark pass of one workload, in a fresh interpreter.

Started by :mod:`benchmarks.e2e.run`, which strips ``REPRO_*`` from the
environment first::

    python -m benchmarks.e2e.child --workload steady_lan1k --seed 2019 \\
        --seconds 24 --trace 0 --out pass.json \\
        [--url http://127.0.0.1:PORT --rss-pid SERVER_PID]

Warm-up requests run first and are not timed.  The timed window then
lasts exactly ``--seconds``: one client sends its next request only
after its previous one finished (closed loop), and a request counts as
completed only if it finished inside the window.  Between requests, at
most every ``calibrate.INTERVAL`` seconds, the client runs the
host-speed kernel of :mod:`benchmarks.e2e.calibrate`, outside any
request's timing.  After the window the tracer stops and the
independent checks run, untimed.  Everything measured is written to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from benchmarks.e2e import calibrate, trace
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

#: Failure messages kept in the result (the counts are always complete).
MAX_MESSAGES = 10

#: ``peak_rss_mb`` is read once this many timed requests have completed
#: (at the window's end if fewer do).  Memory grows with the requests
#: served, as the content cache fills, so a fixed count keeps a faster
#: machine from reporting more memory.
RSS_REQUESTS = 50


def peak_rss_mb(pid: str = "self") -> float:
    """The resident-set high-water mark (``VmHWM``) of process ``pid``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def _counters(client) -> dict:
    """Counters of the process that runs the solves."""
    if client is not None:
        return client.metrics()["counters"]
    from repro.engine.metrics import get_registry

    return get_registry().snapshot()["counters"]


def _delta(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def run_pass(workload, seed: int, seconds: float, tracer, url: str | None,
             rss_pid: str = "self") -> dict:
    """Warm up, run the timed window, then check; ``rss_pid`` is the
    process whose memory is reported (the server for ``service_mix``)."""
    from repro.engine.run_manifest import result_digest

    requests = enumerate(workload.requests(np.random.default_rng(seed)))
    client = None
    if url is not None:
        from repro.service.client import ServiceClient

        client = ServiceClient(url, timeout=120.0)
    records: list[dict] = []
    kept: list[tuple] = []
    problems: list[str] = []
    calibrations: list[list[float]] = []
    succeeded = 0
    rss = None

    def send(request):
        if tracer is not None and url is None:
            return tracer.call(
                trace.REQUEST_LAYER, f"request.{workload.name}",
                workload.execute, (request, client),
            )
        return workload.execute(request, client)

    def serve(timed: bool):
        """Send the next request and record it."""
        nonlocal succeeded, rss
        index, request = next(requests)
        if tracer is not None:
            tracer.set_request(index)
        error = result = digest = None
        start = time.monotonic()
        try:
            result = send(request)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            error = f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        if error is None:
            if url is not None:
                digest = result["digest"]
            elif tracer is not None:
                with tracer.paused():
                    digest = result_digest(result)
            else:
                digest = result_digest(result)
            problems.extend(workload.quick_check(request, result))
        records.append({
            "index": index, "timed": timed, "start": start,
            "end": end, "error": error, "digest": digest,
            "original": getattr(request, "original", None),
            "lost": result.get("lost_submissions", 0) if url and result else 0,
        })
        if timed and error is None:
            succeeded += 1
            if succeeded == RSS_REQUESTS:
                rss = peak_rss_mb(rss_pid)
            if ((index - workload.warmup) % workload.check_every == 0
                    and len(kept) < workload.max_checks):
                kept.append((request, result))

    warmup_start = time.monotonic()
    for _ in range(workload.warmup):
        serve(timed=False)
    before = _counters(client)
    if tracer is not None:
        tracer.reset()
    window = {"start": time.monotonic()}
    window["end"] = window["start"] + seconds
    last_calibration = -np.inf
    while (now := time.monotonic()) < window["end"]:
        if now - last_calibration >= calibrate.INTERVAL:
            for _ in range(calibrate.KERNEL_RUNS):
                kernel_seconds = calibrate.timed_kernel()
                calibrations.append([time.monotonic(), kernel_seconds])
            last_calibration = now
        else:
            serve(timed=True)
    if tracer is not None:
        tracer.recording = False
    if rss is None:
        rss = peak_rss_mb(rss_pid)
    counters = _delta(before, _counters(client))

    checks_start = time.monotonic()
    checks_run = 0
    for request, result in kept:
        checks_run += 1
        try:
            problems.extend(workload.check(request, result))
        except Exception as exc:  # noqa: BLE001 - a failed check is a finding
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    digests = {r["index"]: r["digest"] for r in records if r["digest"]}
    for record in records:
        original = record["original"]
        if record["timed"] and record["digest"] and original in digests:
            checks_run += 1
            if record["digest"] != digests[original]:
                problems.append(
                    f"resubmission {record['index']} of {original} returned "
                    f"{record['digest']}, original {digests[original]}"
                )

    timed = [r for r in records if r["timed"]]
    done = [r for r in timed if r["error"] is None and r["end"] <= window["end"]]
    completed = {r["index"] for r in done}
    out = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "window": [window["start"], window["end"]],
        "phase_s": {
            "warmup": window["start"] - warmup_start,
            "checks": time.monotonic() - checks_start,
        },
        "attempted": len(timed),
        "failed": sum(1 for r in timed if r["error"] is not None),
        "completed": len(done),
        "completions": [[r["end"], r["end"] - r["start"]] for r in done],
        "calibrations": [c for c in calibrations
                         if window["start"] <= c[0] < window["end"]],
        "errors": [r["error"] for r in timed if r["error"]][:MAX_MESSAGES],
        "lost_submissions": sum(r["lost"] for r in timed),
        "digests": [[r["index"], r["digest"]] for r in done],
        "checks_run": checks_run,
        "check_failures": len(problems),
        "check_messages": problems[:MAX_MESSAGES],
        "peak_rss_mb": rss,
        "counters": counters,
        "environment": _environment(),
    }
    if tracer is not None:
        out["spans"] = [s for s in tracer.spans if s[6] in completed]
    return out


def _environment() -> dict:
    from repro.engine.environment import environment_fingerprint, platform_info

    info = platform_info()
    return {
        "fingerprint": environment_fingerprint(),
        "system": info["system"],
        "machine": info["machine"],
    }


def _check_origin() -> None:
    """Refuse to measure a ``repro`` other than this checkout's."""
    import repro

    if (ROOT / "src").resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit("repro is imported from outside this checkout's src/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--url", default=None,
                        help="service base URL (service_mix only)")
    parser.add_argument("--rss-pid", default="self",
                        help="process whose peak RSS is reported (the server)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    _check_origin()
    tracer = None
    if args.trace:
        tracer = trace.Tracer()
        trace.install(tracer, workload.imports)
    else:
        for name in workload.imports:
            importlib.import_module(name)
    result = run_pass(workload, args.seed, args.seconds, tracer, args.url,
                      args.rss_pid)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
