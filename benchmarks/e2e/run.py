"""End-to-end request benchmark with per-layer attribution.

Four closed-loop workloads drive whole requests through the entry
points users call — ``repro.manifest.run_from_source`` (what ``repro
solve`` and the service's ``execute_spec`` run),
``repro.allocation.makespan_cdf`` and a real ``repro serve`` over HTTP —
check every output against an independent reference, and print each
end-to-end metric with its unit::

    PYTHONPATH=src python -m benchmarks.e2e run --seed 2019
    PYTHONPATH=src python -m benchmarks.e2e run --workload steady_lan1k --trace
    python3 benchmarks/e2e/run.py --workload solve_small --seed 7 --seconds 24 --trace 0
    python -m benchmarks.e2e compare --base A/results.json --change B/results.json

``--trace`` adds a second, separate pass per workload with every layer
wrapped (see :mod:`benchmarks.e2e.trace`); end-to-end numbers always
come from the untraced pass.  Each pass runs in a fresh interpreter
whose environment has every ``REPRO_*`` variable removed.  Results go
to ``--out`` (``results.json`` and ``trace-<workload>.json``); the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or with ``--trace 1``
the per-layer ones).  Exit status is 1 when any output fails its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import calibrate, compare, metrics, trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 2019

#: Seconds a run measures (BENCHMARK.json ``run_seconds``): the timed
#: window of an untraced run, split in half between the two passes of a
#: traced one.
DEFAULT_SECONDS = 24

#: Cold starts per setup measurement; ``setup_s`` is their median.
SETUP_RUNS = 3

#: ``repro serve`` flags of the service workload: two job workers, and a
#: tenant rate far above what a closed-loop client can submit, so
#: admission never throttles.
SERVER_FLAGS = ("--workers", "2", "--tenant-rate", "1000", "--tenant-burst", "1000")

#: BLAS threads of every process the benchmark starts.
BLAS_THREADS = 1

#: Each pass gets this long beyond its window before it counts as hung.
PASS_GRACE_SECONDS = 120
START_TIMEOUT_SECONDS = 60


class BenchmarkError(RuntimeError):
    """A pass could not be measured (as opposed to a failed check)."""


def child_env(work: Path) -> dict:
    """The environment of every process the benchmark starts.

    ``REPRO_*`` knobs are removed so the caller's shell cannot change
    what is measured; ``repro`` comes from this checkout's ``src/``;
    hashing, temp files and BLAS threads are pinned for repeatability.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def _first_line(proc, timeout: float, log: Path) -> str:
    """The first line ``proc`` prints, or BenchmarkError on exit/timeout."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchmarkError(
            f"{' '.join(proc.args[1:4])} exited or printed nothing within "
            f"{timeout:g}s:\n{_tail(log)}"
        )
    return line.strip()


def _stop(proc) -> None:
    """SIGTERM, then SIGKILL if it does not exit; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _spawn(cmd, env, log: Path):
    """Start a process of the program under test."""
    with open(log, "ab") as err:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )


def probe_start(imports, env, log: Path) -> float:
    """Seconds from spawning an interpreter until ``imports`` (which
    register every backend) are loaded."""
    code = f"import {', '.join(imports)}; print('ready', flush=True)"
    start = time.monotonic()
    proc = _spawn([sys.executable, "-c", code], env, log)
    try:
        line = _first_line(proc, START_TIMEOUT_SECONDS, log)
        elapsed = time.monotonic() - start
        proc.wait(timeout=START_TIMEOUT_SECONDS)
    finally:
        _stop(proc)
    if line != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"cold-start probe failed:\n{_tail(log)}")
    return elapsed


def _ready(url: str) -> bool:
    try:
        with urllib.request.urlopen(f"{url}/readyz", timeout=5) as response:
            return response.status == 200
    except (urllib.error.URLError, ConnectionError, OSError):
        return False


def start_server(state: Path, env, log: Path, spans: Path | None = None):
    """Start the service; returns ``(process, url, seconds until /readyz
    answered 200)``."""
    if spans is None:
        cmd = [sys.executable, "-m", "repro.cli", "serve"]
    else:
        cmd = [sys.executable, "-m", "benchmarks.e2e.serve_traced",
               "--spans", str(spans)]
    cmd += ["--dir", str(state), "--port", "0", *SERVER_FLAGS]
    start = time.monotonic()
    proc = _spawn(cmd, env, log)
    try:
        line = _first_line(proc, START_TIMEOUT_SECONDS, log)
        if not line.startswith("listening on "):
            raise BenchmarkError(f"unexpected server output {line!r}")
        url = line.split()[-1]
        deadline = start + START_TIMEOUT_SECONDS
        while not _ready(url):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise BenchmarkError(f"server never became ready:\n{_tail(log)}")
            time.sleep(0.005)
    except BaseException:
        _stop(proc)
        raise
    return proc, url, time.monotonic() - start


def measure_setup(name: str, env, work: Path) -> tuple[float, float]:
    """``(reference seconds, wall seconds)``: the median of
    :data:`SETUP_RUNS` cold starts, scaled by the mean of a reference
    cold start before them and one after (:mod:`benchmarks.e2e.calibrate`)."""
    log = work / f"{name}-setup.log"

    def reference() -> float:
        return probe_start(calibrate.REFERENCE_IMPORTS, env, log)

    before = reference()
    wall = []
    for run in range(SETUP_RUNS):
        if name == "service_mix":
            state = work / f"setup-state-{run}"
            proc, _url, elapsed = start_server(state, env, log)
            _stop(proc)
            shutil.rmtree(state, ignore_errors=True)
        else:
            elapsed = probe_start(WORKLOADS[name].imports, env, log)
        wall.append(elapsed)
    host = (before + reference()) / 2
    median = statistics.median(wall)
    return median * calibrate.REFERENCE_START_SECONDS / host, median


def run_pass(name: str, seed: int, seconds: float, traced: bool, env, work: Path) -> dict:
    """One fresh-interpreter pass; the service's server is started and
    stopped around it."""
    label = f"{name}-{'traced' if traced else 'plain'}"
    log = work / f"{label}.log"
    out = work / f"{label}.json"
    spans = None
    server = url = None
    if name == "service_mix":
        if traced:
            spans = work / f"{label}-server-spans.json"
        server, url, _ = start_server(work / f"{label}-state", env, log, spans)
    try:
        cmd = [sys.executable, "-m", "benchmarks.e2e.child", "--workload", name,
               "--seed", str(seed), "--seconds", repr(float(seconds)),
               "--trace", str(int(traced)), "--out", str(out)]
        if server is not None:
            cmd += ["--url", url, "--rss-pid", str(server.pid)]
        with open(log, "ab") as err:
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=env, stdout=err, stderr=err,
                    timeout=seconds + PASS_GRACE_SECONDS,
                )
            except subprocess.TimeoutExpired:
                raise BenchmarkError(f"{label} pass timed out:\n{_tail(log)}") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"{label} pass failed:\n{_tail(log)}")
        result = json.loads(out.read_text())
    finally:
        if server is not None:
            _stop(server)
    if spans is not None:
        result["server_spans"] = json.loads(spans.read_text())["spans"]
    return result


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _digest_agreement(plain: dict, traced: dict) -> tuple[int, int]:
    """``(requests both passes completed, how many of them returned
    different result digests)``."""
    a, b = dict(map(tuple, plain["digests"])), dict(map(tuple, traced["digests"]))
    common = a.keys() & b.keys()
    return len(common), sum(1 for index in common if a[index] != b[index])


def measure_workload(name: str, seed: int, seconds: float, traced: bool,
                     env, work: Path, out_dir: Path) -> dict:
    """Set-up, the untraced pass and (``traced``) the traced pass.  The
    run measures for ``seconds`` in all: a traced run gives each pass
    half."""
    window = seconds / 2 if traced else seconds
    started = time.monotonic()
    setup_s, setup_wall_s = measure_setup(name, env, work)
    setup_phase = time.monotonic() - started
    plain = run_pass(name, seed, window, False, env, work)
    passes = [plain]
    entry = {
        "seed": seed,
        "seconds": window,
        "environment": plain["environment"],
        "samples": plain["completed"],
        "calibrations": len(plain["calibrations"]),
        "phase_s": {"setup": setup_phase, **plain["phase_s"]},
    }
    values = metrics.end_to_end(plain, setup_s)
    entry["end_to_end"] = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in metrics.END_TO_END
    }
    entry["wall"] = {"setup_s": setup_wall_s, **metrics.timings(plain, scaled=False)}
    check_failures = plain["check_failures"]
    messages = list(plain["check_messages"])
    if traced:
        tracing = run_pass(name, seed, window, True, env, work)
        passes.append(tracing)
        common, mismatched = _digest_agreement(plain, tracing)
        entry["common_requests"] = common
        entry["digest_mismatches"] = mismatched
        check_failures += tracing["check_failures"] + mismatched
        messages += tracing["check_messages"]
        if mismatched:
            messages.append(f"{mismatched} results differ between the untraced and traced pass")
        spans = metrics.window_spans(tracing)
        values = metrics.per_layer(tracing, spans, values["throughput_rps"])
        entry["per_layer"] = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _better in metrics.PER_LAYER
        }
        entry["traced_samples"] = tracing["completed"]
        write_trace(out_dir / f"trace-{name}.json", name, tracing, spans)
    entry.update({
        "lost_submissions": sum(p["lost_submissions"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "checks_run": sum(p["checks_run"] for p in passes),
        "check_failures": check_failures,
        "correct": check_failures == 0,
        "errors": [e for p in passes for e in p["errors"]][:10],
        "check_messages": messages[:10],
    })
    entry["phase_s"]["total"] = time.monotonic() - started
    return entry


#: The trace file keeps the spans of this many requests (the first to
#: finish); its layer table covers every request of the window.
TRACE_SPAN_REQUESTS = 20


def write_trace(path: Path, name: str, traced: dict, spans: list[tuple]) -> None:
    n = traced["completed"]
    table = trace.layer_table(spans)
    finished = [end for end, _latency in traced["completions"]]
    cutoff = finished[TRACE_SPAN_REQUESTS - 1] if n > TRACE_SPAN_REQUESTS else math.inf
    total = sum(entry["self_s"] for entry in table.values()) or 1.0
    document = {
        "workload": name,
        "seed": traced["seed"],
        "seconds": traced["seconds"],
        "requests": n,
        "layers": {
            layer: {
                "calls": entry["calls"],
                "self_ms": entry["self_s"] * 1e3,
                "calls_per_req": entry["calls"] / n,
                "self_ms_per_req": entry["self_s"] * 1e3 / n,
                "self_share": entry["self_s"] / total,
            }
            for layer, entry in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
        },
        "patch_points": trace.patch_point_calls(spans),
        "span_requests": min(n, TRACE_SPAN_REQUESTS),
        "spans": trace.export_spans(
            [s for s in spans if s[4] < cutoff], traced["window"][0]
        ),
    }
    path.write_text(json.dumps(document, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of this checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workloads: dict) -> dict:
    first = next(iter(workloads.values()))["environment"]
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **first["fingerprint"],
        "system": first["system"],
        "machine": first["machine"],
        "blas_threads": BLAS_THREADS,
        "reference_kernel_s": calibrate.REFERENCE_SECONDS,
        "reference_start_s": calibrate.REFERENCE_START_SECONDS,
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _print_workload(name: str, entry: dict) -> None:
    print(f"{name}: {entry['samples']} timed requests, {entry['failed']} failed, "
          f"{entry['checks_run']} checks, {entry['check_failures']} check failures")
    if entry["lost_submissions"]:
        print(f"  ! the server lost {entry['lost_submissions']} admitted job(s); "
              "the client cancelled and resubmitted them")
    for metric, data in entry["end_to_end"].items():
        wall = entry["wall"].get(metric)
        print(f"  {metric:<16} {data['value']:.6g} {data['unit']}"
              + ("" if wall is None else f"  (wall clock {wall:.6g})"))
    if "per_layer" in entry:
        per_layer = entry["per_layer"]
        print(f"  {'layer':<22} {'calls/req':>10} {'self ms/req':>12}")
        for layer in trace.LAYERS:
            calls = per_layer[f"{layer}.calls_per_req"]["value"]
            if calls:
                print(f"  {layer:<22} {calls:>10.3f} "
                      f"{per_layer[f'{layer}.self_ms_per_req']['value']:>12.4f}")
        for metric, _unit, _better in metrics.PER_LAYER[2 * len(trace.LAYERS):]:
            print(f"  {metric:<38} {per_layer[metric]['value']:.6g}")
    for message in entry["errors"] + entry["check_messages"]:
        print(f"  ! {message}")


def _summary_line(workloads: dict, traced: bool) -> dict:
    """The contract line: one workload's metrics by name, or every
    workload's prefixed with its name."""
    if traced:
        names = [name for name, _unit, _better in metrics.PER_LAYER]
        section = "per_layer"
    else:
        names = list(metrics.BOUNDED_METRICS)
        section = "end_to_end"
    single = len(workloads) == 1
    values = {}
    for workload, entry in workloads.items():
        for metric in names:
            key = metric if single else f"{workload}.{metric}"
            values[key] = entry[section][metric]
    return {
        "correct": all(e["correct"] for e in workloads.values()),
        "attempted": sum(e["attempted"] for e in workloads.values()),
        "failed": sum(e["failed"] for e in workloads.values()),
        "metrics": values,
    }


def run_command(args) -> int:
    names = args.workload or list(WORKLOADS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = child_env(work)
    traced = bool(args.trace)
    workloads = {}
    for name in names:
        workloads[name] = measure_workload(
            name, args.seed, args.seconds, traced, env, work, out_dir
        )
        _print_workload(name, workloads[name])
    document = {
        "benchmark": "e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "environment": environment(workloads),
        "workloads": workloads,
    }
    for entry in workloads.values():
        del entry["environment"]
    (out_dir / "results.json").write_text(json.dumps(document, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(_summary_line(workloads, traced)))
    return 0 if all(e["correct"] for e in workloads.values()) else 1


def parse_args(argv):
    argv = list(sys.argv[1:] if argv is None else argv)
    command = "run"
    if argv and argv[0] in ("run", "compare"):
        command = argv.pop(0)
    if command == "compare":
        return compare.parse_args(argv)
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed window per pass")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run a traced pass for per-layer numbers")
    parser.add_argument("--out", default=str(ROOT / ".bench_e2e"),
                        help="directory for results.json and traces")
    args = parser.parse_args(argv)
    args.command = "run"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.command == "compare":
        return compare.main(args)

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run_command(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
