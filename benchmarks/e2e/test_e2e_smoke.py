"""Smoke test of the end-to-end benchmark.

Runs every workload with a short window, untraced and traced (one
``--trace 1`` invocation runs both passes), and checks the result
document rather than any timing: every metric BENCHMARK.json names is
present and finite, every check passed, every wrapped function was
reached by the workload meant to exercise it, and the traced pass
returned the same result digests as the untraced one.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, metrics, trace
from benchmarks.e2e.run import DEFAULT_SECONDS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Seconds per traced run, half per pass: long enough that the fixed
#: request order puts every kind of request in each pass (the first SSA
#: job of ``service_mix`` is its 13th timed request).
SMOKE_SECONDS = {"service_mix": 6.0}

_SOLVE_PATH = (
    "repro.pepa.parser.parse_model",
    "repro.pepa.statespace.derive",
    "repro.pepa.ctmc.ctmc_of",
    "repro.pepa.ctmc.CTMC.lower",
    "repro.engine.cache.canonical_key",
    "repro.engine.cache.cached",
    "repro.ir.registry.solve",
    "repro.ir.guards.verify",
)
_STEADY = (
    "repro.numerics.steady.steady_state",
    "repro.numerics.diagnostics.condition_estimate",
    "repro.numerics.diagnostics.steady_residual",
    "repro.engine.run_manifest.build_solve_manifest",
)

#: The wrapped functions each workload exists to exercise; ``prefix*``
#: matches any registry backend of a capability.
EXPECTED_POINTS = {
    "solve_small": _SOLVE_PATH + _STEADY + (
        "repro.numerics.transient.transient_distribution",
        "registry.derive.*",
    ),
    "steady_lan1k": _SOLVE_PATH + _STEADY,
    "makespan_table1": _SOLVE_PATH + (
        "repro.allocation.machines.build_machine_model",
        "repro.allocation.cdf.makespan_cdf",
        "repro.allocation.cdf.finishing_time_cdf",
        "repro.pepa.passage.passage_time_cdf",
        "repro.pepa.passage.passage_time_mean",
        "repro.numerics.transient.absorption_cdf",
        "repro.numerics.transient.expected_hitting_time",
        "repro.engine.executor.run_tasks",
        "repro.engine.run_manifest.build_batch_manifest",
    ),
    "service_mix": (
        "repro.service.client.ServiceClient.submit",
        "repro.service.client.ServiceClient.status",
        "repro.service.client.ServiceClient.result",
        "repro.service.admission.AdmissionController.admit",
        "repro.service.admission.AdmissionController.take",
        "repro.service.journal.JobJournal.append",
        "repro.service.journal.JobStore.save_result",
        "repro.service.jobs.execute_spec",
        "registry.ssa.*",
    ),
}


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics.BOUNDED_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(entry) for entry in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_patch_point_is_expected_somewhere():
    expected = {p for points in EXPECTED_POINTS.values() for p in points}
    for _layer, module, attribute in trace.PATCH_POINTS:
        assert f"{module}.{attribute}" in expected
    for _layer, capability in trace.REGISTRY_LAYERS:
        assert f"registry.{capability}.*" in expected


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_run(request, tmp_path_factory):
    name = request.param
    out = tmp_path_factory.mktemp(name)
    seconds = SMOKE_SECONDS.get(name, 2.0)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "11",
         "--seconds", str(seconds), "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    entry = json.loads((out / "results.json").read_text())["workloads"][name]
    document = json.loads((out / f"trace-{name}.json").read_text())
    return name, summary, entry, document


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def test_metrics_present_and_finite(traced_run):
    _name, summary, entry, _document = traced_run
    for metric in SPEC["end_to_end"]:
        assert _finite(entry["end_to_end"][metric["name"]]["value"]), metric
    for metric in metrics.ZERO_METRICS:
        assert entry["end_to_end"][metric]["value"] == 0
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert list(summary["metrics"]) == layer_names
    for metric in layer_names:
        assert _finite(summary["metrics"][metric]["value"]), metric
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0


def test_checks_ran_and_passed(traced_run):
    _name, _summary, entry, _document = traced_run
    assert entry["check_failures"] == 0, entry["check_messages"]
    assert entry["checks_run"] > 0


def test_every_patch_point_recorded_a_span(traced_run):
    name, _summary, _entry, document = traced_run
    calls = document["patch_points"]
    for point in EXPECTED_POINTS[name]:
        if point.endswith("*"):
            assert any(p.startswith(point[:-1]) for p in calls), point
        else:
            assert calls.get(point, 0) >= 1, point


def test_steady_time_lands_in_the_solver_layers(traced_run):
    """The LU solve runs inside ``cached``; handing it back to the
    caller's layer must leave most of a 1024-state steady request in
    ``numerics.steady`` + ``numerics.diagnostics``."""
    name, _summary, _entry, document = traced_run
    if name != "steady_lan1k":
        pytest.skip("steady_lan1k only")
    layers = document["layers"]
    share = sum(layers[layer]["self_share"]
                for layer in ("numerics.steady", "numerics.diagnostics"))
    assert share >= 0.6


def test_traced_and_untraced_digests_agree(traced_run):
    _name, _summary, entry, _document = traced_run
    assert entry["common_requests"] > 0
    assert entry["digest_mismatches"] == 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    """A directory with only BENCHMARK.json and this directory has no
    ``src/``: the run must exit non-zero and print no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "baseline"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_lan1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    ("base", "change", "better", "expected"),
    [
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", "regressed"),
        ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "higher", "improved"),
        ([1.0, 1.01, 0.99], [1.02, 1.0, 0.98], "lower", "unchanged"),
        ([1.0, 1.5, 0.6, 1.2], [1.05, 1.4, 0.7, 1.1], "lower", "unresolved"),
        ([1.0], [0.8], "lower", "unresolved"),
        ([1.0], [1.3], "lower", "regressed"),
    ],
)
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, 0.1, better)["verdict"] == expected


def test_compare_zero_metrics_regress_on_any_failure():
    assert compare.verdict([0, 0], [0, 1], None, "lower")["verdict"] == "regressed"
    assert compare.verdict([0, 0], [0, 0], None, "lower")["verdict"] == "unchanged"
