"""Power-first steady solves: ``uniformization`` revision 2, then the LU.

A default steady request runs power iteration on the uniformized DTMC
under a budget of ``min(n, maxiter)`` mat-vecs, stopped on the geometric
tail bound ``delta_k * rho / (1 - rho) <= 1e-14``.  A chain it cannot
finish inside the budget (every small one) is served by ``sparse``, bit
for bit as a direct ``sparse`` request, with ``fallback_from`` recorded.
Every manifest replays on what served it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload
from repro.allocation.machines import machine_model_source
from repro.engine import cache_disabled
from repro.engine.run_manifest import result_digest
from repro.errors import ConvergenceError, PepaError, ReproError
from repro.ir import solve
from repro.ir.registry import pinned_revision
from repro.manifest import lower_for_capability, replay, run_from_source
from repro.pepa import ctmc_of, derive, parse_model
from repro.pepa.models import MODEL_NAMES, get_source
from tests.pepa.test_derive_pinned import LAN_PATTERNS, PC_LAN_SOURCE, lan_source
from tests.pepa.test_random_models import random_model


def corpus() -> dict[str, str]:
    """PEPA source per case: the bundled models, every Table I machine
    with a restarting ``Done``, the three 1024-state LAN patterns, and
    the PC-LAN with 8 and 12 PCs."""
    cases = {name: get_source(name) for name in MODEL_NAMES}
    workload = synthetic_workload()
    for mapping in (MAPPING_A, MAPPING_B):
        for machine in sorted(mapping.assignments):
            cases[f"table1_{mapping.name}_{machine}"] = machine_model_source(
                mapping, machine, workload, absorbing=False
            )
    for segments in LAN_PATTERNS:
        cases["lan" + "x".join(map(str, segments))] = lan_source(segments)
    for n in (8, 12):
        cases[f"pc_lan_{n}"] = PC_LAN_SOURCE.format(n=n)
    return cases


CORPUS = corpus()

#: The cases power iteration finishes inside its budget; every other
#: case runs out of it and is served by the LU.
POWER_SERVED = {"lan10", "lan5x5", "lan4x6", "pc_lan_8", "pc_lan_12"}


def served_and_reference(source: str):
    ir, _labels = lower_for_capability("pepa", source, "steady")
    with cache_disabled():
        served = solve(ir, "steady")
        reference = solve(ir, "steady", backend="sparse", fallback=False)
    return ir, served, reference


def check_served(ir, served, reference) -> str:
    """The contract every default request keeps; returns the backend."""
    backend = served.meta["backend"]
    if backend == "sparse":
        assert served.meta["fallback_from"] == "uniformization"
        assert "budget" in served.meta["fallback_error"]
        assert served.pi.tobytes() == reference.pi.tobytes()
        assert result_digest(served) == result_digest(reference)
    else:
        assert backend == "uniformization"
        assert "fallback_from" not in served.meta
        assert served.iterations <= ir.n_states
        assert served.condition_estimate is None
        assert np.abs(served.pi - reference.pi).max() <= 1e-12
    return backend


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_default_request_on_the_corpus(name):
    ir, served, reference = served_and_reference(CORPUS[name])
    backend = check_served(ir, served, reference)
    assert backend == ("uniformization" if name in POWER_SERVED else "sparse")


@given(source=random_model(hiding=True, aggregation=True))
@settings(max_examples=30, deadline=None)
def test_default_request_on_generated_models(source):
    try:
        ir, served, reference = served_and_reference(source)
    except (PepaError, ReproError):
        return  # deadlocked or reducible: every steady backend refuses it
    check_served(ir, served, reference)


def test_power_served_request_on_a_1024_state_lan_replays():
    result = run_from_source("pepa", CORPUS["lan5x5"], "steady")
    manifest = result.meta["manifest"]
    assert manifest.backend["used"] == "uniformization"
    assert manifest.backend["revision"] == 2
    assert replay(manifest, verify=True).verified


def test_lu_served_request_replays():
    result = run_from_source("pepa", get_source("pc_lan_4"), "steady")
    manifest = result.meta["manifest"]
    assert manifest.backend["requested"] == "uniformization"
    assert manifest.backend["used"] == "sparse"
    assert manifest.backend["chain"] == ["uniformization", "sparse"]
    assert replay(manifest, verify=True).verified


def test_revision_one_manifest_replays():
    with pinned_revision("steady", "uniformization", 1):
        result = run_from_source(
            "pepa", get_source("alternating_bit"), "steady", backend="uniformization"
        )
    manifest = result.meta["manifest"]
    assert manifest.backend["used"] == "uniformization"
    assert "revision" not in manifest.backend  # revision 1, by omission
    report = replay(manifest, verify=True)
    assert report.verified
    assert report.result.iterations == result.iterations == 193


def nearly_decomposable(up: float, down: float) -> str:
    """A 512-state chain: the 256-state PC-LAN beside a two-state mode
    that flips at ``up``/``down``.  With tiny rates it mixes slowly."""
    return (
        f"lam = 0.4;\nmu = 5.0;\nup = {up!r};\ndown = {down!r};\n"
        "PC = (think, lam).PCready;\nPCready = (send, infty).PC;\n"
        "Medium = (send, mu).Medium;\n"
        "Mode = (up, up).ModeB;\nModeB = (down, down).Mode;\n"
        "(PC[8] <send> Medium) || Mode\n"
    )


class TestNearlyDecomposable:
    SOURCE = nearly_decomposable(1e-10, 3e-10)

    def test_power_refuses_it(self):
        ir, _labels = lower_for_capability("pepa", self.SOURCE, "steady")
        with cache_disabled(), pytest.raises(ConvergenceError, match="budget of 512"):
            solve(ir, "steady", backend="uniformization", fallback=False)

    def test_the_lu_serves_it_and_the_manifest_replays(self):
        with cache_disabled():
            result = run_from_source("pepa", self.SOURCE, "steady")
        assert result.meta["backend"] == "sparse"
        assert result.meta["fallback_from"] == "uniformization"
        manifest = result.meta["manifest"]
        assert manifest.backend["used"] == "sparse"
        assert replay(manifest, verify=True).verified

    def test_a_step_size_stop_ends_early_on_it(self):
        """Revision 1 stops once a step moves ``pi`` by less than
        ``tol``: here that happens after ~100 steps, 0.1 away from the
        answer, with a residual every check accepts.  The tail bound
        does not stop there."""
        ir, _labels = lower_for_capability("pepa", self.SOURCE, "steady")
        with cache_disabled():
            reference = solve(ir, "steady", backend="sparse")
            with pinned_revision("steady", "uniformization", 1):
                early = solve(ir, "steady", backend="uniformization", fallback=False)
        assert early.iterations < 200
        assert np.abs(early.pi - reference.pi).max() > 0.05

    def test_fast_mode_is_power_served(self):
        ir, served, reference = served_and_reference(nearly_decomposable(1.0, 3.0))
        assert check_served(ir, served, reference) == "uniformization"


def test_explicit_tol_only_tightens_the_stop():
    ir = ctmc_of(derive(parse_model(CORPUS["lan5x5"]))).lower()
    with cache_disabled():
        default = solve(ir, "steady", fallback=False)
        loose = solve(ir, "steady", fallback=False, tol=1e-6)
        tight = solve(ir, "steady", fallback=False, tol=1e-15)
    assert loose.pi.tobytes() == default.pi.tobytes()
    assert tight.iterations > default.iterations


def test_maxiter_caps_the_budget():
    ir = ctmc_of(derive(parse_model(CORPUS["lan5x5"]))).lower()
    with cache_disabled(), pytest.raises(ConvergenceError, match="budget of 50 "):
        solve(ir, "steady", fallback=False, maxiter=50)
