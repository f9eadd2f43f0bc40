"""Default SSA ensembles vs the scalar oracle — speedup gate.

Runs the same seeded ensembles through the scalar oracle
(``ensemble_moments`` over the per-run steppers) and the default
``ssa`` path, which runs the vectorized batched kernel
(best-of-``--repeat``, content cache disabled), on the bundled PEPA,
Bio-PEPA and GPEPA models plus a scaled Table-I-sized enzyme instance,
asserts the results are bit-identical, and writes ``BENCH_ssa.json``:
per-model wall times, events/second and the batched/scalar speedup
ratio.

As a script it is the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_ssa.py \
        --repeat 3 --output BENCH_ssa.json --gate 5.0

Exit 1 when the speedup on the largest model (most simulated events)
falls below ``--gate``.  Under pytest only the (gate-free) identity
smoke runs, so the tier-1 suite never depends on machine speed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.engine import cache_disabled
from repro.ir import MarkovIR
from repro.ir.backends.ssa import ensemble_moments, occupancy_run, reaction_run
from repro.ir.registry import solve

OCCUPANCY_SOURCE = """
lam = 0.4;
mu  = 5.0;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium  = (send, mu).Medium;
PC[{n}] <send> Medium
"""


def _pepa_occupancy_ir(n: int):
    from repro.pepa import ctmc_of, derive, parse_model

    return ctmc_of(derive(parse_model(OCCUPANCY_SOURCE.format(n=n)))).lower()


def _enzyme_ir(scale: int = 1):
    from repro.biopepa import parse_biopepa
    from repro.biopepa.examples import enzyme_kinetics_source
    from repro.biopepa.lower import lower_reactions

    source = enzyme_kinetics_source()
    if scale != 1:
        source = source.replace("S[100]", f"S[{100 * scale}]")
        source = source.replace("E[20]", f"E[{20 * scale}]")
    return lower_reactions(parse_biopepa(source))


def _gpepa_ir(n_clients: int, n_servers: int):
    from repro.gpepa.examples import client_server_scalability
    from repro.gpepa.lower import lower_reactions

    return lower_reactions(client_server_scalability(n_clients, n_servers))


def bench_cases():
    """(name, ir, grid, n_runs) tuples; the most-events case gates."""
    return [
        ("pepa_pc_lan_occupancy", _pepa_occupancy_ir(6),
         np.linspace(0.0, 10.0, 41), 100),
        ("biopepa_enzyme", _enzyme_ir(),
         np.linspace(0.0, 10.0, 41), 100),
        ("gpepa_client_server", _gpepa_ir(50, 5),
         np.linspace(0.0, 3.0, 31), 60),
        # The Table-I-sized instance: 10x the bundled enzyme populations,
        # propensity work dominated by per-event law evaluation — the
        # regime the batched kernel exists for.
        ("biopepa_enzyme_10x", _enzyme_ir(scale=10),
         np.linspace(0.0, 2.0, 21), 50),
    ]


def assert_identical(scalar, batched):
    np.testing.assert_array_equal(scalar.mean, batched.mean)
    np.testing.assert_array_equal(scalar.var, batched.var)
    assert scalar.events == batched.events, "event counts diverge"
    assert scalar.chunks == batched.chunks, "chunk structure diverges"


def best_of(fn, repeat):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def scalar_oracle(ir, grid, n_runs, seed):
    """The per-run steppers through the shared ensemble driver."""
    if isinstance(ir, MarkovIR):
        return ensemble_moments(occupancy_run, (ir, None), grid, n_runs, seed)
    return ensemble_moments(reaction_run, ir, grid, n_runs, seed)


def default_path(ir, grid, n_runs, seed):
    return solve(ir, "ssa", mode="ensemble", times=grid, n_runs=n_runs,
                 seed=seed)


def run_case(name, ir, grid, n_runs, repeat, seed=2019):
    scalar_s, scalar = best_of(
        lambda: scalar_oracle(ir, grid, n_runs, seed), repeat
    )
    batched_s, batched = best_of(
        lambda: default_path(ir, grid, n_runs, seed), repeat
    )
    assert_identical(scalar, batched)
    assert batched.meta.get("kernel") == "batched", (
        f"{name}: the default path silently fell back to the scalar kernel"
    )
    return {
        "model": name,
        "n_runs": n_runs,
        "events": int(scalar.events),
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
        "events_per_second": (
            scalar.events / batched_s if batched_s > 0 else float("inf")
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--output", default="BENCH_ssa.json")
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) when the largest model's batched/scalar "
        "speedup falls below this ratio",
    )
    args = parser.parse_args(argv)

    results = []
    with cache_disabled():
        for name, ir, grid, n_runs in bench_cases():
            entry = run_case(name, ir, grid, n_runs, args.repeat)
            results.append(entry)
            print(
                f"{name:24s} {entry['events']:>9} events  "
                f"scalar {entry['scalar_seconds']:.4f}s  "
                f"batched {entry['batched_seconds']:.4f}s  "
                f"speedup {entry['speedup']:.2f}x  "
                f"({entry['events_per_second']:.0f} events/s)"
            )

    largest = max(results, key=lambda e: e["events"])
    report = {
        "repeat": args.repeat,
        "results": results,
        "largest_model": largest["model"],
        "largest_speedup": largest["speedup"],
        "gate": args.gate,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    if args.gate is not None and largest["speedup"] < args.gate:
        print(
            f"GATE FAILED: speedup {largest['speedup']:.2f}x on "
            f"{largest['model']} below required {args.gate:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_batched_identity_smoke():
    """Pytest smoke: the default path and the scalar oracle are
    bit-identical on the bundled enzyme model (no timing gate — CI
    machines vary)."""
    ir = _enzyme_ir()
    grid = np.linspace(0.0, 5.0, 21)
    with cache_disabled():
        scalar = scalar_oracle(ir, grid, 40, 7)
        batched = default_path(ir, grid, 40, 7)
    assert_identical(scalar, batched)
    assert batched.meta["kernel"] == "batched"


if __name__ == "__main__":
    sys.exit(main())
