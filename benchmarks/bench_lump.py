"""Population-form derivation vs explicit derivation — aggregation gate.

Derives scaled PC-LAN instances both ways (best-of-``--repeat``):
explicitly (one state per global configuration, 2^N for N clients) and
in population form (one state per replica-symmetry orbit, N+1 states).
For every size where both fit, the agreement oracle
(:func:`repro.pepa.lumping.verify_population_agreement`) checks the
population chain *is* the exact ordinary lumping of the explicit one;
the largest instance runs population-only, with the explicit
derivation provably over budget.  Writes ``BENCH_lump.json``: per-model
states explored, wall times and the explicit/population state ratio.

As a script it is the CI aggregation gate::

    PYTHONPATH=src python benchmarks/bench_lump.py \
        --repeat 5 --output BENCH_lump.json --gate 5.0

Exit 1 when the states-explored ratio on the gated model (N=12 PC-LAN)
falls below ``--gate``.  The ratio counts states, not seconds, so it is
machine-independent; a regression means canonicalization stopped
merging orbits.  Under pytest only the (gate-free) agreement smoke
runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.pepa import (
    derive,
    derive_population,
    parse_model,
    verify_population_agreement,
)

PC_LAN_SOURCE = """
lam = 0.4;
mu  = 5.0;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium  = (send, mu).Medium;
PC[{n}] <send> Medium
"""

#: Sizes derived both ways; the last one is the gated model.
BOTH_SIZES = (4, 8, 12)

#: Population-only size: 2^100 explicit states, far over any budget.
LARGE_N = 100

#: Explicit budget the large instance's exact state count exceeds.
LARGE_BUDGET = 1_000_000


def best_of(fn, repeat):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_case(n, repeat):
    model = parse_model(PC_LAN_SOURCE.format(n=n))
    pop_s, pop = best_of(lambda: derive_population(model), repeat)
    exp_s, space = best_of(lambda: derive(model), repeat)
    report = verify_population_agreement(model)
    assert pop.orbit_info.full_states == space.size
    return {
        "model": f"pc_lan_{n}",
        "explicit_states": space.size,
        "population_states": pop.size,
        "state_ratio": space.size / pop.size,
        "explicit_seconds": exp_s,
        "population_seconds": pop_s,
        "max_rel_diff": report["max_rel_diff"],
    }


def run_large(repeat):
    model = parse_model(PC_LAN_SOURCE.format(n=LARGE_N))
    pop_s, pop = best_of(lambda: derive_population(model), repeat)
    # The explicit space is over budget — its exact size, which the
    # orbits record, is 2^100 — so only the population form is derivable.
    full = pop.orbit_info.full_states
    assert full > LARGE_BUDGET
    assert full == 2 ** LARGE_N
    return {
        "model": f"pc_lan_{LARGE_N}",
        "explicit_states": None,
        "full_states": str(full),  # exceeds JSON-safe integers
        "population_states": pop.size,
        "state_ratio": float(full) / pop.size,
        "explicit_seconds": None,
        "population_seconds": pop_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--output", default="BENCH_lump.json")
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) when the explicit/population state ratio on "
        "the gated model falls below this",
    )
    args = parser.parse_args(argv)

    results = []
    for n in BOTH_SIZES:
        entry = run_case(n, args.repeat)
        results.append(entry)
        print(
            f"{entry['model']:12s} explicit {entry['explicit_states']:>6} "
            f"({entry['explicit_seconds']:.4f}s)  "
            f"population {entry['population_states']:>4} "
            f"({entry['population_seconds']:.4f}s)  "
            f"ratio {entry['state_ratio']:.1f}x"
        )
    entry = run_large(args.repeat)
    results.append(entry)
    print(
        f"{entry['model']:12s} explicit (over budget: "
        f"{entry['full_states']} states)  "
        f"population {entry['population_states']:>4} "
        f"({entry['population_seconds']:.4f}s)  "
        f"ratio {entry['state_ratio']:.3g}x"
    )

    gated = results[len(BOTH_SIZES) - 1]
    report = {
        "repeat": args.repeat,
        "results": results,
        "gated_model": gated["model"],
        "gated_state_ratio": gated["state_ratio"],
        "gate": args.gate,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    if args.gate is not None and gated["state_ratio"] < args.gate:
        print(
            f"GATE FAILED: state ratio {gated['state_ratio']:.2f}x on "
            f"{gated['model']} below required {args.gate:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_population_agreement_smoke():
    """Pytest smoke: population derivation is the exact lumping of the
    explicit one on a mid-size PC-LAN (no gate — no timing involved)."""
    model = parse_model(PC_LAN_SOURCE.format(n=6))
    report = verify_population_agreement(model)
    assert report["population_states"] == 7
    assert report["explicit_states"] == 64
    assert report["max_rel_diff"] <= 1e-9


if __name__ == "__main__":
    sys.exit(main())
