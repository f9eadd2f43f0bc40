"""Derivation fast path vs naive reference — speedup gate and report.

Runs both derivation strategies (best-of-``--repeat``) on the bundled
Edinburgh models, scaled PC-LAN instances, the request benchmark's three
1024-state LAN patterns and the largest Table I machine model, asserts
bit-identical results, and writes
``BENCH_derive.json``: per-model wall times, states/second, the
CSR-assembly share, and the fast-path/naive speedup ratio.

As a script it is the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_derive.py \
        --repeat 7 --output BENCH_derive.json --gate 7.0

Exit 1 when the speedup on the largest model falls below ``--gate``.
Under pytest only the (gate-free) consistency smoke runs, so the tier-1
suite never depends on machine speed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.engine import get_registry
from repro.pepa import ctmc_of, derive, derive_reference, parse_model
from repro.pepa.models import MODEL_NAMES, get_model

PC_LAN_SOURCE = """
lam = 0.4;
mu  = 5.0;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium  = (send, mu).Medium;
PC[{n}] <send> Medium
"""

# Two-segment LAN: each segment synchronizes its PCs on its own medium,
# segments interleave.  The per-segment cooperation nodes see only 2^n
# sub-state signatures for 4^n global states, so this is the regime the
# memoized fast path is built for — and the gated largest model.
PC_LAN_2SEG_SOURCE = """
lam = 0.4;
mu  = 5.0;
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium1 = (send, mu).Medium1;
Medium2 = (send, mu).Medium2;
(PC[{n}] <send> Medium1) || (PC[{n}] <send> Medium2)
"""

# The request benchmark's 1024-state LAN family (``steady_lan1k``): one
# medium per segment, segments interleaved.  ``(10,)`` misses the root
# cooperation's memo on every state, ``(5, 5)`` and ``(4, 6)`` interleave
# two memoized segments.
LAN_PATTERNS = ((10,), (5, 5), (4, 6))


def lan_source(segments) -> str:
    lines = ["lam = 0.4;\nPC      = (think, lam).PCready;\n"
             "PCready = (send, infty).PC;\n"]
    parts = []
    for k, pcs in enumerate(segments, start=1):
        lines.append(f"mu{k} = {2.0 + 1.5 * k!r};\nMedium{k} = (send, mu{k}).Medium{k};\n")
        parts.append(f"(PC[{pcs}] <send> Medium{k})")
    return "".join(lines) + " || ".join(parts) + "\n"


def bench_cases():
    """(name, model) pairs, ordered small to large; the last one gates."""
    from repro.allocation import MAPPING_A, synthetic_workload
    from repro.allocation.machines import build_machine_model

    cases = [(name, get_model(name)) for name in MODEL_NAMES]
    cases.append(
        ("table1_machine_M1", build_machine_model(
            MAPPING_A, "M1", synthetic_workload(seed=2019)
        ))
    )
    cases.append(("pc_lan_8", parse_model(PC_LAN_SOURCE.format(n=8))))
    for segments in LAN_PATTERNS:
        name = "lan_" + "x".join(map(str, segments))
        cases.append((name, parse_model(lan_source(segments))))
    cases.append(("pc_lan_12", parse_model(PC_LAN_SOURCE.format(n=12))))
    cases.append(("pc_lan_2x7", parse_model(PC_LAN_2SEG_SOURCE.format(n=7))))
    return cases


def assert_identical(fast, ref):
    assert fast.states == ref.states, "state orderings diverge"
    assert fast.action_names == ref.action_names
    np.testing.assert_array_equal(fast.trans_source, ref.trans_source)
    np.testing.assert_array_equal(fast.trans_target, ref.trans_target)
    np.testing.assert_array_equal(fast.trans_rate, ref.trans_rate)
    np.testing.assert_array_equal(fast.trans_action_code, ref.trans_action_code)


def best_of(fn, repeat):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_case(name, model, repeat):
    registry = get_registry()
    fast_s, space = best_of(lambda: derive(model), repeat)
    naive_s, ref = best_of(lambda: derive_reference(model), repeat)
    assert_identical(space, ref)
    csr0 = registry.timer_stat("derive.csr_assembly") or {
        "calls": 0, "total_seconds": 0.0,
    }
    csr_s, _ = best_of(lambda: ctmc_of(derive(model)), repeat)
    csr1 = registry.timer_stat("derive.csr_assembly")
    calls = csr1["calls"] - csr0["calls"]
    csr_mean = (
        (csr1["total_seconds"] - csr0["total_seconds"]) / calls if calls else 0.0
    )
    return {
        "model": name,
        "n_states": space.size,
        "n_transitions": space.n_transitions,
        "fast_seconds": fast_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / fast_s if fast_s > 0 else float("inf"),
        "states_per_second": space.size / fast_s if fast_s > 0 else float("inf"),
        "csr_assembly_seconds": csr_mean,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--output", default="BENCH_derive.json")
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) when the largest model's fast/naive speedup "
        "falls below this ratio",
    )
    args = parser.parse_args(argv)

    results = []
    for name, model in bench_cases():
        entry = run_case(name, model, args.repeat)
        results.append(entry)
        print(
            f"{name:20s} {entry['n_states']:>6} states  "
            f"fast {entry['fast_seconds']:.4f}s  "
            f"naive {entry['naive_seconds']:.4f}s  "
            f"speedup {entry['speedup']:.2f}x  "
            f"({entry['states_per_second']:.0f} states/s)"
        )

    largest = max(results, key=lambda e: e["n_states"])
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


def test_fast_path_consistency_smoke():
    """Pytest smoke: fast and naive derivations agree on a mid-size model
    (no timing gate — CI machines vary)."""
    model = parse_model(PC_LAN_SOURCE.format(n=6))
    assert_identical(derive(model), derive_reference(model))


if __name__ == "__main__":
    sys.exit(main())
