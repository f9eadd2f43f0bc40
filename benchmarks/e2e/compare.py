"""Compare two sets of benchmark runs, workload by workload.

::

    python -m benchmarks.e2e compare --base parent/*/results.json \\
        --change change/*/results.json

Each file is one run's ``results.json`` (of one workload or several) or
a JSON list of them.  For every workload and end-to-end metric it prints
each side's median and quartiles, the change in the median, the
fraction of pairs (the workload's i-th base run against its i-th change
run) the change wins, and a verdict against the bound in
``BENCHMARK.json``:

``regressed``
    the change's median is worse than the base's by more than the bound
    (``error_rate``/``check_failures``: any change run above 0);
``unresolved``
    a side has a single run, so its spread is unknown; or either side's
    spread (interquartile range over median) exceeds the bound, and not
    every change run beats every base run;
``improved``
    the change wins at least 9 in 10 pairs and the medians differ by
    more than the base runs' interquartile range;
``unchanged``
    otherwise.

The exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from benchmarks.e2e import metrics

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, better) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if bound is None:  # must stay exactly 0
        outcome = "regressed" if max(change) > 0 else "unchanged"
        worse = float(max(change))
    else:
        worse = sign * (cm - bm) / abs(bm) if bm else 0.0
        spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                     (c3 - c1) / abs(cm) if cm else 0.0)
        all_better = all(sign * (c - b) < 0 for b in base for c in change)
        if worse > bound:
            outcome = "regressed"
        elif min(len(base), len(change)) < 2 or (spread > bound and not all_better):
            outcome = "unresolved"
        elif (wins >= 0.9 * len(pairs)
              and abs(cm - bm) > b3 - b1 and sign * (cm - bm) < 0):
            outcome = "improved"
        else:
            outcome = "unchanged"
    return {
        "base": (b1, bm, b3), "change": (c1, cm, c3), "worse": worse,
        "wins": wins, "pairs": len(pairs), "verdict": outcome,
    }


def load_bounds(path: Path) -> dict:
    """``{metric: (bound, better)}`` from BENCHMARK.json; zero metrics
    get bound ``None``."""
    spec = json.loads(path.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for name in metrics.ZERO_METRICS:
        bounds[name] = (None, "lower")
    return bounds


def compare_runs(base: list[dict], change: list[dict], bounds: dict) -> list[dict]:
    """Rows for every workload that both sides ran (a run may hold one
    workload or several)."""
    def ran(runs):
        return {name for run in runs for name in run["workloads"]}

    rows = []
    for workload in sorted(ran(base) & ran(change)):
        for metric, (bound, better) in bounds.items():
            def values(runs):
                return [run["workloads"][workload]["end_to_end"][metric]["value"]
                        for run in runs if workload in run["workloads"]]

            row = verdict(values(base), values(change), bound, better)
            row.update(workload=workload, metric=metric, bound=bound)
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<15} {'base median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}  verdict"
    ]
    for row in rows:
        b1, bm, b3 = row["base"]
        c1, cm, c3 = row["change"]
        delta = f"{(cm - bm) / abs(bm):+.1%}" if bm else f"{cm - bm:+.3g}"
        lines.append(
            f"{row['workload']:<16} {row['metric']:<15} "
            f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>30} "
            f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} {delta:>8} "
            f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}"
        )
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--base", nargs="+", required=True,
                        help="results.json files of the base (parent) runs")
    parser.add_argument("--change", nargs="+", required=True,
                        help="results.json files of the changed runs")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="where the bounds are read from")
    args = parser.parse_args(argv)
    args.command = "compare"
    return args


def main(args) -> int:
    def load(paths):
        """Results documents; a file may also hold a list of them."""
        runs = []
        for path in paths:
            document = json.loads(Path(path).read_text())
            runs.extend(document if isinstance(document, list) else [document])
        return runs

    rows = compare_runs(load(args.base), load(args.change),
                        load_bounds(Path(args.benchmark)))
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
