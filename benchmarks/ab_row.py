"""The ``series`` of one ``BENCH_e2e.json`` row, from an A/B run.

The two arguments are the ``runs.jsonl`` files ``benchmarks/e2e/run.py
--out DIR`` appended to, one per side, with the runs of each side in
pair order (pair ``i`` is the ``i``-th run of a workload and seed on
each side).  Each (workload, seed) that both files hold untraced runs of
is one series: every metric both sides have a value for, summarised per
side as the median and quartiles to four significant digits
(``statistics.quantiles``, the spread ``compare`` reads), with the
number of pairs the change won in the metric's ``better`` direction
(``BENCHMARK.json``; ties count for neither side).  Traced runs are
skipped: their per-layer metrics are a report, not a row.

Usage::

    python3 benchmarks/ab_row.py PARENT/runs.jsonl CHANGE/runs.jsonl
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def untraced(path: str) -> dict:
    """``{(workload, seed): {metric: [values in run order]}}``."""
    values: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            if run["trace"]:
                continue
            for name, metric in {**run["metrics"], **run["e2e"]}.items():
                if metric["value"] is not None:
                    values[run["workload"], run["seed"]][name].append(
                        metric["value"])
    return values


def spread(xs: list) -> dict:
    q1, mid, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
        else (xs[0],) * 3
    return {name: float(f"{v:.4g}")
            for name, v in (("median", mid), ("q1", q1), ("q3", q3))}


def series(parent: str, change: str) -> list:
    spec = json.loads(SPEC.read_text())
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = untraced(parent), untraced(change)
    out = []
    for workload, seed in sorted(a.keys() & b.keys()):
        runs_a, runs_b = a[workload, seed], b[workload, seed]
        metrics = {}
        for name in sorted(runs_a.keys() & runs_b.keys()):
            xs, ys = runs_a[name], runs_b[name]
            sign = 1 if lower.get(name, True) else -1
            metrics[name] = {
                "parent": spread(xs), "change": spread(ys),
                "wins": sum(sign * (x - y) > 0 for x, y in zip(xs, ys))}
        out.append({"workload": workload, "seed": seed,
                    "pairs": min(len(xs) for runs in (runs_a, runs_b)
                                 for xs in runs.values()),
                    "metrics": metrics})
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    print(json.dumps(series(*sys.argv[1:]), indent=1, sort_keys=True))
