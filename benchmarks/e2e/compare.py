"""``compare A B``: two ``runs.jsonl`` files of the same benchmark, side by
side.

One row per (end-to-end metric, workload): the two metrics ``BENCHMARK.json``
bounds (``op_p50_ms``, ``setup_s``) and, one by one, the workload's own
named metrics (``compile_ms``, ``run_parallel_ms``, ``svc_warm_p50_ms``
...) at the fixed ``harness.E2E_BOUND``, ``failed_frac`` at 0 — a combined
score does not stand in for them.  Each row has both medians, the ratio
B/A (A is the base), the spreads, the bound and a verdict: ``worse`` when
B's median is worse than A's by more than the bound; ``unresolved`` when
the run-to-run spread on either side (quartile distance over the median)
exceeds the bound and B's runs do not all beat A's; else ``ok``.  A
metric a side holds as null is skipped with its reason.  Exact-count
metrics must be identical in every run of both files — two runs of the
same code that disagree mean the compiler is not deterministic, which is
an error (exit 2).  Exit 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from benchmarks.e2e.harness import (
    E2E_BOUND, EXACT, iqr_share, load_spec, median,
)


def load(path: str) -> tuple[dict, dict]:
    """``{(workload, trace): {metric: [values]}}`` of one run file, and
    ``{(workload, trace): {metric: reason}}`` for the values it holds as
    null.  An untraced run contributes the two bounded metrics and its
    named end-to-end metrics; a traced run the per-layer metrics."""
    values: dict = defaultdict(lambda: defaultdict(list))
    nulls: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            key = run["workload"], run["trace"]
            metrics = run["metrics"] if run["trace"] \
                else {**run["metrics"], **run["e2e"]}
            for name, metric in metrics.items():
                if metric["value"] is None:
                    nulls[key][name] = metric["reason"]
                else:
                    values[key][name].append(metric["value"])
    return values, nulls


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "lower" else -1
    if sign * (median(b) - median(a)) > bound * abs(median(a)):
        return "worse"
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if max(iqr_share(a), iqr_share(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A.jsonl B.jsonl",
              file=sys.stderr)
        return 2
    spec = load_spec()
    (a, a_null), (b, b_null) = load(argv[0]), load(argv[1])
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    better["failed_frac"] = "lower"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["failed_frac"] = 0.0
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    status = 0
    print(f"{'workload':<15} {'metric':<19} {'A median':>10} {'B median':>10}"
          f" {'B/A':>7} {'iqr A':>6} {'iqr B':>6} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        key = workload, 0
        for name, reason in {**a_null[key], **b_null[key]}.items():
            print(f"{workload:<15} {name:<19} null: {reason}")
        for name in order + ["failed_frac"]:
            xs, ys = a[key][name], b[key][name]
            if not xs or not ys:
                continue
            bound = bounds.get(name, E2E_BOUND)
            word = verdict(xs, ys, better[name], bound)
            status = max(status, word == "worse")
            ratio = median(ys) / median(xs) if median(xs) else float("nan")
            print(f"{workload:<15} {name:<19} {median(xs):>10.5g} "
                  f"{median(ys):>10.5g} {ratio:>7.3f} "
                  f"{iqr_share(xs):>6.3f} {iqr_share(ys):>6.3f} "
                  f"{bound:>6.2f}  {word} (n={len(xs)},{len(ys)})")
    for key in sorted(set(a) | set(b)):
        for name in sorted(EXACT):
            seen = set(a[key][name]) | set(b[key][name])
            if len(seen) > 1:
                print(f"error: exact count {name} on {key[0]} differs "
                      f"between runs of the same code: {sorted(seen)}")
                status = 2
    return status
