"""Command line of the end-to-end benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
and prints, as the last line of standard output, the result object
``BENCHMARK.json``'s contract asks for.  ``--workload all`` (the default)
runs the four workloads in one process, untraced and then, with
``--trace 1``, traced.  ``compare A B`` sets two run files side by side.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import textwrap
from pathlib import Path

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Config, Recorder, geomean, median


def workloads() -> dict:
    from benchmarks.e2e.compile_cli import CompileCli
    from benchmarks.e2e.exec_runs import ExecBulk, ExecFinegrain
    from benchmarks.e2e.service_mix import ServiceMix
    return {"compile_cli": CompileCli, "exec_bulk": ExecBulk,
            "exec_finegrain": ExecFinegrain, "service_mix": ServiceMix}


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: What ``layers()`` raises when a series it reads has no sample.
_NO_DATA = (LookupError, ArithmeticError, TypeError, ValueError)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path, quick: bool = False) -> dict:
    """One run of one workload; returns its result document (also
    appended to ``out/runs.jsonl``; a traced run writes its spans to
    ``out/spans-<name>.jsonl``)."""
    spec = harness.load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    host = harness.host_facts()
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=out))
    rec = Recorder(trace)
    workload = workloads()[name](Config(seed, scratch, quick), rec)
    named: "dict[str, tuple[float | None, int]]" = {}
    layers: "dict[str, float | None]" = {}
    fallback = "this workload never enters the layer"
    try:
        for rep in range(1 if quick else SETUP_REPS):
            if rep:
                workload.teardown()
            start = harness.now()
            workload.setup()
            rec.add("setup/total", harness.now() - start)
        workload.measure(seconds)
        named = workload.end_to_end()
        if trace:
            try:
                layers = workload.layers()
            except _NO_DATA as exc:
                fallback = f"not computable, a series has no sample: {exc!r}"
                rec.check(False, "per-layer metrics " + fallback)
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
        if trace:
            rec.write_spans(out / f"spans-{name}.jsonl")
    leaked = sorted(p.name for p in Path("/dev/shm").glob("repro-*"))
    rec.check(not leaked, f"shared-memory segments left behind: {leaked[:3]}")

    values = {**{n: value for n, (value, _) in named.items()}, **layers}
    for group in workload.groups:
        if not rec.samples(group):
            rec.check(False, f"no sample under {group}/: every operation "
                             "of the group failed")
    for metric, q in (("op_p10_ms", 0.1), ("op_p50_ms", 0.5)):
        levels = [rec.level(group, q) for group in workload.groups]
        values[metric] = None if None in levels else geomean(levels) * 1e3
        named[metric] = (values[metric], sum(map(rec.samples,
                                                 workload.groups)))
    values["setup_s"] = median(rec.series["setup/total"])
    named["setup_s"] = (values["setup_s"], len(rec.series["setup/total"]))

    def entry(metric: str) -> dict:
        doc = {"value": values.get(metric), "unit": units[metric]}
        if doc["value"] is None:
            doc["reason"] = workload.absent.get(metric) or (
                "no operation succeeded" if metric in values else fallback)
        return doc

    section = spec["per_layer"] if trace else spec["end_to_end"]
    doc = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick, "host": host,
        "noisy": host["load1"] > host["cores"],
        "correct": rec.failed == 0, "attempted": rec.attempted,
        "failed": rec.failed, "failures": rec.failures,
        "metrics": {m["name"]: entry(m["name"]) for m in section},
        # the workload's own end-to-end metrics under ISSUE 11's names:
        # what ``compare`` gates one by one
        "e2e": {**{n: {**entry(n), "samples": samples}
                   for n, (_, samples) in named.items()},
                "failed_frac": {"value": rec.failed / rec.attempted,
                                "unit": "ratio", "samples": rec.attempted}},
        "rows": {series: {"median_ms": median(xs) * 1e3, "samples": len(xs)}
                 for series, xs in sorted(rec.series.items())},
    }
    with open(out / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return doc


def report(doc: dict) -> None:
    host = doc["host"]
    print(f"== {doc['workload']}  seed={doc['seed']} trace={doc['trace']} "
          f"seconds={doc['seconds']}  host: {host['cpu']}, "
          f"{host['cores']} cores, python {host['python']}, numpy "
          f"{host['numpy']}, numba {host['numba']}, load1 {host['load1']:.2f}"
          + ("  NOISY (load above core count)" if doc["noisy"] else ""))
    for series, row in doc["rows"].items():
        print(f"  {series:<44} {row['median_ms']:>12.4f} ms"
              f"  n={row['samples']}")
    absent: dict[str, list[str]] = {}
    for name, metric in {**doc["metrics"], **doc["e2e"]}.items():
        if metric["value"] is None:
            absent.setdefault(metric["reason"], []).append(name)
        else:
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}"
                  + (f"  n={metric['samples']}" if "samples" in metric
                     else ""))
    for reason, names in absent.items():
        listed = " ".join(names) if len(names) <= 8 \
            else f"{len(names)} metrics, named in the run document"
        print(textwrap.fill(f"null ({reason}): {listed}", 78,
                            initial_indent="  ", subsequent_indent="    "))
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")


def result_line(doc: dict) -> str:
    """The object the driver reads.  Its contract wants a number under
    every name, so a metric the run document holds as null (with the
    reason) is 0 here, and only here."""
    metrics = {name: {"value": m["value"] or 0.0, "unit": m["unit"]}
               for name, m in doc["metrics"].items()}
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main
        return compare_main(argv[1:])
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        default=harness.ROOT / ".bench_e2e",
                        help="directory for runs.jsonl, span files and "
                             "temporary files (default .bench_e2e in the "
                             "checkout)")
    args = parser.parse_args(argv)
    selected = names if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" and args.trace \
        else (bool(args.trace),)
    failed = 0
    for name in selected:
        for trace in modes:
            doc = run_workload(name, args.seed, args.seconds, trace,
                               args.out.resolve())
            report(doc)
            print(result_line(doc), flush=True)
            failed += doc["failed"]
    return 1 if failed else 0
