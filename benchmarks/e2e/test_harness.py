"""Harness self-test: every workload at reduced size, under 30 s.

Outside tier-1 ``testpaths`` on purpose; run it explicitly with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from benchmarks.e2e import cli, compare, harness

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, out):
    """One untraced and one traced quick run of a workload."""
    return [cli.run_workload(request.param, seed=3, seconds=0.5,
                             trace=trace, out=out, quick=True)
            for trace in (False, True)]


def test_every_named_metric_is_emitted(runs):
    for doc, section in zip(runs, ("end_to_end", "per_layer")):
        assert doc["correct"] and doc["failed"] == 0, doc["failures"]
        assert doc["attempted"] >= 1
        assert set(doc["metrics"]) == {m["name"] for m in SPEC[section]}
        for name, metric in {**doc["metrics"], **doc["e2e"]}.items():
            assert NAME.match(name)
            assert metric["unit"]
            if metric["value"] is None:
                assert metric["reason"]
            else:
                assert not math.isnan(metric["value"])
        assert all(m["samples"] >= 1 for m in doc["e2e"].values()
                   if m["value"] is not None)
        for row in doc["rows"].values():
            assert row["samples"] >= 1
    assert all(m["value"] > 0 for m in runs[0]["metrics"].values())
    # the named end-to-end metrics read the same stopwatch in both runs
    assert set(runs[0]["e2e"]) == set(runs[1]["e2e"]) > {"failed_frac"}
    assert any(m["value"] is not None for n, m in runs[1]["metrics"].items()
               if "." in n)


def test_result_line_is_the_contract_object(runs):
    for doc in runs:
        line = json.loads(cli.result_line(doc))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(doc["metrics"])
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())


def test_group_without_samples_fails_the_run_without_a_traceback(
        monkeypatch, tmp_path):
    class Broken(harness.Workload):
        groups = ("parallel",)

        def setup(self):
            pass

        def measure(self, seconds):
            pass

        def end_to_end(self):
            return {"run_parallel_ms": (self.rec.level("parallel", 0.5), 0)}

        def layers(self):
            return {"runtime.nest_ms": self.rec.medians("nest")["nest/x"]}

    monkeypatch.setattr(cli, "workloads", lambda: {"exec_bulk": Broken})
    doc = cli.run_workload("exec_bulk", 0, 0.1, True, tmp_path, quick=True)
    assert not doc["correct"] and doc["failed"] == 2, doc["failures"]
    for name in ("op_p10_ms", "op_p50_ms", "run_parallel_ms"):
        assert doc["e2e"][name]["value"] is None and doc["e2e"][name]["reason"]
    assert "KeyError" in doc["metrics"]["runtime.nest_ms"]["reason"]
    assert json.loads(cli.result_line(doc))["failed"] == 2


def test_spans_resolve_and_self_times_are_non_negative(runs, out):
    path = out / f"spans-{runs[1]['workload']}.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert spans and len(ids) == len(spans)
    for s in spans:
        assert s["parent"] is None or s["parent"] in ids
        assert s["op"] in ids and s["end"] >= s["start"]
    for _, layers in harness.self_times(spans):
        assert all(seconds > -1e-6 for seconds in layers.values())


def test_nothing_left_behind(runs, out):
    assert not list(out.glob("tmp-*"))
    assert not list(Path("/dev/shm").glob("repro-*"))


def test_compare_gates_each_named_metric_and_exact_counts(
        runs, out, tmp_path, capsys):
    assert compare.main([str(out / "runs.jsonl")] * 2) == 0
    assert "ok" in capsys.readouterr().out
    docs = [json.loads(line)
            for line in (out / "runs.jsonl").read_text().splitlines()]

    def changed(edit) -> str:
        path = tmp_path / f"{edit.__name__}.jsonl"
        copies = json.loads(json.dumps(docs))
        for doc in copies:
            edit(doc)
        path.write_text("".join(json.dumps(d) + "\n" for d in copies))
        return str(path)

    def one_named_metric_slower(doc):
        # a single metric of the workload; the combined ones hold
        name = next(n for n in doc["e2e"]
                    if n.endswith("_ms") and not n.startswith("op_"))
        doc["e2e"][name]["value"] *= 1.2

    def exact_count_moved(doc):
        for name, metric in doc["metrics"].items():
            if name in harness.EXACT and metric["value"] is not None:
                metric["value"] += 1

    assert compare.main([str(out / "runs.jsonl"),
                         changed(one_named_metric_slower)]) == 1
    rows = [r for r in capsys.readouterr().out.splitlines() if "worse" in r]
    assert rows and not any("op_p" in r for r in rows)
    assert compare.main([str(out / "runs.jsonl"),
                         changed(exact_count_moved)]) == 2
    assert "error: exact count" in capsys.readouterr().out


@pytest.mark.parametrize("orphan_sleeps, grace", [(0.5, 10.0), (60.0, 0.2)])
def test_launcher_outlives_every_descendant(orphan_sleeps, grace):
    """``run.supervise`` returns the benchmark's status only once a
    grandchild that outlived it (as ``multiprocessing``'s resource
    tracker does) has ended by itself or, past the grace, been killed."""
    script = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {str(harness.ROOT)!r})
        from benchmarks.e2e import run
        run.ORPHAN_GRACE_S = {grace}
        run.adopt_orphans()
        benchmark = os.fork()
        if benchmark == 0:
            if os.fork() == 0:
                time.sleep({orphan_sleeps})
                os._exit(0)
            os._exit(7)
        start = time.monotonic()
        print(run.supervise(benchmark), run.children(),
              time.monotonic() - start)
    """)
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          capture_output=True, timeout=60)
    status, left, waited = done.stdout.split()
    assert (status, left) == ("7", "[]"), done.stderr
    assert min(orphan_sleeps, grace) * 0.9 < float(waited) < 5
