"""Sample store, harness-side spans, statistics, host facts and child
processes shared by the four workloads."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Regression bound of every named end-to-end timing (ISSUE 11).  A
#: metric whose run-to-run spread exceeds it reads ``unresolved`` under
#: ``compare``; it is not given a wider bound.
E2E_BOUND = 0.10

#: Per-layer metrics that are pure functions of the compiled programs.
#: Two runs of the same code must report identical values; ``compare``
#: treats a mismatch as an error (the compiler is not deterministic).
EXACT = frozenset({
    "passes.ir_stmts_after", "compiler.plan_ops", "compiler.overlap_shifts",
    "plan.shifts_hoisted", "plan.json_bytes", "codegen.nests_native",
    "codegen.nests_fallback", "runtime.computed_bytes", "machine.messages",
    "machine.message_bytes", "machine.loop_points", "machine.copies",
    "machine.modelled_s", "machine.peak_mem_per_pe_bytes",
})

#: Entries the on-disk plan cache holds before it prunes
#: (``PersistentPlanCache``'s default ``max_entries``).
DISK_ENTRIES = 512

now = time.perf_counter


@dataclass(frozen=True)
class Config:
    seed: int
    #: per-run temp directory under ``--out``; removed when the run ends
    scratch: Path
    #: reduced sizes and a single set-up — the harness self-test only
    quick: bool = False


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics -------------------------------------------------------------

median = statistics.median


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def iqr_share(xs: list[float]) -> float:
    """Distance between first and third quartile over the median."""
    if len(xs) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(xs, n=4)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / mid if mid else math.inf


# -- samples, checks and spans ----------------------------------------------

class Recorder:
    """Everything one run observes, kept in memory until the run ends.

    ``add`` stores a latency sample under a series name; ``check`` counts
    one attempted operation and whether it failed; ``exact`` pins a count
    that must repeat; ``span`` opens a harness-side span (a no-op unless
    the run is traced).  Safe to use from the service workload's client
    threads.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.series: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, series: str, seconds: float) -> None:
        self.series[series].append(seconds)

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok

    def exact(self, name: str, value: float) -> None:
        """Record a count that every repetition must reproduce."""
        seen = self.counts.setdefault(name, value)
        if seen != value:
            self.check(False, f"{name} is not deterministic: "
                              f"{seen!r} then {value!r}")

    def medians(self, prefix: str) -> dict[str, float]:
        """Median seconds of every series under ``prefix/``."""
        return {name: median(xs) for name, xs in self.series.items()
                if name.startswith(prefix + "/")}

    def samples(self, prefix: str) -> int:
        return sum(len(xs) for name, xs in self.series.items()
                   if name.startswith(prefix + "/"))

    def level(self, prefix: str, q: float) -> "float | None":
        """Geometric mean over the series under ``prefix/`` of their
        ``q``-th percentile in seconds; None when the group has no
        sample (every one of its operations failed)."""
        levels = [percentile(xs, q) for name, xs in self.series.items()
                  if name.startswith(prefix + "/")]
        return geomean(levels) if levels else None

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list[dict]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, **detail):
        """Span around one call into a layer; nests under the span open
        on this thread, and every span below a root shares its ``op``."""
        if not self.trace:
            return nullcontext()
        return self._span(name, detail)

    @contextmanager
    def _span(self, name: str, detail: dict):
        stack = self._stack()
        sid = next(self._ids)
        rec = {"id": sid, "parent": stack[-1]["id"] if stack else None,
               "op": stack[0]["id"] if stack else sid, "name": name,
               "start": now(), "end": None}
        if detail:
            rec["detail"] = detail
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = now()
            stack.pop()
            self.spans.append(rec)

    @contextmanager
    def timed(self, series: str, span: str):
        """Stopwatch sample under ``series``, inside a span when traced."""
        with self.span(span):
            start = now()
            yield
            self.add(series, now() - start)

    @contextmanager
    def untraced(self):
        """Spans off for the block: the untraced half of an A/B."""
        self.trace, before = False, self.trace
        try:
            yield
        finally:
            self.trace = before

    def mark(self, name: str, start: float, end: float) -> None:
        """A child span from two timestamps already taken."""
        parent = self._stack()[-1]
        self.spans.append({"id": next(self._ids), "parent": parent["id"],
                           "op": parent["op"], "name": name,
                           "start": start, "end": end})

    def adopt(self, tracer, layer_of) -> None:
        """Re-home the span forest of a program ``Tracer`` under the
        open harness span, renamed to layer names by ``layer_of``."""
        parent = self._stack()[-1]

        def walk(span, parent_id: int) -> None:
            sid = next(self._ids)
            self.spans.append({
                "id": sid, "parent": parent_id, "op": parent["op"],
                "name": layer_of(span.name), "start": span.t_start,
                "end": span.t_end, "detail": {"span": span.name}})
            for child in span.children:
                walk(child, sid)

        for root in tracer.roots:
            walk(root, parent["id"])

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[tuple[dict, dict[str, float]]]:
    """``(root span, {span name: self seconds})`` per operation, where a
    span's self time is its duration minus what its children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    by_op: dict[int, dict[str, float]] = {}
    for s in spans:
        layers = by_op.setdefault(s["op"], defaultdict(float))
        layers[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
    roots = {s["id"]: s for s in spans if s["parent"] is None}
    return [(roots[op], layers) for op, layers in by_op.items()]


def layer_medians(spans: list[dict], root_name: str,
                  key: str) -> dict[str, dict[str, float]]:
    """``{detail[key]: {layer: median self seconds}}`` over every
    operation whose root span is ``root_name``."""
    samples: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for root, layers in self_times(spans):
        if root["name"] == root_name:
            for layer, seconds in layers.items():
                samples[root["detail"][key]][layer].append(seconds)
    return {k: {layer: median(xs) for layer, xs in layers.items()}
            for k, layers in samples.items()}


def unattributed(spans: list[dict], root_name: str) -> float:
    """Median share of a ``root_name`` operation's wall time that no
    layer span below it covers (the harness's own glue)."""
    shares = [layers[root_name] / (root["end"] - root["start"])
              for root, layers in self_times(spans)
              if root["name"] == root_name]
    return median(shares) if shares else 0.0


class Workload:
    """One workload: ``setup`` builds everything the timed operations
    need (and may run again after ``teardown``), ``measure`` times
    operations for a number of seconds and checks their outputs."""

    #: series prefixes of the operation groups ``op_p10_ms`` and
    #: ``op_p50_ms`` combine; a group without a sample fails the run
    groups: tuple[str, ...] = ()

    def __init__(self, cfg: Config, rec: Recorder) -> None:
        self.cfg = cfg
        self.rec = rec
        #: metric name -> why this run has no value for it
        self.absent: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def end_to_end(self) -> "dict[str, tuple[float | None, int]]":
        """The workload's named end-to-end metrics as ``(value, sample
        count)``, from the untraced stopwatch (so a traced run reports
        them too)."""
        raise NotImplementedError

    def layers(self) -> "dict[str, float | None]":
        """Per-layer metric values of a traced run."""
        raise NotImplementedError


# -- host -------------------------------------------------------------------

def host_facts() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {"cpu": model, "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "numba": numba_version,
            "load1": os.getloadavg()[0]}


# -- child processes --------------------------------------------------------

def run_child(argv: list[str], timeout: float = 120.0):
    """Run ``python <argv>`` to completion (killed and reaped on
    timeout); returns ``(wall seconds, CompletedProcess)``.  Children
    find the program through the ``PYTHONPATH`` ``run.py`` exports."""
    start = now()
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          timeout=timeout)
    return now() - start, done


def probe_import(rec: Recorder) -> None:
    """Interpreter start plus ``import repro.__main__`` in a child: the
    import cost every fresh process pays, sampled once per set-up."""
    seconds, done = run_child(["-c", "import repro.__main__"])
    if rec.check(done.returncode == 0, "import probe failed: "
                 + done.stderr.decode(errors="replace")[-300:]):
        rec.add("setup/import", seconds)


# -- inputs -----------------------------------------------------------------

def seeded_inputs(compiled, seed: int) -> dict:
    """The draw ``run_kernel``, the CLI and the service all make: one
    ``default_rng(seed)``, ``standard_normal`` per entry array in plan
    order.  The program only ever sees these generated arrays."""
    import numpy as np
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(decl.shape).astype(decl.dtype)
            for name, decl in compiled.plan.arrays.items()
            if name in compiled.plan.entry_arrays}


#: Coefficient scalars of the stencil kernels; unset they execute as
#: 0.0, which would make every output trivially zero.
_COEFF = re.compile(r"^[CW]\d+$")


def coefficient_scalars(compiled, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {name: rng.uniform(0.5, 1.5)
            for name in sorted(compiled.plan.scalar_names)
            if _COEFF.match(name)}


def reference(source: str, bindings: dict, inputs: dict,
              scalars: dict) -> dict:
    """The program's arrays as the serial NumPy evaluator computes them
    — independent of the compiler and of every backend."""
    from repro.frontend import parse_program
    from repro.runtime.reference import evaluate
    return evaluate(parse_program(source, bindings=bindings),
                    inputs=inputs, scalars=scalars)


def matches_reference(source: str, arrays: dict, ref: dict, outputs) -> bool:
    """Tolerances of ``testing.differential_check`` (rtol 1e-6, atol
    1e-12).  A program with ``SUM`` reductions adds partial sums per PE
    in another order than the serial evaluator, which float32 cannot
    hide element by element; there the absolute tolerance is 1e-5 of
    the array's largest magnitude."""
    import numpy as np
    reduces = "SUM(" in source.upper()
    return all(np.allclose(
        arrays[o], ref[o], rtol=1e-6,
        atol=1e-5 * float(np.abs(ref[o]).max()) if reduces else 1e-12)
        for o in outputs)


def digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def fill_plan_dir(path: Path, entries: int, tag: str) -> None:
    """Write ``entries`` valid plan-cache documents under keys nobody
    requests, so the directory starts at its ``max_entries`` bound and
    every later put prunes: steady state from the first operation."""
    from repro.kernels import compile_kernel
    from repro.plan import program_to_json
    text = program_to_json(compile_kernel("five_point"))
    path.mkdir(parents=True, exist_ok=True)
    for i in range(entries):
        key = hashlib.sha256(f"filler-{tag}-{i}".encode()).hexdigest()
        (path / f"{key}.json").write_text(text)
