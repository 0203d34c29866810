"""Figure 17: step-wise results of the stencil compilation strategy.

The paper starts from a naive Fortran77+MPI translation of Problem 9
("original") and applies the optimizations cumulatively on a 4-processor
SP-2, reporting per-step improvements of 45%, 31%, 41%, and 14% (overall
speedup 5.19x) and a 52x gap to IBM's xlhpf.

We compile Problem 9 at levels O0..O4, execute on the simulated 2x2
machine, and report modelled execution time per level plus the xlhpf-like
baseline.  Shapes to check: every step improves; offset arrays are the
largest single win at large sizes; unioning's share grows as the problem
shrinks (communication-bound regime); the naive-HPF gap is an order of
magnitude beyond the whole ladder.

Beside the modelled ladder :func:`measure` reports a *measured* one:
wall-clock of the same plans on this host (vectorized backend), with
the nests as ``cc``-compiled kernels where eligible and on the ufunc
tape.  It is a report, not a gate: the host is not an SP-2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from repro import kernels
from repro.baselines.naive import compile_xlhpf_like
from repro.compiler import compile_hpf
from repro.experiments.harness import (
    DEFAULT_SIZES, PAPER_GRID, Table, run_on_machine,
)
from repro.machine import Machine

LEVELS = [
    ("O0", "original (naive MPI)"),
    ("O1", "+ offset arrays"),
    ("O2", "+ context partitioning"),
    ("O3", "+ communication unioning"),
    ("O4", "+ memory optimizations"),
]

#: the paper's measured per-step improvements on the SP-2
PAPER_STEP_IMPROVEMENTS = {"O1": 0.45, "O2": 0.31, "O3": 0.41, "O4": 0.14}
PAPER_TOTAL_SPEEDUP = 5.19
PAPER_XLHPF_SPEEDUP = 52.0

#: problem size and repetitions of the measured column
MEASURED_N = 1024
MEASURED_REPEATS = 5


@dataclass
class Fig17Result:
    sizes: tuple[int, ...]
    times: dict[str, list[float]] = field(default_factory=dict)
    xlhpf_times: list[float] = field(default_factory=list)
    #: level -> seconds of one run at ``measured_n``: (modelled, median
    #: wall-clock with native kernels where eligible, same on the tape)
    measured: dict[str, tuple[float, ...]] = field(default_factory=dict)
    measured_n: int = MEASURED_N

    def step_improvement(self, level: str, size_index: int = -1) -> float:
        """Fractional improvement of ``level`` over the previous level."""
        order = [lv for lv, _ in LEVELS]
        i = order.index(level)
        prev = self.times[order[i - 1]][size_index]
        cur = self.times[level][size_index]
        return 1.0 - cur / prev

    def total_speedup(self, size_index: int = -1) -> float:
        return (self.times["O0"][size_index]
                / self.times["O4"][size_index])

    def xlhpf_speedup(self, size_index: int = -1) -> float:
        return (self.xlhpf_times[size_index]
                / self.times["O4"][size_index])


def measure(n: int = MEASURED_N, grid: tuple[int, ...] = PAPER_GRID,
            ) -> dict[str, tuple[float, ...]]:
    """Per level, seconds of a vectorized run of Problem 9: modelled,
    and the median wall-clock of :data:`MEASURED_REPEATS` runs after a
    warm-up with native kernels and on the ufunc tape."""
    from repro.runtime.nest_tape import prepare
    measured = {}
    for level, _ in LEVELS:
        medians = []
        for kernels_on in (True, False):
            cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": n},
                             level=level, outputs={"T"})
            prepare(cp.plan, kernels=kernels_on)
            times = []
            for _ in range(MEASURED_REPEATS + 1):
                start = perf_counter()
                res = cp.run(Machine(grid=grid), backend="vectorized")
                times.append(perf_counter() - start)
            medians.append(median(times[1:]))
        measured[level] = (res.modelled_time, *medians)
    return measured


def run(sizes: tuple[int, ...] = DEFAULT_SIZES,
        grid: tuple[int, ...] = PAPER_GRID,
        iterations: int = 1, measured_n: int = MEASURED_N) -> Fig17Result:
    result = Fig17Result(sizes=tuple(sizes), measured_n=measured_n,
                         measured=measure(measured_n, grid))
    for level, _ in LEVELS:
        result.times[level] = []
    for n in sizes:
        for level, _ in LEVELS:
            cp = compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": n},
                             level=level, outputs={"T"})
            res = run_on_machine(cp, grid=grid, iterations=iterations)
            result.times[level].append(res.modelled_time)
        base = compile_xlhpf_like(kernels.PURDUE_PROBLEM9,
                                  bindings={"N": n}, outputs={"T"})
        res = run_on_machine(base, grid=grid, iterations=iterations)
        result.xlhpf_times.append(res.modelled_time)
    return result


def build_tables(result: Fig17Result) -> list[Table]:
    t1 = Table(
        "Figure 17 — step-wise modelled execution time on Problem 9 "
        f"({'x'.join(map(str, PAPER_GRID))} PEs, seconds)",
        ["N"] + [label for _, label in LEVELS] + ["xlhpf-like"],
    )
    for i, n in enumerate(result.sizes):
        t1.add(n, *[result.times[lv][i] for lv, _ in LEVELS],
               result.xlhpf_times[i])

    t2 = Table(
        "Figure 17 — per-step improvement and cumulative speedup",
        ["N"] + [f"{lv} step %" for lv, _ in LEVELS[1:]]
        + ["total speedup", "vs xlhpf"],
    )
    for i, n in enumerate(result.sizes):
        steps = [100 * result.step_improvement(lv, i)
                 for lv, _ in LEVELS[1:]]
        t2.add(n, *steps, result.total_speedup(i),
               result.xlhpf_speedup(i))
    t2.note("paper (one size, SP-2): steps 45/31/41/14 %, total 5.19x, "
            "52x vs xlhpf")
    t2.note("communication unioning's share grows at small N "
            "(communication-bound regime)")
    t3 = Table(
        f"Figure 17 — modelled vs measured on this host, vectorized, "
        f"N={result.measured_n} (wall-clock: median of "
        f"{MEASURED_REPEATS}, ms)",
        ["level", "modelled (s)", "native kernels", "ufunc tape"],
    )
    for level, label in LEVELS:
        modelled, native, tape = result.measured[level]
        t3.add(f"{level} {label}", modelled, native * 1e3, tape * 1e3)
    t3.note("the last rung hands the fused nest to a native compiler "
            "(section 3.4); plans under 2**16 points stay on the tape")
    return [t1, t2, t3]


def build_chart(result: Fig17Result):
    from repro.experiments.charts import AsciiChart
    chart = AsciiChart(
        "Figure 17 — modelled time vs problem size (log scale)",
        [str(n) for n in result.sizes])
    for level, label in LEVELS:
        chart.add(label, result.times[level])
    chart.add("xlhpf-like", result.xlhpf_times)
    return chart


def main() -> None:
    result = run()
    for table in build_tables(result):
        print(table.render())
        print()
    print(build_chart(result).render())


if __name__ == "__main__":
    main()
