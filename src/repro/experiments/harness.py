"""Shared experiment infrastructure: sweeps, tables, seeded inputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.plan import CompiledProgram
from repro.machine import Machine

#: the paper's machine: a 4-processor IBM SP-2 as a 2x2 grid
PAPER_GRID: tuple[int, ...] = (2, 2)

#: default problem-size sweep (the paper sweeps to ~1000 on 4 PEs)
DEFAULT_SIZES: tuple[int, ...] = (128, 256, 512, 1024)


def run_on_machine(compiled: CompiledProgram,
                   grid: tuple[int, ...] = PAPER_GRID,
                   inputs: dict[str, np.ndarray] | None = None,
                   scalars: dict[str, float] | None = None,
                   iterations: int = 1,
                   memory_per_pe: int | None = None,
                   profile: bool = False):
    """Execute a compiled program on a fresh machine; returns the
    :class:`~repro.runtime.executor.ExecutionResult`.

    ``profile=True`` attaches a communication profile
    (:class:`repro.obs.profile.CommProfile` on ``result.profile``);
    this keeps the per-message log, so leave it off for sweeps with
    millions of messages.
    """
    machine = Machine(grid=grid, memory_per_pe=memory_per_pe,
                      keep_message_log=profile)
    return compiled.run(machine, inputs=inputs, scalars=scalars,
                        iterations=iterations, profile=profile)


@dataclass
class Table:
    """A printable result table (the rows the paper's figures plot)."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [max([len(h)] + [len(r[i]) for r in cells])
                  for i, h in enumerate(self.headers)]
        sep = "-+-".join("-" * w for w in widths)
        out = [self.title, "=" * len(self.title)]
        out.append(" | ".join(h.ljust(w)
                              for h, w in zip(self.headers, widths)))
        out.append(sep)
        for row in cells:
            out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def column(self, header: str) -> list[Any]:
        i = list(self.headers).index(header)
        return [row[i] for row in self.rows]


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def sweep(sizes: Iterable[int],
          fn: Callable[[int], Sequence[Any]]) -> list[Sequence[Any]]:
    return [fn(n) for n in sizes]
