"""Pass framework: ordered pipeline with validation, IR traces, and
per-pass observability (timings + IR-delta stats).  One
:class:`PassManager` drives both IR levels — the AST passes of this
package and the plan passes of :mod:`repro.plan.passes`."""

from __future__ import annotations

import abc
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import PipelineError
from repro.ir.nodes import (
    ArrayAssign, CShift, EOShift, OverlapShift, ScalarAssign,
)
from repro.ir.printer import format_program
from repro.ir.program import Program


class Pass(abc.ABC):
    """One IR transformation.  Subclasses set :attr:`name` and implement
    :meth:`run`, which either rewrites its IR in place and returns
    ``None`` (the AST passes; counters on ``self.stats``) or returns
    ``(new_ir, {stat: int})`` (the plan passes: plans are immutable)."""

    name: str = "pass"

    @abc.abstractmethod
    def run(self, ir):
        ...


def ir_stats(program: Program) -> dict[str, int]:
    """Coarse shape of the IR: what each pass grows or shrinks.

    The counts a reader of the paper's Figures 12-15 would tally by eye:
    leaf statements, remaining full-shift intrinsics (CSHIFT/EOSHIFT),
    and OVERLAP_SHIFT calls.
    """
    leaves = program.leaf_statements()
    shift_intrinsics = 0
    for stmt in leaves:
        exprs = []
        if isinstance(stmt, ArrayAssign):
            exprs = [stmt.rhs] + ([stmt.mask] if stmt.mask is not None
                                  else [])
        elif isinstance(stmt, ScalarAssign):
            exprs = [stmt.rhs]
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, (CShift, EOShift)):
                    shift_intrinsics += 1
    return {
        "statements": len(leaves),
        "shift_intrinsics": shift_intrinsics,
        "overlap_shifts": sum(
            1 for s in leaves if isinstance(s, OverlapShift)),
    }


@dataclass
class PassSnapshot:
    """One pass's after-image: IR text plus timing and shape stats.

    Unpacks as ``(name, text)`` for backward compatibility with the
    original two-tuple snapshot format.
    """

    name: str
    text: str
    elapsed_s: float = 0.0
    ir: dict[str, int] = field(default_factory=dict)
    stats: object | None = None  # the pass's own stats dataclass, if any

    def __iter__(self):
        yield self.name
        yield self.text


@dataclass
class PassTrace:
    """IR snapshots taken after each pass — the golden-test hook that lets
    us compare the pipeline against the paper's Figures 12-15."""

    snapshots: list[PassSnapshot] = field(default_factory=list)

    def record(self, name: str, program: Program,
               elapsed_s: float = 0.0,
               stats: object | None = None) -> None:
        self.snapshots.append(PassSnapshot(
            name=name, text=format_program(program),
            elapsed_s=elapsed_s, ir=ir_stats(program), stats=stats))

    def after(self, pass_name: str) -> str:
        """IR text after the *last* run of ``pass_name`` (a pipeline may
        legally run the same pass more than once)."""
        return self.snapshot(pass_name).text

    def snapshot(self, pass_name: str) -> PassSnapshot:
        """Full snapshot after the last run of ``pass_name``."""
        for snap in reversed(self.snapshots):
            if snap.name == pass_name:
                return snap
        raise KeyError(f"no snapshot for pass {pass_name!r}")

    def names(self) -> list[str]:
        return [snap.name for snap in self.snapshots]

    def __str__(self) -> str:
        out = []
        for name, text in self.snapshots:
            out.append(f"=== after {name} ===")
            out.append(text)
        return "\n".join(out)


def _public_stats(stats: object) -> dict[str, int | float]:
    """Numeric entries of a pass's stats (a dataclass or a plain
    ``{name: int}`` dict), for span attributes; a collection counts
    its items."""
    if stats is None:
        return {}
    if dataclasses.is_dataclass(stats):
        stats = {f.name: getattr(stats, f.name)
                 for f in dataclasses.fields(stats)}
    out: dict[str, int | float] = {}
    for name, value in stats.items():
        if isinstance(value, (int, float)):
            out[name] = value
        elif isinstance(value, (list, tuple, set)):
            out[name] = len(value)
    return out


@dataclass
class PassManager:
    """Runs a pass list in order over one IR, validating after every
    step — the one pass loop of the compiler, at both IR levels.

    ``validate(ir)`` raises a :class:`~repro.errors.PipelineError` when
    a pass broke the IR (re-raised naming the pass) and ``shape(ir)`` is
    the coarse ``{name: count}`` profile whose per-pass delta is
    reported; the defaults are the AST's,
    :class:`repro.plan.PlanPassManager` configures the plan's.
    ``tracer`` (a :class:`repro.obs.Tracer`) gets one ``<kind>:<name>``
    span per pass with wall-clock time and, as attributes, the pass's
    own stats and that delta.  After :meth:`run`, ``stats`` maps the name of each
    pass that keeps stats to them.
    """

    passes: list
    trace: PassTrace | None = None
    tracer: object | None = None
    validate: Callable[[object], None] = Program.validate
    shape: Callable[[object], dict[str, int]] = ir_stats
    kind: str = "pass"
    stats: dict[str, object] = field(default_factory=dict, init=False)

    def run(self, ir):
        from repro.obs.tracer import coalesce
        tracer = coalesce(self.tracer)
        if self.trace is not None:
            self.trace.record("input", ir)
        before = self.shape(ir) if tracer.enabled else None
        for p in self.passes:
            with tracer.span(f"{self.kind}:{p.name}",
                             kind=self.kind) as span:
                t0 = time.perf_counter()
                try:
                    result = p.run(ir)
                    if result is None:
                        stats = getattr(p, "stats", None)
                    else:
                        ir, stats = result
                    self.validate(ir)
                except PipelineError as exc:
                    raise type(exc)(
                        f"after {self.kind} {p.name}: {exc}") from exc
                elapsed = time.perf_counter() - t0
                if tracer.enabled:
                    after = self.shape(ir)
                    for key, value in after.items():
                        span.attrs[f"ir.{key}"] = value
                        span.attrs[f"ir.{key}_delta"] = value - before[key]
                    before = after
                    span.attrs.update(_public_stats(stats))
            if stats is not None:
                self.stats[p.name] = stats
            if self.trace is not None:
                self.trace.record(p.name, ir, elapsed_s=elapsed,
                                  stats=stats)
        return ir
