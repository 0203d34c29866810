"""One job description, one run path.

A *job* says what to compile (:class:`CompileJob`), on which simulated
machine (:class:`MachineSpec`) and how to run it (:class:`RunJob`).
Every front door — ``python -m repro``, :func:`repro.kernels.run_kernel`
and the HTTP service — only translates its own input (argv, keyword
arguments, a JSON document) into these objects; everything a run needs
after that is written once, here, so the same job gives bitwise the
same arrays, scalars and cost report through every door.

Values are validated when a job object is built, by raising
:class:`~repro.errors.UsageError` naming the field; the CLI prints that
as ``error: ...`` (exit 1) and the service answers 400.  Nothing heavy
is imported at module level: the CLI imports this at start-up.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field

from repro.errors import UsageError


def _int_at_least(name: str, value: object, floor: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < floor:
        raise UsageError(
            f"{name} must be an integer >= {floor}, got {value!r}")


@dataclass
class CompileJob:
    """One compilation: source + bindings + compiler knobs.

    ``kernel`` is the registry name when the job named one (responses
    and ledger records carry it as a label); ``outputs`` is ``None``
    for "keep every array live"; ``level`` is ``None`` for the
    compiler's default level and holds that level's name afterwards.
    """

    source: str
    bindings: dict[str, int]
    outputs: "set[str] | None"
    level: "str | None" = None
    kernel: "str | None" = None
    include_plan: bool = False

    def __post_init__(self) -> None:
        from repro.compiler import OptLevel
        try:
            self.level = OptLevel.parse(
                OptLevel.DEFAULT if self.level is None else self.level).name
        except (KeyError, ValueError, AttributeError):
            raise UsageError(
                f"level must be one of "
                f"{', '.join(lv.name for lv in OptLevel)}, got "
                f"{self.level!r}") from None
        if self.outputs is not None:
            names = list(self.outputs)
            if not all(isinstance(n, str) for n in names):
                raise UsageError(
                    f"outputs must be array names (strings), got "
                    f"{names!r}")
            self.outputs = set(names)

    @classmethod
    def resolve(cls, kernel: "str | None" = None,
                source: "str | None" = None,
                bindings: "dict[str, int] | None" = None,
                outputs=None, **fields) -> "CompileJob":
        """A job for a registry ``kernel`` or for HPF ``source`` text.

        A named kernel brings its source, and its default bindings and
        outputs merge *under* the explicit ones.
        """
        if (kernel is None) == (source is None):
            raise UsageError(
                "job needs exactly one of 'kernel' (a registry name) or "
                "'source' (HPF text)")
        bindings = dict(bindings or {})
        if kernel is not None:
            from repro.kernels import resolve_kernel
            try:
                spec = resolve_kernel(kernel)
            except KeyError as exc:
                raise UsageError(exc.args[0]) from None
            source = spec.source
            bindings = {**spec.default_bindings, **bindings}
            outputs = outputs or spec.outputs
        return cls(source=source, bindings=bindings,
                   outputs=outputs or None, kernel=kernel, **fields)

    @classmethod
    def from_argument(cls, name_or_file: str, **fields) -> "CompileJob":
        """The CLI's positional: a path to HPF source when such a file
        exists, a registry kernel name otherwise."""
        if os.path.exists(name_or_file):
            with open(name_or_file) as f:
                return cls.resolve(source=f.read(), **fields)
        return cls.resolve(kernel=name_or_file, **fields)

    def options(self, **extra):
        """The :class:`~repro.compiler.CompilerOptions` of this job;
        ``extra`` sets the remaining fields (``keep_trace``, ...)."""
        from repro.compiler import CompilerOptions
        return CompilerOptions.make(self.level, self.outputs, **extra)

    def cache_key(self, cache) -> str:
        """The key ``cache`` files this compilation under."""
        return cache.key_for(self.source, "MAIN", self.bindings,
                             self.options())

    def compile(self, cache=None, tracer=None, **extra):
        """Compile; ``cache``/``tracer`` as in
        :func:`repro.compiler.compile_hpf`."""
        from repro.compiler import HpfCompiler
        return HpfCompiler(self.options(**extra)).compile(
            self.source, bindings=self.bindings, tracer=tracer,
            cache=cache)


@dataclass
class MachineSpec:
    """The simulated machine a run job asks for."""

    grid: tuple[int, ...] = (2, 2)
    preset: str = "sp2"
    memory_mb: "int | None" = None

    def __post_init__(self) -> None:
        self.grid = tuple(self.grid)
        if not self.grid or not all(
                isinstance(g, numbers.Integral)
                and not isinstance(g, bool) and g >= 1
                for g in self.grid):
            raise UsageError(
                f"grid extents must be positive integers, got "
                f"{list(self.grid)!r}")
        self.cost_model()

    def cost_model(self):
        from repro.machine.presets import by_name
        try:
            return by_name(str(self.preset))
        except KeyError as exc:  # its message lists the presets
            raise UsageError(exc.args[0]) from None

    def build(self):
        from repro.machine import Machine
        return Machine(
            grid=self.grid, cost_model=self.cost_model(),
            memory_per_pe=self.memory_mb * 1024 * 1024
            if self.memory_mb else None)


@dataclass
class RunJob:
    """One execution: a :class:`CompileJob` plus runtime factors.

    A named kernel's default scalars merge *under* ``scalars``.
    ``arrays`` (the response's payload mode) is carried for the service
    and ignored by :meth:`execute`.
    """

    compile: CompileJob
    machine: MachineSpec
    backend: str = "perpe"
    iterations: int = 1
    seed: int = 0
    workers: "int | None" = None
    scalars: dict[str, float] = field(default_factory=dict)
    arrays: str = "digest"
    profile: bool = False

    def __post_init__(self) -> None:
        from repro.runtime.backends import available_backends, \
            check_workers
        if self.backend not in available_backends():
            raise UsageError(
                f"backend must be one of "
                f"{', '.join(available_backends())}, got "
                f"{self.backend!r}")
        _int_at_least("iterations", self.iterations, 0)
        _int_at_least("seed", self.seed, 0)
        check_workers(self.workers)
        if self.compile.kernel is not None:
            from repro.kernels import KERNELS
            self.scalars = {
                **KERNELS[self.compile.kernel].default_scalars,
                **self.scalars}

    def inputs(self, compiled) -> dict:
        """The seeded entry arrays of one run: a single
        ``default_rng(seed)`` drawn from once per entry array, in
        ``plan.arrays`` order, cast to the declared dtype."""
        import numpy as np
        rng = np.random.default_rng(self.seed)
        return {name: rng.standard_normal(decl.shape).astype(decl.dtype)
                for name, decl in compiled.plan.arrays.items()
                if name in compiled.plan.entry_arrays}

    def execute(self, compiled, machine, tracer=None):
        """Run ``compiled`` (this job's compilation) on ``machine``
        (normally ``self.machine.build()``) with the seeded inputs; a
        requested profile comes back labelled with kernel and level."""
        inputs = self.inputs(compiled)
        result = compiled.run(
            machine, inputs=inputs, iterations=self.iterations,
            scalars=self.scalars, tracer=tracer,
            backend=self.backend, profile=self.profile,
            workers=self.workers)
        if result.profile is not None:
            result.profile.kernel = self.compile.kernel or "source"
            result.profile.level = self.compile.level
        return result

    def ledger_append(self, ledger, machine, plan_key: str,
                      metrics: "dict | None", **extra) -> dict:
        """Append this run to ``ledger`` (a
        :class:`~repro.obs.ledger.RunLedger`); the level is the one
        recorded factor."""
        return ledger.append(
            machine=machine, plan_key=plan_key, backend=self.backend,
            factors={"level": self.compile.level},
            metrics=metrics,
            extra={"grid": "x".join(map(str, machine.grid)),
                   "iterations": self.iterations, **extra})


def plan_document(compiled, encode: bool = True) -> "tuple[str, str] | None":
    """``(text, plan_key)``: the canonical JSON serialization of the
    compiled plan and its sha256 — the plan's machine-independent
    identity in ledger records and ``/plan/<key>`` URLs.  Encoded once
    per (immutable) program and kept on it: ``None`` till then, if not
    ``encode``."""
    if encode and not hasattr(compiled, "_plan_document"):
        import hashlib

        from repro.plan import plan_to_json
        text = plan_to_json(compiled.plan)
        compiled._plan_document = (
            text, hashlib.sha256(text.encode()).hexdigest())
    return getattr(compiled, "_plan_document", None)


def report_doc(compiled) -> dict:
    """The compile report as a JSON-ready document."""
    return {name: getattr(compiled.report, name) for name in (
        "level", "overlap_shifts", "full_shifts", "loop_nests",
        "fused_statements", "temporaries", "temp_bytes_global",
        "copies_inserted")}
