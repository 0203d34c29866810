"""Differential-testing utilities: random stencil programs.

The strongest evidence that the optimization pipeline is
semantics-preserving is *differential execution*: generate a random
program from the supported HPF subset, run it through every optimization
level on several machine shapes, and demand bit-level agreement with the
serial NumPy reference.  This module provides the generator and checker
used by ``tests/test_differential.py``; they are public so downstream
changes can fuzz themselves.

The generator is deliberately adversarial within the subset: it mixes
CSHIFT chains, EOSHIFT (single fill value, keeping programs inside the
fill discipline where conversion succeeds — conflicting programs are
still *correct*, just less optimized), WHERE masks, reductions feeding
later scalars, elementwise intrinsics, accumulation chains creating
dependences, and optional DO-loop wrapping.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.compiler.driver import compile_hpf
from repro.compiler.options import OptLevel
from repro.frontend.parser import parse_program
from repro.machine.machine import Machine
from repro.runtime.reference import evaluate


@dataclass
class GeneratorConfig:
    """Knobs of the random program generator."""

    n: int = 12                   # array extent per dimension
    ndim: int = 2
    n_arrays: int = 3
    n_statements: int = 6
    max_offset: int = 2
    allow_eoshift: bool = True
    allow_where: bool = True
    allow_reductions: bool = True
    allow_intrinsics: bool = True
    allow_do_loop: bool = True
    eoshift_boundary: float = 0.5


@dataclass
class GeneratedProgram:
    """Source text plus the metadata needed to run it."""

    source: str
    arrays: list[str]
    scalars: dict[str, float] = field(default_factory=dict)
    bindings: dict[str, int] = field(default_factory=dict)


def _shifted_ref(rng: np.random.Generator, array: str,
                 cfg: GeneratorConfig, eoshift: bool) -> str:
    expr = array
    for d in range(1, cfg.ndim + 1):
        if rng.random() < 0.6:
            s = int(rng.integers(1, cfg.max_offset + 1)) * \
                (1 if rng.random() < 0.5 else -1)
            if eoshift:
                expr = (f"EOSHIFT({expr},SHIFT={s},"
                        f"BOUNDARY={cfg.eoshift_boundary},DIM={d})")
            else:
                expr = f"CSHIFT({expr},SHIFT={s},DIM={d})"
    return expr


def _term(rng: np.random.Generator, arrays: list[str],
          cfg: GeneratorConfig, eoshift: bool) -> str:
    src = str(rng.choice(arrays))
    ref = _shifted_ref(rng, src, cfg, eoshift)
    coeff = round(float(rng.uniform(0.1, 2.0)), 3)
    term = f"{coeff} * {ref}"
    if cfg.allow_intrinsics and rng.random() < 0.2:
        fn = rng.choice(["ABS", "SQRT"])
        inner = f"ABS({ref})" if fn == "SQRT" else ref
        term = f"{coeff} * {fn}({inner})"
    return term


def random_program(seed: int,
                   cfg: GeneratorConfig | None = None) -> GeneratedProgram:
    """Generate a random program from the supported subset."""
    cfg = cfg or GeneratorConfig()
    rng = np.random.default_rng(seed)
    arrays = [f"A{i}" for i in range(cfg.n_arrays)]
    dims = ",".join("N" for _ in range(cfg.ndim))
    # distribute the first two dimensions over the (2-D) processor grid;
    # higher dimensions stay on-processor
    dist = ",".join("BLOCK" if d < 2 else "*" for d in range(cfg.ndim))
    lines = [f"      REAL, DIMENSION({dims}) :: {', '.join(arrays)}",
             f"!HPF$ DISTRIBUTE {arrays[0]}({dist})"]
    for other in arrays[1:]:
        lines.append(f"!HPF$ ALIGN {other} WITH {arrays[0]}")

    # EOSHIFT programs stick to one fill value so most shifts convert
    use_eoshift = cfg.allow_eoshift and rng.random() < 0.3
    body: list[str] = []
    n_scalars = 0
    for _ in range(cfg.n_statements):
        kind = rng.random()
        dst = str(rng.choice(arrays))
        if cfg.allow_reductions and kind < 0.15:
            n_scalars += 1
            src = str(rng.choice(arrays))
            op = str(rng.choice(["SUM", "MAXVAL", "MINVAL"]))
            body.append(f"S{n_scalars} = {op}({src} * 0.125)")
            body.append(f"{dst} = {dst} + S{n_scalars} * 0.01")
        elif cfg.allow_where and kind < 0.3:
            mask_src = str(rng.choice(arrays))
            term = _term(rng, arrays, cfg, use_eoshift)
            body.append(f"WHERE ({mask_src} > 0.0) {dst} = {term}")
        else:
            nterms = int(rng.integers(1, 4))
            terms = [_term(rng, arrays, cfg, use_eoshift)
                     for _ in range(nterms)]
            acc = f"{dst} + " if rng.random() < 0.5 else ""
            body.append(f"{dst} = {acc}" + " + ".join(terms))
    if cfg.allow_do_loop and rng.random() < 0.3 and len(body) >= 2:
        split = len(body) // 2
        wrapped = ["DO KK = 1, 2"] + \
                  ["  " + s for s in body[:split]] + ["ENDDO"]
        body = wrapped + body[split:]
    lines += ["      " + s for s in body]
    return GeneratedProgram(source="\n".join(lines) + "\n",
                            arrays=arrays,
                            bindings={"N": cfg.n})


def random_inputs(seed: int, program: GeneratedProgram,
                  cfg: GeneratorConfig | None = None) -> dict[str, np.ndarray]:
    cfg = cfg or GeneratorConfig()
    rng = np.random.default_rng(seed + 10_000)
    shape = (cfg.n,) * cfg.ndim
    return {name: rng.uniform(0.1, 1.0, shape).astype(np.float64)
            for name in program.arrays}


def differential_check(program: GeneratedProgram,
                       inputs: dict[str, np.ndarray],
                       levels: tuple[str, ...] = tuple(
                           lv.name for lv in OptLevel),
                       grids: tuple[tuple[int, ...], ...] = ((2, 2),),
                       rtol: float = 1e-6, poison: bool = False) -> None:
    """Run the program at every level/grid on ``perpe`` and
    ``vectorized``; raise on any divergence from the serial reference,
    or between the two backends in any bit.  ``poison``: each backend
    also runs on :func:`poisoned` inputs, once as is and once under
    :func:`copying_dead_cells`, and must match the clean ``perpe`` run
    bit for bit."""
    parsed = parse_program(program.source, bindings=program.bindings)
    ref = evaluate(parsed, inputs=inputs, scalars=program.scalars)
    for level in levels:
        compiled = compile_hpf(program.source, bindings=program.bindings,
                               level=level, outputs=set(program.arrays))
        for grid in grids:
            def run(backend: str, values=inputs):
                return compiled.run(Machine(grid=grid,
                                            keep_message_log=False),
                                    inputs=values, scalars=program.scalars,
                                    backend=backend)

            where = f"level {level}, grid {grid}"
            clean = run("perpe")
            for name in program.arrays:
                np.testing.assert_allclose(
                    clean.arrays[name], ref[name], rtol=rtol,
                    atol=1e-12,
                    err_msg=(f"{where}, array {name}\n"
                             f"program:\n{program.source}"))
            checks = [("vectorized", run("vectorized"))]
            if poison:
                bad = poisoned(compiled.plan, inputs)
                for backend in ("perpe", "vectorized"):
                    checks.append((f"{backend}, poisoned", run(backend, bad)))
                    with copying_dead_cells():
                        checks.append((f"{backend}, poisoned and copied",
                                       run(backend, bad)))
            for label, result in checks:
                assert_bitwise(clean, result,
                                f"{where}, perpe vs {label}\n"
                                f"program:\n{program.source}")


def assert_bitwise(a, b, ctx: str) -> None:
    """Two runs' arrays and scalars are equal bit for bit."""
    assert a.arrays.keys() == b.arrays.keys(), ctx
    for name in a.arrays:
        assert a.arrays[name].tobytes() == b.arrays[name].tobytes(), (
            f"array {name}, {ctx}")
    assert {k: float(v).hex() for k, v in a.scalars.items()} == \
        {k: float(v).hex() for k, v in b.scalars.items()}, ctx


def poisoned(plan, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``inputs`` with every cell ``plan`` overwrites before it reads it
    (:meth:`repro.runtime.nest_tape.PlanTapes.dead_on_entry`) set to
    NaN."""
    from repro.runtime.nest_tape import plan_tapes
    dead = plan_tapes(plan).dead_on_entry(plan)
    out = {}
    for name, values in inputs.items():
        box = dead.get(name.upper())
        if box is not None:
            values = np.array(values)
            values[tuple(slice(*r) for r in box)] = np.nan
        out[name] = values
    return out


def copying_dead_cells():
    """Runs copy every input cell in, dead on entry or not, for the
    duration: a :func:`poisoned` input's NaNs then sit in the arenas,
    and only a read of a cell the analysis calls dead lets one out."""
    from repro.runtime.nest_tape import PlanTapes
    return _constant(PlanTapes, "dead_on_entry", lambda self, plan: {})


def plan_roundtrip_check(compiled, inputs: dict[str, np.ndarray],
                         scalars: dict[str, float] | None = None,
                         grids: tuple[tuple[int, ...], ...] = ((2, 2),),
                         backends: tuple[str, ...] = ("perpe",
                                                      "vectorized"),
                         iterations: int = 1) -> None:
    """Serialize a compiled program to JSON, revive it, and demand the
    round trip is lossless.

    Three levels of fidelity are checked: (1) the revived program
    re-serializes to the byte-identical JSON document (the document is a
    fixed point); (2) on every grid and backend, the revived plan
    executes to bitwise-identical arrays and scalars; (3) cost
    accounting (message/byte/copy counts, per-PE times) agrees exactly —
    a persistent-cache hit must be observationally indistinguishable
    from a recompile.
    """
    from repro.plan import program_from_json, program_to_json

    doc = program_to_json(compiled)
    revived = program_from_json(doc)
    assert program_to_json(revived) == doc, (
        "plan JSON is not a serialization fixed point")
    for grid in grids:
        for backend in backends:
            results = {}
            for tag, prog in (("original", compiled),
                              ("revived", revived)):
                machine = Machine(grid=grid, keep_message_log=True)
                results[tag] = prog.run(
                    machine, inputs=inputs, scalars=scalars,
                    iterations=iterations, backend=backend)
            a, b = results["original"], results["revived"]
            ctx = f"grid {grid}, backend {backend}"
            for name in a.arrays:
                np.testing.assert_array_equal(
                    a.arrays[name], b.arrays[name],
                    err_msg=f"array {name} diverged after round trip, "
                            f"{ctx}")
            assert a.scalars == b.scalars, ctx
            assert a.report.summary() == b.report.summary(), (
                f"cost accounting diverged after round trip: {ctx}\n"
                f"original: {a.report.summary()}\n"
                f"revived:  {b.report.summary()}")
            assert a.report.pe_times == b.report.pe_times, ctx


def _backend_run_context(backend: str):
    """Context under which an equivalence sweep runs ``backend``: the
    parallel backend stripes every nest it legally can
    (:func:`forced_stripes`)."""
    if backend == "parallel":
        return forced_stripes()
    return nullcontext()


@contextmanager
def _constant(module, name: str, value):
    """Patch a module constant — a fixed number nothing selects, so a
    test-sized program never crosses it — for the duration."""
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def one_row_strips():
    """Cut every strip-legal nest into one-row strips for the duration.

    At the default budget a test-sized box is a single strip, so the
    sweeps would never leave :mod:`repro.runtime.nest_tape`'s one-strip
    path.
    """
    from repro.runtime import nest_tape
    return _constant(nest_tape, "STRIP_BYTES", 1)


def forced_stripes():
    """Let the ``parallel`` backend stripe every nest that has two rows
    and passes the order rule, however few points it covers: at the
    default :data:`repro.runtime.parallel.MIN_STRIPE_POINTS` a
    test-sized nest runs whole, i.e. exactly as ``vectorized``."""
    from repro.runtime import parallel
    return _constant(parallel, "MIN_STRIPE_POINTS", 1)


def equivalence_backends(
        workers: tuple[int | None, ...] = (2,),
) -> tuple[tuple[str, dict], ...]:
    """The standard backend sweep with extra parallel worker counts.

    ``workers`` entries become additional ``parallel`` runs: ``1`` is
    the degenerate one-stripe schedule (everything on the calling
    thread), ``3`` cuts a 12-row nest unevenly and queues two stripes
    on a one-thread pool, ``None`` lets the backend pick
    ``os.cpu_count()``.  Used by the differential fuzzer to sweep
    stripe counts without repeating the serial backends.
    """
    sweep: list[tuple[str, dict]] = [("perpe", {}), ("vectorized", {})]
    for w in workers:
        sweep.append(("parallel", {"workers": w}))
    return tuple(sweep)


#: Backends every equivalence sweep covers, with the extra run kwargs
#: each needs (the parallel backend runs 2 workers, so every stripable
#: nest is cut in two and one stripe crosses to the pool — see
#: :func:`_backend_run_context`).
EQUIVALENCE_BACKENDS = equivalence_backends()


def backend_equivalence_check(program: GeneratedProgram,
                              inputs: dict[str, np.ndarray],
                              levels: tuple[str, ...] = (
                                  "O0", "O2", OptLevel.DEFAULT.name),
                              grids: tuple[tuple[int, ...], ...] = ((2, 2),),
                              iterations: int = 1,
                              backends: tuple[tuple[str, dict], ...] =
                              EQUIVALENCE_BACKENDS,
                              outputs: "set[str] | None" = None) -> None:
    """Run under every execution backend at every level/grid; demand
    bitwise-identical arrays and scalars AND identical cost accounting
    (message/byte/copy counts, per-PE times, peak memory) AND an
    identical tagged message log / communication profile.

    This is the backend contract: ``vectorized`` and ``parallel`` are
    execution strategies, not semantics or cost changes, so nothing
    observable may differ from the per-PE executor — down to the
    ``(src, dst, nbytes, tag)`` tuple of every logged message, which is
    what makes the communication profiler backend-agnostic.  The
    ``perpe`` baseline is always compared first.  Every backend runs
    twice — at the default strip budget and under
    :func:`one_row_strips` — so the contract covers the strip-mined
    path of the shared nest evaluator, not only whole-box strips.

    ``outputs`` overrides the default (every program array
    observable) so loop passes that require a dead scratch array can
    fire.
    """
    for level in levels:
        compiled = compile_hpf(program.source, bindings=program.bindings,
                               level=level,
                               outputs=outputs or set(program.arrays))
        for grid in grids:
            results = {}
            logs = {}
            # labelled by backend AND kwargs: a sweep may name one
            # backend several times (parallel at 1, 2, 3 workers)
            runs = [(f"{backend}{extra or ''}{note}", backend, extra, strips)
                    for note, strips in (("", nullcontext),
                                         (", one-row strips", one_row_strips))
                    for backend, extra in backends]
            for label, backend, extra, strips in runs:
                machine = Machine(grid=grid, keep_message_log=True)
                with _backend_run_context(backend), strips():
                    results[label] = compiled.run(
                        machine, inputs=inputs, scalars=program.scalars,
                        iterations=iterations, backend=backend,
                        profile=True, **extra)
                logs[label] = [(m.src, m.dst, m.nbytes, m.tag)
                               for m in machine.network.log]
            base = runs[0][0]
            a = results[base]
            for label, _, _, _ in runs[1:]:
                b = results[label]
                ctx = (f"level {level}, grid {grid}, "
                       f"{base} vs {label}\n"
                       f"program:\n{program.source}")
                for name in a.arrays:
                    np.testing.assert_array_equal(
                        a.arrays[name], b.arrays[name],
                        err_msg=f"array {name}, {ctx}")
                assert a.scalars == b.scalars, ctx
                assert a.report.summary() == b.report.summary(), (
                    f"cost accounting diverged: {ctx}\n"
                    f"{base}: {a.report.summary()}\n"
                    f"{label}: {b.report.summary()}")
                assert a.report.pe_times == b.report.pe_times, ctx
                assert a.report.pe_comm_times == \
                    b.report.pe_comm_times, ctx
                assert a.report.pe_copy_times == \
                    b.report.pe_copy_times, ctx
                assert a.peak_memory_per_pe == b.peak_memory_per_pe, ctx
                assert logs[base] == logs[label], (
                    f"message log diverged: {ctx}")
                assert a.profile is not None and b.profile is not None
                assert a.profile.matrix == b.profile.matrix, (
                    f"communication matrices diverged: {ctx}")
                assert a.profile.totals["messages_by_class"] == \
                    b.profile.totals["messages_by_class"], ctx
