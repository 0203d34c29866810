"""The paper's benchmark kernels as HPF source strings.

These are the exact codes of the paper's figures (modulo declarations,
which the figures omit):

* :data:`FIVE_POINT_ARRAY_SYNTAX` — Figure 1, the 5-point array-syntax
  stencil.
* :data:`NINE_POINT_CSHIFT` — Figure 2, the single-statement 9-point
  CSHIFT stencil.
* :data:`PURDUE_PROBLEM9` — Figure 3, Problem 9 of the Purdue Set as
  adapted for Fortran D benchmarking (the multi-statement 9-point
  stencil used throughout sections 4 and 5).
* :data:`NINE_POINT_ARRAY_SYNTAX` — the interior-only array-syntax
  9-point stencil of section 5 / Figure 18.

Each takes a size parameter ``N`` via the ``bindings`` argument of
:func:`repro.frontend.parse_program`.
"""

from __future__ import annotations

_DECL_2D = """
      REAL, DIMENSION(N,N) :: {names}
!HPF$ DISTRIBUTE {first}(BLOCK,BLOCK)
"""


def _decls(*names: str, align_to_first: bool = True) -> str:
    text = _DECL_2D.format(names=", ".join(names), first=names[0])
    if align_to_first:
        for other in names[1:]:
            text += f"!HPF$ ALIGN {other} WITH {names[0]}\n"
    return text


FIVE_POINT_ARRAY_SYNTAX = _decls("DST", "SRC") + """
      DST(2:N-1,2:N-1) = C1 * SRC(1:N-2,2:N-1)
     &                 + C2 * SRC(2:N-1,1:N-2)
     &                 + C3 * SRC(2:N-1,2:N-1)
     &                 + C4 * SRC(3:N  ,2:N-1)
     &                 + C5 * SRC(2:N-1,3:N  )
"""

NINE_POINT_CSHIFT = _decls("DST", "SRC") + """
      DST = C1 * CSHIFT(CSHIFT(SRC,-1,1),-1,2)
     &    + C2 * CSHIFT(SRC,-1,1)
     &    + C3 * CSHIFT(CSHIFT(SRC,-1,1),+1,2)
     &    + C4 * CSHIFT(SRC,-1,2)
     &    + C5 * SRC
     &    + C6 * CSHIFT(SRC,+1,2)
     &    + C7 * CSHIFT(CSHIFT(SRC,+1,1),-1,2)
     &    + C8 * CSHIFT(SRC,+1,1)
     &    + C9 * CSHIFT(CSHIFT(SRC,+1,1),+1,2)
"""

PURDUE_PROBLEM9 = _decls("T", "U", "RIP", "RIN") + """
      RIP = CSHIFT(U,SHIFT=+1,DIM=1)
      RIN = CSHIFT(U,SHIFT=-1,DIM=1)
      T   = U + RIP + RIN
      T   = T + CSHIFT(U,SHIFT=-1,DIM=2)
      T   = T + CSHIFT(U,SHIFT=+1,DIM=2)
      T   = T + CSHIFT(RIP,SHIFT=-1,DIM=2)
      T   = T + CSHIFT(RIP,SHIFT=+1,DIM=2)
      T   = T + CSHIFT(RIN,SHIFT=-1,DIM=2)
      T   = T + CSHIFT(RIN,SHIFT=+1,DIM=2)
"""

NINE_POINT_ARRAY_SYNTAX = _decls("DST", "SRC") + """
      DST(2:N-1,2:N-1) = C1 * SRC(1:N-2,1:N-2)
     &                 + C2 * SRC(1:N-2,2:N-1)
     &                 + C3 * SRC(1:N-2,3:N  )
     &                 + C4 * SRC(2:N-1,1:N-2)
     &                 + C5 * SRC(2:N-1,2:N-1)
     &                 + C6 * SRC(2:N-1,3:N  )
     &                 + C7 * SRC(3:N  ,1:N-2)
     &                 + C8 * SRC(3:N  ,2:N-1)
     &                 + C9 * SRC(3:N  ,3:N  )
"""

# Weights of the Problem 9 computation: an unweighted 9-point sum.  Used by
# examples and tests to cross-check against direct NumPy stencils.
PROBLEM9_COEFFS = {f"C{i}": 1.0 for i in range(1, 10)}


# ---------------------------------------------------------------------------
# Generated stencils (experiments beyond the paper's three specifications)
# ---------------------------------------------------------------------------


def make_array_syntax_stencil(radius: int, ndim: int = 2,
                              dst: str = "DST", src: str = "SRC") -> str:
    """Source text of a dense (2*radius+1)^ndim array-syntax stencil.

    The iteration space is the interior ``1+radius : N-radius`` in every
    dimension; coefficients are scalars ``W1, W2, ...``.
    """
    if ndim not in (2, 3):
        raise ValueError("only 2-D and 3-D stencils are generated")
    dims = ",".join("N" for _ in range(ndim))
    dist = "BLOCK,BLOCK" + (",*" if ndim == 3 else "")
    lines = [
        f"      REAL, DIMENSION({dims}) :: {dst}, {src}",
        f"!HPF$ DISTRIBUTE {dst}({dist})",
        f"!HPF$ ALIGN {src} WITH {dst}",
    ]
    lo, hi = 1 + radius, f"N-{radius}"

    def sec(offset: int) -> str:
        a = lo + offset
        b = f"N-{radius - offset}" if radius != offset else "N"
        return f"{a}:{b}"

    target = ",".join(f"{lo}:{hi}" for _ in range(ndim))
    offsets = range(-radius, radius + 1)
    terms = []
    k = 0
    import itertools as _it
    for offs in _it.product(offsets, repeat=ndim):
        k += 1
        section = ",".join(sec(o) for o in offs)
        terms.append(f"W{k} * {src}({section})")
    body = f"      {dst}({target}) = " + terms[0]
    for t in terms[1:]:
        body += f"\n     &    + {t}"
    lines.append(body)
    return "\n".join(lines) + "\n"


def make_cshift_stencil(offsets: "list[tuple[int, ...]]", ndim: int = 2,
                        dst: str = "DST", src: str = "SRC") -> str:
    """Source text of a whole-array CSHIFT stencil over given taps.

    ``offsets`` lists per-tap displacement vectors; tap ``k`` is weighted
    by scalar ``W<k+1>``.  A zero vector yields a bare ``SRC`` term.
    """
    dims = ",".join("N" for _ in range(ndim))
    dist = "BLOCK,BLOCK" + (",*" if ndim == 3 else "")
    lines = [
        f"      REAL, DIMENSION({dims}) :: {dst}, {src}",
        f"!HPF$ DISTRIBUTE {dst}({dist})",
        f"!HPF$ ALIGN {src} WITH {dst}",
    ]
    terms = []
    for k, offs in enumerate(offsets, start=1):
        expr = src
        for d, o in enumerate(offs, start=1):
            if o:
                expr = f"CSHIFT({expr},SHIFT={o:+d},DIM={d})"
        terms.append(f"W{k} * {expr}")
    body = f"      {dst} = " + terms[0]
    for t in terms[1:]:
        body += f"\n     &    + {t}"
    lines.append(body)
    return "\n".join(lines) + "\n"


def star_offsets(radius: int, ndim: int) -> "list[tuple[int, ...]]":
    """Taps of a star (von-Neumann) stencil: axis-aligned out to radius."""
    out = [tuple(0 for _ in range(ndim))]
    for d in range(ndim):
        for r in range(1, radius + 1):
            for s in (-r, r):
                offs = [0] * ndim
                offs[d] = s
                out.append(tuple(offs))
    return out


def box_offsets(radius: int, ndim: int) -> "list[tuple[int, ...]]":
    """Taps of a dense box (Moore) stencil of the given radius."""
    import itertools as _it
    return [offs for offs in _it.product(range(-radius, radius + 1),
                                         repeat=ndim)]


#: 25-point dense 2-D stencil (radius 2), array syntax.
TWENTYFIVE_POINT_ARRAY_SYNTAX = make_array_syntax_stencil(radius=2, ndim=2)

#: 7-point 3-D star stencil via CSHIFTs, (BLOCK,BLOCK,*) distribution.
SEVEN_POINT_3D_CSHIFT = make_cshift_stencil(star_offsets(1, 3), ndim=3)

#: 27-point 3-D box stencil via CSHIFTs.
TWENTYSEVEN_POINT_3D_CSHIFT = make_cshift_stencil(box_offsets(1, 3), ndim=3)


# ---------------------------------------------------------------------------
# Loop-carrying solver kernels (whole solvers, DO loop included)
# ---------------------------------------------------------------------------

#: Variable-coefficient Jacobi relaxation, full-array form.  The DO loop
#: is part of the compiled program, so this is the registry's showcase
#: for the loop-aware plan passes: the coefficient array ``A`` is never
#: written inside the loop (its four halo exchanges hoist to the loop
#: preheader) and the trailing ``U = UNEW`` double-buffer copy is
#: recognised as a ping-pong and replaced by a buffer swap.
JACOBI_SOLVER = _decls("U", "UNEW", "A") + """
      DO K = 1, NITER
        UNEW = 0.25 * ( CSHIFT(A,+1,1)*CSHIFT(U,+1,1)
     &                + CSHIFT(A,-1,1)*CSHIFT(U,-1,1)
     &                + CSHIFT(A,+1,2)*CSHIFT(U,+1,2)
     &                + CSHIFT(A,-1,2)*CSHIFT(U,-1,2) )
        U = UNEW
      ENDDO
"""

#: Red-black Gauss-Seidel smoothing with WHERE masks (the checkerboard
#: colouring lives in the precomputed ``RED`` parity array).  Only the
#: in-place-updated ``U`` is ever shifted, so every exchange is
#: loop-variant and the loop passes must leave the body alone — the
#: masked-solver counterpart of ``cg``'s hands-off coverage.
RED_BLACK_SOLVER = _decls("U", "F", "RED") + """
      DO K = 1, NSWEEPS
        WHERE (RED > 0.5)
          U = 0.25 * ( CSHIFT(U,1,1) + CSHIFT(U,-1,1)
     &               + CSHIFT(U,1,2) + CSHIFT(U,-1,2) - H2 * F )
        END WHERE
        WHERE (RED < 0.5)
          U = 0.25 * ( CSHIFT(U,1,1) + CSHIFT(U,-1,1)
     &               + CSHIFT(U,1,2) + CSHIFT(U,-1,2) - H2 * F )
        END WHERE
      ENDDO
"""

#: One conjugate-gradient solver, DO loop, reductions and scalar
#: recurrences included.  Every array is written every iteration, so
#: this is the loop passes' hands-off case: nothing hoists, nothing
#: swaps, and the plan must come out semantically untouched.
CG_SOLVER = """
      REAL, DIMENSION(N,N) :: X, R, P, Q, B
!HPF$ DISTRIBUTE X(BLOCK,BLOCK)
!HPF$ ALIGN R WITH X
!HPF$ ALIGN P WITH X
!HPF$ ALIGN Q WITH X
!HPF$ ALIGN B WITH X
      X = 0.0
      R = B
      P = R
      RZ = SUM(R * R)
      DO K = 1, NITER
        Q = (4.0 + SIGMA) * P - CSHIFT(P,1,1) - CSHIFT(P,-1,1)
     &    - CSHIFT(P,1,2) - CSHIFT(P,-1,2)
        PAP = SUM(P * Q)
        ALPHA = RZ / PAP
        X = X + ALPHA * P
        R = R - ALPHA * Q
        RZNEW = SUM(R * R)
        BETA = RZNEW / RZ
        RZ = RZNEW
        P = R + BETA * P
      ENDDO
"""


# ---------------------------------------------------------------------------
# Named-kernel registry (CLI convenience: ``python -m repro trace purdue9``)
# ---------------------------------------------------------------------------

from dataclasses import dataclass as _dataclass
from dataclasses import field as _field


@_dataclass(frozen=True)
class KernelSpec:
    """A named kernel with enough metadata to compile+run it directly.

    ``default_scalars`` seeds runtime scalars the kernel needs to be
    numerically meaningful (unset scalars execute as 0.0, which is
    valid but degenerate for e.g. the CG operator shift).
    """

    name: str
    source: str
    outputs: frozenset[str]
    default_bindings: dict[str, int] = _field(
        default_factory=lambda: {"N": 64})
    default_scalars: dict[str, float] = _field(default_factory=dict)


def _spec(name: str, source: str, *outputs: str,
          bindings: dict[str, int] | None = None,
          scalars: dict[str, float] | None = None) -> KernelSpec:
    extra = {} if bindings is None else {
        "default_bindings": dict(bindings)}
    return KernelSpec(name=name, source=source,
                      outputs=frozenset(outputs),
                      default_scalars=dict(scalars or {}), **extra)


#: Kernels addressable by name from the CLI.  The ``jacobi``,
#: ``red_black`` and ``cg`` entries are whole solvers whose DO loop is
#: part of the compiled plan — the coverage targets of the loop-aware
#: plan passes of the default level.
KERNELS: dict[str, KernelSpec] = {
    spec.name: spec for spec in [
        _spec("five_point", FIVE_POINT_ARRAY_SYNTAX, "DST"),
        _spec("nine_point_cshift", NINE_POINT_CSHIFT, "DST"),
        _spec("nine_point", NINE_POINT_ARRAY_SYNTAX, "DST"),
        _spec("purdue9", PURDUE_PROBLEM9, "T"),
        _spec("twentyfive_point", TWENTYFIVE_POINT_ARRAY_SYNTAX, "DST"),
        _spec("seven_point_3d", SEVEN_POINT_3D_CSHIFT, "DST"),
        _spec("box27_3d", TWENTYSEVEN_POINT_3D_CSHIFT, "DST"),
        _spec("jacobi", JACOBI_SOLVER, "U",
              bindings={"N": 64, "NITER": 10}),
        _spec("red_black", RED_BLACK_SOLVER, "U",
              bindings={"N": 64, "NSWEEPS": 10},
              scalars={"H2": 1.0 / (63 * 63)}),
        _spec("cg", CG_SOLVER, "X", "R",
              bindings={"N": 64, "NITER": 10},
              scalars={"SIGMA": 0.5}),
    ]
}


def resolve_kernel(name: str) -> KernelSpec:
    """Look up a named kernel; raises ``KeyError`` with the valid names."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; known kernels: "
            f"{', '.join(sorted(KERNELS))}") from None


def compile_kernel(name: str, bindings: dict[str, int] | None = None,
                   level: "str | None" = None, cache=None, tracer=None,
                   **options):
    """Compile a registry kernel by name (with its declared outputs).

    ``level=None`` (here and in :func:`run_kernel`) is the compiler's
    default, :attr:`repro.compiler.OptLevel.DEFAULT`.
    ``cache`` is forwarded to :func:`repro.compiler.compile_hpf` — pass
    ``True`` (process default) or a ``PlanCache`` to memoize sweeps that
    recompile the same kernel.
    """
    from repro.job import CompileJob
    job = CompileJob.resolve(kernel=name, bindings=bindings, level=level)
    return job.compile(cache=cache, tracer=tracer, **options)


def run_kernel(name: str, grid: tuple[int, ...] = (2, 2),
               bindings: dict[str, int] | None = None,
               level: "str | None" = None, backend: str = "perpe",
               iterations: int = 1, seed: int = 0, machine=None,
               cache=None, tracer=None, profile: bool = False,
               workers: int | None = None,
               scalars: dict[str, float] | None = None, **options):
    """Compile and execute a registry kernel with seeded random inputs.

    ``backend`` selects the execution strategy (``"perpe"``,
    ``"vectorized"`` or ``"parallel"``); all three produce
    bitwise-identical results and cost reports.  ``profile`` attaches a
    communication profile (see :mod:`repro.obs.profile`) to the result.
    ``workers`` caps the ``parallel`` backend's worker threads.
    The library door of :mod:`repro.job`, like the CLI and the service.
    Returns the :class:`~repro.runtime.executor.ExecutionResult`.
    """
    from repro.job import CompileJob, MachineSpec, RunJob
    job = RunJob(
        compile=CompileJob.resolve(kernel=name, bindings=bindings,
                                   level=level),
        machine=MachineSpec(grid=grid), backend=backend,
        iterations=iterations, seed=seed, workers=workers,
        scalars=dict(scalars or {}), profile=profile)
    compiled = job.compile.compile(cache=cache, tracer=tracer, **options)
    if machine is None:
        machine = job.machine.build()
    return job.execute(compiled, machine, tracer=tracer)
