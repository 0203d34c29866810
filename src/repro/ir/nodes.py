"""Expression and statement nodes of the stencil IR.

The IR is deliberately close to the paper's presentation:

* Before normalization, shifts appear as :class:`CShift`/:class:`EOShift`
  expressions (possibly nested) and array-syntax stencils as
  :class:`ArrayRef` with section triplets.
* Normalization (paper 2.1) leaves every shift as a *singleton* whole-array
  assignment ``TMP = CSHIFT(SRC, s, d)``.
* The offset-array pass (paper 3.1) turns those into
  :class:`OverlapShift` call statements plus :class:`OffsetRef`
  references — the paper's ``U<+1,0>`` notation.

Dimensions follow Fortran: ``dim`` arguments are 1-based, and section
subscripts are 1-based inclusive ranges.  Offset vectors in
:class:`OffsetRef` are 0-based tuples, one entry per array dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import SemanticError
from repro.ir.linexpr import LinExpr
from repro.ir.rsd import RSD

# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triplet:
    """A Fortran section triplet ``lo:hi:step`` (1-based, inclusive)."""

    lo: LinExpr
    hi: LinExpr
    step: int = 1

    def __post_init__(self) -> None:
        if self.step != 1:
            raise SemanticError("only unit-stride sections are supported")

    def shifted(self, delta: int) -> "Triplet":
        return Triplet(self.lo + delta, self.hi + delta, self.step)

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


Section = tuple[Triplet, ...]


def section_offsets(ref: Section, base: Section) -> tuple[int, ...] | None:
    """Constant per-dimension offset of ``ref`` relative to ``base``.

    Returns ``None`` unless every dimension of ``ref`` is ``base`` shifted
    by a constant (the stencil case: ``SRC(1:N-2, 2:N-1)`` is offset
    ``(-1, 0)`` from ``DST(2:N-1, 2:N-1)``).
    """
    if len(ref) != len(base):
        return None
    offsets = []
    for r, b in zip(ref, base):
        dlo = r.lo - b.lo
        dhi = r.hi - b.hi
        if not (dlo.is_constant and dhi.is_constant):
            return None
        if dlo.const != dhi.const:
            return None
        offsets.append(dlo.const)
    return tuple(offsets)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of IR expressions.  Immutable and hashable."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for c in self.children():
            yield from c.walk()


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float

    def __str__(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True)
class ScalarRef(Expr):
    """Reference to a replicated scalar variable (C1, ALPHA, ...)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(Expr):
    """Reference to an array, whole (``section is None``) or sectioned."""

    name: str
    section: Section | None = None

    def __str__(self) -> str:
        if self.section is None:
            return self.name
        return f"{self.name}({','.join(map(str, self.section))})"


@dataclass(frozen=True)
class OffsetRef(Expr):
    """The paper's annotated offset reference ``U<+1,-1>``.

    Reads ``U`` displaced by ``offsets`` relative to the iteration point;
    displaced accesses fall into the overlap area filled by
    :class:`OverlapShift`.  ``boundary`` selects the fill semantics of
    out-of-range global accesses: ``None`` wraps circularly (CSHIFT
    lineage), a float reads that end-off boundary value (EOSHIFT
    lineage, the paper's stated generalization).
    """

    name: str
    offsets: tuple[int, ...]
    boundary: float | None = None

    @property
    def circular(self) -> bool:
        return self.boundary is None

    def __str__(self) -> str:
        inner = ",".join(f"{o:+d}" if o else "0" for o in self.offsets)
        if self.boundary is None:
            return f"{self.name}<{inner}>"
        return f"{self.name}<{inner};EOS={self.boundary:g}>"


@dataclass(frozen=True)
class CShift(Expr):
    """``CSHIFT(array, SHIFT=shift, DIM=dim)`` — circular shift.

    ``result(i) = array(i + shift)`` along 1-based ``dim``, wrapping.
    """

    array: Expr
    shift: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise SemanticError("CSHIFT DIM is 1-based and must be >= 1")

    def children(self) -> tuple[Expr, ...]:
        return (self.array,)

    def __str__(self) -> str:
        return f"CSHIFT({self.array},SHIFT={self.shift:+d},DIM={self.dim})"


@dataclass(frozen=True)
class EOShift(Expr):
    """``EOSHIFT``: end-off shift filling with a boundary value."""

    array: Expr
    shift: int
    dim: int
    boundary: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise SemanticError("EOSHIFT DIM is 1-based and must be >= 1")

    def children(self) -> tuple[Expr, ...]:
        return (self.array,)

    def __str__(self) -> str:
        return (f"EOSHIFT({self.array},SHIFT={self.shift:+d},"
                f"DIM={self.dim},BOUNDARY={self.boundary:g})")


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic; ``op`` is one of ``+ - * / **``."""

    op: str
    left: Expr
    right: Expr

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "**": 3}

    def __post_init__(self) -> None:
        if self.op not in self._PREC:
            raise SemanticError(f"unsupported operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        def wrap(child: Expr, right_side: bool) -> str:
            if isinstance(child, BinOp):
                cp, mp = self._PREC[child.op], self._PREC[self.op]
                if cp < mp or (cp == mp and right_side
                               and self.op in ("-", "/")):
                    return f"({child})"
            return str(child)

        return f"{wrap(self.left, False)} {self.op} {wrap(self.right, True)}"


#: elementwise intrinsic functions supported in computation statements
ELEMENTWISE_INTRINSICS = frozenset({
    "ABS", "SQRT", "EXP", "LOG", "MIN", "MAX",
})

#: reduction intrinsics: array expression in, replicated scalar out
REDUCTION_INTRINSICS = frozenset({"SUM", "MAXVAL", "MINVAL"})


@dataclass(frozen=True)
class Reduction(Expr):
    """A full-array reduction, e.g. ``SUM(R*R)`` or ``MAXVAL(ABS(U))``.

    Scalar-valued; the operand is an elementwise array expression.  On
    the distributed machine each PE reduces its subgrid and the partial
    results combine with a logarithmic exchange (the cost model charges
    an allreduce), after which the scalar is replicated — the usual HPF
    lowering of reduction intrinsics.
    """

    op: str
    arg: Expr

    def __post_init__(self) -> None:
        if self.op not in REDUCTION_INTRINSICS:
            raise SemanticError(f"unknown reduction {self.op}")

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,)

    def __str__(self) -> str:
        return f"{self.op}({self.arg})"


@dataclass(frozen=True)
class Intrinsic(Expr):
    """An elementwise intrinsic call, e.g. ``SQRT(ABS(U))``.

    These keep statements inside the aligned computation class —
    stencil-like codes often mix them in (``ABS`` in residual norms,
    ``MIN``/``MAX`` in limiters) and the paper's optimizations apply
    unchanged since no data movement is involved.
    """

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name not in ELEMENTWISE_INTRINSICS:
            raise SemanticError(f"unknown intrinsic {self.name}")
        need_two = self.name in ("MIN", "MAX")
        if need_two and len(self.args) < 2:
            raise SemanticError(f"{self.name} needs at least 2 arguments")
        if not need_two and len(self.args) != 1:
            raise SemanticError(f"{self.name} takes exactly 1 argument")

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({','.join(map(str, self.args))})"


@dataclass(frozen=True)
class Compare(Expr):
    """Scalar comparison used in ``IF`` conditions."""

    op: str  # one of < > <= >= == /=
    left: Expr
    right: Expr

    _OPS = frozenset({"<", ">", "<=", ">=", "==", "/="})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise SemanticError(f"unsupported comparison {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op != "-":
            raise SemanticError(f"unsupported unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"-({self.operand})"


def array_names(expr: Expr) -> set[str]:
    """All array names referenced anywhere inside ``expr``."""
    names: set[str] = set()
    for node in expr.walk():
        if isinstance(node, (ArrayRef, OffsetRef)):
            names.add(node.name)
    return names


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_stmt_counter = itertools.count(1)


class Stmt:
    """Base class of IR statements.  Each instance has a unique ``sid``.

    ``BLOCKS`` names the attributes holding a compound statement's nested
    statement lists (empty for a leaf); :mod:`repro.ir.program` walks
    them.
    """

    BLOCKS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.sid: int = next(_stmt_counter)

    def substatements(self) -> Sequence["Stmt"]:
        return tuple(s for block in self.BLOCKS
                     for s in getattr(self, block))

    def walk(self) -> Iterator["Stmt"]:
        yield self
        for s in self.substatements():
            yield from s.walk()


class ArrayAssign(Stmt):
    """``lhs = rhs`` where ``lhs`` is a whole array or a section.

    ``mask`` makes the assignment elementwise-conditional (a WHERE body
    statement): only points where the mask is true are stored.  The
    frontend materialises each WHERE construct's mask expression into a
    LOGICAL temporary first, preserving Fortran's evaluate-once
    semantics, so masks here are ordinary aligned references.
    """

    def __init__(self, lhs: ArrayRef, rhs: Expr,
                 mask: Expr | None = None) -> None:
        super().__init__()
        self.lhs = lhs
        self.rhs = rhs
        self.mask = mask

    def __str__(self) -> str:
        if self.mask is not None:
            return f"WHERE ({self.mask}) {self.lhs} = {self.rhs}"
        return f"{self.lhs} = {self.rhs}"


class ScalarAssign(Stmt):
    """``name = rhs`` for a replicated scalar."""

    def __init__(self, name: str, rhs: Expr) -> None:
        super().__init__()
        self.name = name
        self.rhs = rhs

    def __str__(self) -> str:
        return f"{self.name} = {self.rhs}"


class Allocate(Stmt):
    """``ALLOCATE(names...)`` of already-declared deferred arrays."""

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__()
        self.names = tuple(names)

    def __str__(self) -> str:
        return f"ALLOCATE {', '.join(self.names)}"


class Deallocate(Stmt):
    """``DEALLOCATE(names...)``."""

    def __init__(self, names: Sequence[str]) -> None:
        super().__init__()
        self.names = tuple(names)

    def __str__(self) -> str:
        return f"DEALLOCATE {', '.join(self.names)}"


class OverlapShift(Stmt):
    """``CALL OVERLAP_SHIFT(array<base_offsets>, shift, dim [, rsd])``.

    Moves only the interprocessor component of a shift into the overlap
    area of ``array`` (paper 3.1).  ``base_offsets`` is non-trivial when the
    source is itself an offset (multi-offset) array, as in
    ``OVERLAP_CSHIFT(U<+1,0>, SHIFT=-1, DIM=2)``.  ``dim`` is 1-based.
    ``boundary`` selects end-off (EOSHIFT) fill semantics: overlap cells
    beyond the global edge take the boundary value instead of wrapping.
    """

    def __init__(self, array: str, shift: int, dim: int,
                 rsd: RSD | None = None,
                 base_offsets: tuple[int, ...] | None = None,
                 boundary: float | None = None) -> None:
        super().__init__()
        if shift == 0:
            raise SemanticError("OVERLAP_SHIFT with zero shift is useless")
        self.array = array
        self.shift = shift
        self.dim = dim
        self.rsd = rsd
        self.base_offsets = base_offsets
        self.boundary = boundary

    def __str__(self) -> str:
        src = self.array
        if self.base_offsets and any(self.base_offsets):
            inner = ",".join(f"{o:+d}" if o else "0"
                             for o in self.base_offsets)
            src = f"{src}<{inner}>"
        extra = f",{self.rsd}" if self.rsd is not None and not self.rsd.is_trivial else ""
        if self.boundary is not None:
            extra += f",BOUNDARY={self.boundary:g}"
        return (f"CALL OVERLAP_SHIFT({src},SHIFT={self.shift:+d},"
                f"DIM={self.dim}{extra})")


class If(Stmt):
    """Structured two-way branch on a scalar condition expression."""

    BLOCKS = ("then_body", "else_body")

    def __init__(self, cond: Expr, then_body: list[Stmt],
                 else_body: list[Stmt] | None = None) -> None:
        super().__init__()
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body or []

    def __str__(self) -> str:
        return f"IF ({self.cond}) THEN ... {'ELSE ...' if self.else_body else ''}ENDIF"


class DoLoop(Stmt):
    """A serial host ``DO`` loop (time stepping); body is block-structured."""

    BLOCKS = ("body",)

    def __init__(self, var: str, lo: LinExpr, hi: LinExpr,
                 body: list[Stmt]) -> None:
        super().__init__()
        self.var = var
        self.lo = lo
        self.hi = hi
        self.body = body

    def __str__(self) -> str:
        return f"DO {self.var} = {self.lo}, {self.hi} ... ENDDO"


class DoWhile(Stmt):
    """``DO WHILE (cond)`` — a convergence loop.

    The condition is a replicated scalar expression (typically comparing
    a reduction against a tolerance); shifts are not allowed inside it.
    """

    BLOCKS = ("body",)

    def __init__(self, cond: Expr, body: list[Stmt]) -> None:
        super().__init__()
        self.cond = cond
        self.body = body

    def __str__(self) -> str:
        return f"DO WHILE ({self.cond}) ... ENDDO"
