"""Normalization into the paper's intermediate form (section 2.1).

After this pass:

* every ``CSHIFT``/``EOSHIFT`` occurs as a *singleton* operation on the
  right-hand side of a whole-array assignment to a (possibly pooled)
  compiler temporary;
* array-syntax stencil operands — section references at a constant
  offset from the LHS section — have been converted into shifts of whole
  arrays plus aligned section references of the temporaries, exactly the
  CM-Fortran translation the paper shows in Figure 4;
* every remaining computation operand is perfectly aligned with the
  statement's iteration space.

Temporary policy reproduces the storage behaviour the paper measures in
Figure 11: one fresh temporary per *simultaneously live* shift (all the
shifts of one statement are live together, so the single-statement
9-point stencil needs 12 temporaries) with pooled reuse across
statements (Problem 9's six hoisted shifts share one temporary, Figure
12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnsupportedFeatureError
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, BinOp, Compare, Const, CShift,
    Deallocate, EOShift, Expr, Intrinsic, OffsetRef, Reduction,
    ScalarAssign, ScalarRef, Stmt, UnaryOp, section_offsets,
)
from repro.ir.program import Program, map_runs
from repro.ir.symbols import ArraySymbol, SymbolTable
from repro.passes.pass_manager import Pass


@dataclass
class _TempPool:
    """Pooled compiler temporaries: reused across statements when their
    live ranges do not overlap (paper section 4, 12-vs-3 temporaries)."""

    symbols: SymbolTable
    pooled: bool = True
    free: dict[tuple, list[str]] = field(default_factory=dict)
    all_names: list[str] = field(default_factory=list)

    def acquire(self, like: ArraySymbol) -> str:
        key = (like.type, like.distribution)
        bucket = self.free.setdefault(key, [])
        if self.pooled and bucket:
            return bucket.pop()
        sym = self.symbols.new_temp(like)
        self.all_names.append(sym.name)
        return sym.name

    def release(self, name: str) -> None:
        sym = self.symbols.array(name)
        self.free.setdefault((sym.type, sym.distribution), []).append(name)


class NormalizePass(Pass):
    """Hoist shifts and de-offset array-syntax sections."""

    name = "normalize"

    def __init__(self, pooled_temps: bool = True,
                 cse: bool = False) -> None:
        """``cse`` enables common-subexpression elimination of identical
        shifts within one statement — the hand transformation the paper
        credits Problem 9's author with ("removing four duplicate CSHIFTs
        from the original specification", section 4): the 12 shifts of
        the single-statement 9-point stencil drop to 8.  On from ``O5``;
        the paper's levels and the naive baseline model CSE-less
        compilers faithfully."""
        self.pooled_temps = pooled_temps
        self.cse = cse

    def run(self, program: Program) -> None:
        pool = _TempPool(program.symbols, pooled=self.pooled_temps)
        program.body = map_runs(program.body, lambda run: [
            new for stmt in run
            for new in self._normalize_stmt(program, stmt, pool)])
        if pool.all_names:
            program.body.insert(0, Allocate(pool.all_names))
            program.body.append(Deallocate(pool.all_names))

    # -- statement walk --------------------------------------------------------
    def _normalize_stmt(self, program: Program, stmt: Stmt,
                        pool: _TempPool) -> list[Stmt]:
        if isinstance(stmt, ArrayAssign):
            return self._normalize_assign(program, stmt, pool)
        if isinstance(stmt, ScalarAssign):
            return self._normalize_scalar_assign(program, stmt, pool)
        return [stmt]

    @staticmethod
    def _is_singleton_shift(stmt: ArrayAssign) -> bool:
        """Already in normal form: a whole-array ``DST = CSHIFT(SRC,s,d)``
        with a whole-array operand (like Problem 9's RIP/RIN assigns)."""
        return (isinstance(stmt.rhs, (CShift, EOShift))
                and stmt.lhs.section is None
                and isinstance(stmt.rhs.array, ArrayRef)
                and stmt.rhs.array.section is None)

    def _normalize_assign(self, program: Program, stmt: ArrayAssign,
                          pool: _TempPool) -> list[Stmt]:
        if self._is_singleton_shift(stmt):
            return [stmt]
        hoisted: list[Stmt] = []
        live_temps: list[str] = []
        self._cse_table: dict[tuple, str] = {}
        sec = stmt.lhs.section
        rhs = self._rewrite(program, stmt.rhs, sec, hoisted, live_temps,
                            pool)
        mask = stmt.mask
        if mask is not None:
            mask = self._rewrite(program, mask, sec, hoisted, live_temps,
                                 pool)
        new_stmt = ArrayAssign(stmt.lhs, rhs, mask)
        for name in live_temps:
            pool.release(name)
        return hoisted + [new_stmt]

    def _normalize_scalar_assign(self, program: Program,
                                 stmt: ScalarAssign,
                                 pool: _TempPool) -> list[Stmt]:
        """Hoist shifts inside reduction operands: ``S = SUM(CSHIFT(..))``
        becomes a singleton shift plus ``S = SUM(TMP)``."""
        hoisted: list[Stmt] = []
        live_temps: list[str] = []
        self._cse_table = {}
        stmt.rhs = self._rewrite(program, stmt.rhs, None, hoisted,
                                 live_temps, pool)
        for name in live_temps:
            pool.release(name)
        return hoisted + [stmt]

    # -- expression rewriting ---------------------------------------------------
    def _rewrite(self, program: Program, expr: Expr, lhs_section,
                 hoisted: list[Stmt], live: list[str],
                 pool: _TempPool) -> Expr:
        if isinstance(expr, (Const, ScalarRef, OffsetRef)):
            return expr
        if isinstance(expr, ArrayRef):
            return self._rewrite_ref(program, expr, lhs_section, hoisted,
                                     live, pool)
        if isinstance(expr, (CShift, EOShift)):
            ref = self._hoist_shift(program, expr, hoisted, live, pool)
            # the temporary is referenced aligned with the LHS section
            return ArrayRef(ref.name, lhs_section)
        if isinstance(expr, BinOp):
            return BinOp(expr.op,
                         self._rewrite(program, expr.left, lhs_section,
                                       hoisted, live, pool),
                         self._rewrite(program, expr.right, lhs_section,
                                       hoisted, live, pool))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op,
                           self._rewrite(program, expr.operand,
                                         lhs_section, hoisted, live, pool))
        if isinstance(expr, Intrinsic):
            return Intrinsic(expr.name, tuple(
                self._rewrite(program, a, lhs_section, hoisted, live, pool)
                for a in expr.args))
        if isinstance(expr, Reduction):
            # the reduction operand iterates the whole array space
            return Reduction(expr.op,
                             self._rewrite(program, expr.arg, None,
                                           hoisted, live, pool))
        if isinstance(expr, Compare):
            return Compare(expr.op,
                           self._rewrite(program, expr.left, lhs_section,
                                         hoisted, live, pool),
                           self._rewrite(program, expr.right, lhs_section,
                                         hoisted, live, pool))
        raise UnsupportedFeatureError(
            f"cannot normalize {type(expr).__name__}")

    def _rewrite_ref(self, program: Program, ref: ArrayRef,
                     lhs_sec, hoisted: list[Stmt],
                     live: list[str], pool: _TempPool) -> Expr:
        """Turn an unaligned section reference into a shift of the whole
        array plus an aligned reference (Figure 1 -> Figure 4)."""
        if ref.section is None or lhs_sec is None:
            if ref.section is None and lhs_sec is not None:
                raise UnsupportedFeatureError(
                    f"whole-array operand {ref.name} in a sectioned "
                    f"assignment is not conformable")
            if ref.section is not None and lhs_sec is None:
                raise UnsupportedFeatureError(
                    f"sectioned operand {ref} in a whole-array context "
                    f"is not conformable")
            return ref
        offsets = section_offsets(ref.section, lhs_sec)
        if offsets is None:
            raise UnsupportedFeatureError(
                f"section {ref} is not a constant offset of the LHS "
                f"section; general section communication is "
                f"outside the stencil subset")
        if all(o == 0 for o in offsets):
            return ArrayRef(ref.name, lhs_sec)
        # reading SRC(i + o) means TMP(i) = SRC(i + o) = CSHIFT(SRC, o_d, d)
        # chained over the nonzero dimensions
        inner: Expr = ArrayRef(ref.name)
        for d, o in enumerate(offsets):
            if o:
                inner = CShift(inner, o, d + 1)
        tmp_ref = self._hoist_shift(program, inner, hoisted, live, pool)
        assert isinstance(tmp_ref, ArrayRef)
        return ArrayRef(tmp_ref.name, lhs_sec)

    def _hoist_shift(self, program: Program, expr: Expr,
                     hoisted: list[Stmt],
                     live: list[str], pool: _TempPool) -> ArrayRef:
        """Hoist (possibly nested) shifts into singleton assignments.

        Returns the aligned reference replacing the shift expression."""
        assert isinstance(expr, (CShift, EOShift))
        operand = expr.array
        if isinstance(operand, (CShift, EOShift)):
            operand = self._hoist_shift(program, operand, hoisted,
                                        live, pool)
        if isinstance(operand, ArrayRef) and operand.section is not None:
            raise UnsupportedFeatureError(
                "CSHIFT of an array section is outside the normal form; "
                "shift the whole array instead")
        if not isinstance(operand, ArrayRef):
            raise UnsupportedFeatureError(
                f"CSHIFT of a {type(operand).__name__} expression is not "
                f"supported; assign it to an array first")
        if isinstance(expr, CShift):
            key = (operand.name, expr.shift, expr.dim, None)
        else:
            key = (operand.name, expr.shift, expr.dim, expr.boundary)
        if self.cse and key in self._cse_table:
            # the identical shift was already hoisted for an earlier
            # term of this statement; reuse its (still live) temporary
            return ArrayRef(self._cse_table[key])
        src = program.symbols.array(operand.name)
        tmp = pool.acquire(src)
        live.append(tmp)
        if isinstance(expr, CShift):
            shifted: Expr = CShift(ArrayRef(operand.name), expr.shift,
                                   expr.dim)
        else:
            shifted = EOShift(ArrayRef(operand.name), expr.shift, expr.dim,
                              expr.boundary)
        hoisted.append(ArrayAssign(ArrayRef(tmp), shifted))
        if self.cse:
            self._cse_table[key] = tmp
        return ArrayRef(tmp)


def is_normal_form(program: Program) -> bool:
    """Check the three normal-form properties of paper section 2.1."""
    for stmt in program.leaf_statements():
        if not isinstance(stmt, ArrayAssign):
            continue
        rhs = stmt.rhs
        if isinstance(rhs, (CShift, EOShift)):
            # singleton whole-array shift
            if stmt.lhs.section is not None:
                return False
            if not (isinstance(rhs.array, ArrayRef)
                    and rhs.array.section is None):
                return False
            continue
        # computation statement: no shifts below the top, aligned operands
        for node in rhs.walk():
            if isinstance(node, (CShift, EOShift)):
                return False
            if isinstance(node, ArrayRef) and node.section is not None:
                if stmt.lhs.section is None or \
                        section_offsets(node.section,
                                        stmt.lhs.section) != tuple(
                                            0 for _ in node.section):
                    return False
    return True
