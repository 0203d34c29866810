"""Serial NumPy reference semantics for IR programs.

:func:`evaluate` runs a program (in *any* pipeline stage: source-level,
normalized, offset-transformed, ...) on plain NumPy arrays, giving the
oracle every optimization level's distributed execution is checked
against.

Semantics notes
---------------
* ``CSHIFT(a, s, d)`` is ``np.roll(a, -s, axis=d-1)`` (Fortran:
  ``result(i) = a(i + s)`` circularly).
* An offset reference ``U<o>`` denotes ``U`` displaced by ``o`` — for a
  *valid* transformed program (the offset-array criteria forbid
  intervening destructive updates) this equals rolling the current value
  of ``U``, so ``OVERLAP_SHIFT`` statements are no-ops here.  The
  distributed executor implements real overlap-area snapshots; comparing
  it against this oracle is exactly the semantics-preservation check.
* Sections are 1-based inclusive; ``A(2:N-1, ...)`` maps to
  ``a[1:N-1, ...]`` in NumPy.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ExecutionError, SemanticError
from repro.ir.linexpr import LinExpr
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, BinOp, Compare, Const, CShift,
    Deallocate, DoLoop, EOShift, Expr, If, Intrinsic, OffsetRef,
    OverlapShift, Reduction, ScalarAssign, ScalarRef, Stmt, Triplet,
    UnaryOp,
)
from repro.ir.nodes import DoWhile
from repro.ir.program import Program


class ReferenceEnv:
    """Mutable evaluation environment: arrays, scalars, size params."""

    def __init__(self, program: Program,
                 inputs: Mapping[str, np.ndarray] | None = None,
                 scalars: Mapping[str, float] | None = None) -> None:
        self.program = program
        self.params = dict(program.symbols.params)
        self.scalars: dict[str, float] = {}
        for name in program.symbols.scalars:
            self.scalars[name] = 0.0
        if scalars:
            for k, v in scalars.items():
                self.scalars[k.upper()] = float(v)
        self.arrays: dict[str, np.ndarray] = {}
        inputs = inputs or {}
        for name, sym in program.symbols.arrays.items():
            if name in {k.upper() for k in inputs}:
                src = next(v for k, v in inputs.items()
                           if k.upper() == name)
                if tuple(src.shape) != sym.type.shape:
                    raise ExecutionError(
                        f"input {name}: shape {src.shape} != declared "
                        f"{sym.type.shape}")
                self.arrays[name] = np.array(src, dtype=sym.type.dtype)
            else:
                self.arrays[name] = np.zeros(sym.type.shape,
                                             dtype=sym.type.dtype)

    # -- helpers -------------------------------------------------------------
    def bounds(self, e: LinExpr) -> int:
        binding = dict(self.params)
        for k, v in self.scalars.items():
            if float(v).is_integer():
                binding[k] = int(v)
        return e.evaluate(binding)

    def section_slices(self, section: tuple[Triplet, ...]) -> tuple[slice, ...]:
        return tuple(slice(self.bounds(t.lo) - 1, self.bounds(t.hi))
                     for t in section)

    def scalar_value(self, name: str) -> float:
        if name in self.params:
            return float(self.params[name])
        if name in self.scalars:
            return self.scalars[name]
        raise ExecutionError(f"unbound scalar {name}")


def _roll(a: np.ndarray, shift: int, dim: int) -> np.ndarray:
    return np.roll(a, -shift, axis=dim - 1)


def real_pow(base, exponent):
    """``base ** exponent`` in real arithmetic, for the reference and
    every backend.  Python's ``float.__pow__`` answers a negative base
    to a fractional exponent with a ``complex``; real arithmetic must
    stay real, so that case is NaN, as NumPy's real ``power`` gives for
    arrays.  Every other value is the operator's own."""
    result = base ** exponent
    return float("nan") if isinstance(result, complex) else result


def apply_intrinsic(name: str, args: list) -> "np.ndarray | float":
    """Evaluate an elementwise intrinsic on NumPy values."""
    if name == "ABS":
        return np.abs(args[0])
    if name == "SQRT":
        return np.sqrt(args[0])
    if name == "EXP":
        return np.exp(args[0])
    if name == "LOG":
        return np.log(args[0])
    if name == "MIN":
        out = args[0]
        for a in args[1:]:
            out = np.minimum(out, a)
        return out
    if name == "MAX":
        out = args[0]
        for a in args[1:]:
            out = np.maximum(out, a)
        return out
    raise SemanticError(f"unknown intrinsic {name}")


def _eoshift(a: np.ndarray, shift: int, dim: int,
             boundary: float) -> np.ndarray:
    out = np.full_like(a, boundary)
    axis = dim - 1
    n = a.shape[axis]
    if abs(shift) >= n:
        return out
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if shift > 0:
        dst[axis] = slice(0, n - shift)
        src[axis] = slice(shift, n)
    else:
        dst[axis] = slice(-shift, n)
        src[axis] = slice(0, n + shift)
    out[tuple(dst)] = a[tuple(src)]
    return out


def eval_expr(expr: Expr, env: ReferenceEnv) -> np.ndarray | float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ScalarRef):
        return env.scalar_value(expr.name)
    if isinstance(expr, ArrayRef):
        a = env.arrays.get(expr.name)
        if a is None:
            raise ExecutionError(f"undefined array {expr.name}")
        if expr.section is None:
            return a
        return a[env.section_slices(expr.section)]
    if isinstance(expr, OffsetRef):
        a = env.arrays.get(expr.name)
        if a is None:
            raise ExecutionError(f"undefined array {expr.name}")
        out = a
        for d, off in enumerate(expr.offsets, start=1):
            if off:
                if expr.boundary is None:
                    out = _roll(out, off, d)
                else:
                    out = _eoshift(out, off, d, expr.boundary)
        return out
    if isinstance(expr, CShift):
        return _roll(np.asarray(eval_expr(expr.array, env)),
                     expr.shift, expr.dim)
    if isinstance(expr, EOShift):
        return _eoshift(np.asarray(eval_expr(expr.array, env)),
                        expr.shift, expr.dim, expr.boundary)
    if isinstance(expr, UnaryOp):
        return -eval_expr(expr.operand, env)  # type: ignore[operator]
    if isinstance(expr, BinOp):
        lv = eval_expr(expr.left, env)
        rv = eval_expr(expr.right, env)
        if expr.op == "+":
            return lv + rv  # type: ignore[operator]
        if expr.op == "-":
            return lv - rv  # type: ignore[operator]
        if expr.op == "*":
            return lv * rv  # type: ignore[operator]
        if expr.op == "/":
            return lv / rv  # type: ignore[operator]
        if expr.op == "**":
            return real_pow(lv, rv)
    if isinstance(expr, Intrinsic):
        args = [eval_expr(a, env) for a in expr.args]
        return apply_intrinsic(expr.name, args)
    if isinstance(expr, Reduction):
        value = np.asarray(eval_expr(expr.arg, env))
        return float({"SUM": np.sum, "MAXVAL": np.max,
                      "MINVAL": np.min}[expr.op](value))
    if isinstance(expr, Compare):
        lv = eval_expr(expr.left, env)
        rv = eval_expr(expr.right, env)
        return {"<": lv < rv, ">": lv > rv, "<=": lv <= rv,
                ">=": lv >= rv, "==": lv == rv, "/=": lv != rv}[expr.op]
    raise SemanticError(f"cannot evaluate {type(expr).__name__}")


def exec_stmt(stmt: Stmt, env: ReferenceEnv) -> None:
    if isinstance(stmt, ArrayAssign):
        value = eval_expr(stmt.rhs, env)
        target = env.arrays[stmt.lhs.name]
        slices = (Ellipsis if stmt.lhs.section is None
                  else env.section_slices(stmt.lhs.section))
        if stmt.mask is None:
            target[slices] = value
        else:
            mask = np.asarray(eval_expr(stmt.mask, env), dtype=bool)
            target[slices] = np.where(mask, value, target[slices])
    elif isinstance(stmt, ScalarAssign):
        env.scalars[stmt.name] = float(eval_expr(stmt.rhs, env))  # type: ignore[arg-type]
    elif isinstance(stmt, OverlapShift):
        pass  # pure data movement; offset refs read current values here
    elif isinstance(stmt, Allocate):
        for name in stmt.names:
            sym = env.program.symbols.array(name)
            env.arrays[name] = np.zeros(sym.type.shape,
                                        dtype=sym.type.dtype)
    elif isinstance(stmt, Deallocate):
        for name in stmt.names:
            env.arrays.pop(name, None)
            sym = env.program.symbols.array(name)
            env.arrays[name] = np.zeros(sym.type.shape,
                                        dtype=sym.type.dtype)
    elif isinstance(stmt, If):
        cond = eval_expr(stmt.cond, env)
        body = stmt.then_body if bool(cond) else stmt.else_body
        for s in body:
            exec_stmt(s, env)
    elif isinstance(stmt, DoLoop):
        lo = env.bounds(stmt.lo)
        hi = env.bounds(stmt.hi)
        for k in range(lo, hi + 1):
            env.scalars[stmt.var] = float(k)
            for s in stmt.body:
                exec_stmt(s, env)
    elif isinstance(stmt, DoWhile):
        guard = 0
        while bool(eval_expr(stmt.cond, env)):
            for s in stmt.body:
                exec_stmt(s, env)
            guard += 1
            if guard > 1_000_000:
                raise ExecutionError(
                    "DO WHILE exceeded 1e6 iterations")
    else:
        raise SemanticError(f"cannot execute {type(stmt).__name__}")


def evaluate(program: Program,
             inputs: Mapping[str, np.ndarray] | None = None,
             scalars: Mapping[str, float] | None = None) -> dict[str, np.ndarray]:
    """Run ``program`` serially; returns the final value of every array."""
    env = ReferenceEnv(program, inputs, scalars)
    for stmt in program.body:
        exec_stmt(stmt, env)
    return dict(env.arrays)
