"""Lower Plan-IR loop nests to fused, tiled scalar loop-nest source.

This is the §3.4 code-generation tier: where the vectorized backend
*models* the paper's memory optimizations (loop permutation, scalar
replacement, unroll-and-jam) in the cost report, this module *performs*
them, emitting one Python function per compute nest
(:mod:`repro.codegen.jit` runs it un-jitted; native code is
:mod:`repro.runtime.native`'s, under the shared tape).

The generated loops run over the same globally padded slab layout as
the ``vectorized`` backend (:class:`~repro.runtime.executor._Exec` with
``slab=True``) — one padded ndarray per distributed array, global
1-based index ``g`` at padded position ``g + base`` where
``base = halo_lo - 1`` — so a kernel is a drop-in replacement for the
executor's ``_eval_nest`` and everything else (charging,
communication, reductions) stays the executor's.

Transforms applied
------------------
* **Innermost-contiguous permutation** — loops are emitted outermost
  dimension first, so the last (C-contiguous) dimension is always the
  innermost loop.
* **Scalar replacement** — repeated offset reads of the same array cell
  load once into a local; with unroll-and-jam the jammed bodies share
  loads (the cross-row reuse of Figure 10's transformed code).
* **Tiling** — non-innermost loops block by a configurable factor.
* **Unroll-and-jam** — the second-innermost loop advances by the unroll
  factor with jammed bodies, plus a remainder loop.

Bitwise identity
----------------
Kernels must be *bit-identical* to slab execution, so lowering is
deliberately conservative: per-expression NEP-50 type inference tracks
whether a subexpression is a weak python float, a ``float32``, a strong
``float64``, or a bool, inserting ``np.float32`` conversions exactly
where NumPy's promotion would round; ``MIN``/``MAX`` expand to the
ufunc's exact NaN- and signed-zero-preserving selection formula; and any
construct whose native lowering could differ by a ulp from NumPy's SIMD
loops (``EXP``, ``LOG``, ``**``), or whose typing is ambiguous (mixed
``float32``/``float64`` arrays), makes that nest *fall back* to slab
execution instead of generating risky code.  Fallbacks are per-nest and
recorded in the manifest, never silent errors.

Statement fusion follows the slab semantics (statement-at-a-time over
the box): all statements fuse into one loop body when no statement reads
another statement's output at a nonzero offset; a statement reading its
*own* output at a nonzero offset snapshots the array first (the slab
path's implicit full-rhs temporary); otherwise the nest is *fissioned*
into one generated loop per statement, still native.

The output is one self-contained module string: a function per lowered
nest plus a ``MANIFEST`` literal describing argument order and fallback
reasons, so a cached source file on disk round-trips without re-running
the lowerer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ir.nodes import (
    BinOp, Compare, Const, Expr, Intrinsic, OffsetRef, ScalarRef, UnaryOp,
)
from repro.plan.ops import LoopNestOp, Plan

#: bump when generated code changes shape: participates in kernel keys
#: so stale on-disk kernel sources can never be revived
CODEGEN_VERSION = 1


class Fallback(Exception):
    """This nest cannot be lowered bitwise-safely; run it as slabs."""


@dataclass(frozen=True)
class LoweredNest:
    """Manifest entry for one nest (ordinal over ``plan.walk_ops()``)."""

    index: int
    label: str
    fn_name: str | None          # None => slab fallback
    arrays: tuple[str, ...]      # call-argument order
    scalars: tuple[str, ...]
    mode: str                    # "fused" | "fission" | "fallback"
    fallback_reason: str | None


@dataclass(frozen=True)
class LoweredPlan:
    source: str
    nests: tuple[LoweredNest, ...]


_HEADER = f'''\
# Generated by repro.codegen.lower (codegen version {CODEGEN_VERSION}).
# One function per Plan-IR loop nest; MANIFEST at the bottom describes
# call-argument order and per-nest fallbacks.  Do not edit.
import numpy as np

f32 = np.float32
'''

_CMP = {"<": "<", ">": ">", "<=": "<=", ">=": ">=", "==": "==",
        "/=": "!="}


def _dtype_cat(dtype: np.dtype) -> str:
    dtype = np.dtype(dtype)
    if dtype == np.float32:
        return "f32"
    if dtype == np.float64:
        return "f64"
    raise Fallback(f"unsupported array dtype {dtype}")


def _combine(a: str, b: str) -> str:
    """NEP-50 result category of a binary arithmetic op."""
    if a == b:
        if a == "bool":
            raise Fallback("boolean operand in arithmetic")
        return a
    if "bool" in (a, b):
        raise Fallback("boolean operand in arithmetic")
    if a == "weak":
        return b
    if b == "weak":
        return a
    raise Fallback("mixed float32/float64 arithmetic")


def _coerce(code: str, frm: str, to: str) -> str:
    """Make a value's runtime type match its inferred category.

    Only weak -> float32 needs a conversion (NumPy rounds the python
    float before the float32 ufunc runs); a weak python float already
    *is* an IEEE double, so weak -> f64 is the identity.
    """
    if frm != "weak" or to != "f32":
        return code
    return f"f32({code})"


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in name)


class _Body:
    """Accumulates one loop body: lines, temps, and the scalar-
    replacement caches (load CSE + current per-point values)."""

    def __init__(self, indent: int) -> None:
        self.lines: list[str] = []
        self.indent = indent
        self.n = 0
        #: (source var, absolute displacement) -> local temp
        self.loads: dict[tuple[str, tuple[int, ...]], str] = {}
        #: (array name, unroll instance) -> var holding the value the
        #: deferred store will write at that instance's point
        self.cur: dict[tuple[str, int], str] = {}

    def tmp(self) -> str:
        self.n += 1
        return f"v{self.n}"

    def emit(self, line: str, extra_indent: int = 0) -> None:
        self.lines.append(" " * (self.indent + extra_indent) + line)


class _NestLowerer:
    """Lowers one LoopNestOp to one generated function."""

    def __init__(self, plan: Plan, op: LoopNestOp, index: int,
                 tile: int, unroll: int) -> None:
        self.plan = plan
        self.op = op
        self.index = index
        self.rank = len(op.space)
        self.tile = tile
        self.unroll = unroll
        self.array_order: list[str] = []
        self.array_var: dict[str, str] = {}
        self.array_cat: dict[str, str] = {}
        self.scalar_order: list[str] = []
        self.scalar_var: dict[str, str] = {}
        self.assigned: set[str] = {s.lhs for s in op.statements}
        self.snapshots: set[str] = set()
        self.snap_var: dict[str, str] = {}
        self.fused = True

    # -- analysis ------------------------------------------------------------
    def _register_array(self, name: str) -> None:
        if name in self.array_var:
            return
        decl = self.plan.arrays.get(name)
        if decl is None:
            raise Fallback(f"array {name} not declared in the plan")
        if len(decl.shape) != self.rank:
            raise Fallback(
                f"array {name} rank {len(decl.shape)} != nest rank "
                f"{self.rank}")
        cat = _dtype_cat(decl.dtype)
        j = len(self.array_order)
        self.array_order.append(name)
        self.array_var[name] = f"a{j}_{_sanitize(name)}"
        self.array_cat[name] = cat

    def _register_scalar(self, name: str) -> str:
        var = self.scalar_var.get(name)
        if var is None:
            var = f"s{len(self.scalar_order)}_{_sanitize(name)}"
            self.scalar_order.append(name)
            self.scalar_var[name] = var
        return var

    def analyze(self) -> None:
        if self.rank == 0:
            raise Fallback("nest with empty iteration space")
        for stmt in self.op.statements:
            self._register_array(stmt.lhs)
            exprs = [stmt.rhs] + ([stmt.mask]
                                  if stmt.mask is not None else [])
            for expr in exprs:
                for node in expr.walk():
                    if isinstance(node, OffsetRef):
                        self._register_array(node.name)
                        if len(node.offsets) != self.rank:
                            raise Fallback(
                                f"offset rank mismatch on {node.name}")
                        if any(node.offsets) and node.name in self.assigned:
                            if node.name == stmt.lhs:
                                self.snapshots.add(node.name)
                            else:
                                self.fused = False
                    elif isinstance(node, ScalarRef):
                        self._register_scalar(node.name)
                    elif not isinstance(node, (BinOp, Compare, Const,
                                               Intrinsic, UnaryOp)):
                        raise Fallback(
                            f"unsupported expression node "
                            f"{type(node).__name__}")
        cats = set(self.array_cat.values())
        if len(cats) > 1:
            raise Fallback("mixed float32/float64 arrays in one nest")

    # -- expression emission -------------------------------------------------
    def _index_expr(self, name: str, disp: tuple[int, ...]) -> str:
        parts = []
        var = self.array_var[name]
        for d, off in enumerate(disp):
            term = f"i{d} + {var}_b{d}"
            if off > 0:
                term += f" + {off}"
            elif off < 0:
                term += f" - {-off}"
            parts.append(term)
        return ", ".join(parts)

    def _emit_load(self, body: _Body, name: str,
                   disp: tuple[int, ...], src: str) -> str:
        key = (src, disp)
        var = body.loads.get(key)
        if var is None:
            var = body.tmp()
            body.emit(f"{var} = {src}[{self._index_expr(name, disp)}]")
            body.loads[key] = var
        return var

    def _emit_expr(self, expr: Expr, body: _Body, k: int,
                   udim: int | None) -> tuple[str, str]:
        """Emit ``expr`` into ``body`` for unroll instance ``k``;
        returns ``(code, category)``."""
        if isinstance(expr, Const):
            value = float(expr.value)
            if not math.isfinite(value):
                raise Fallback(f"non-finite constant {value!r}")
            return repr(value), "weak"
        if isinstance(expr, ScalarRef):
            return self._register_scalar(expr.name), "weak"
        if isinstance(expr, OffsetRef):
            name = expr.name
            cat = self.array_cat[name]
            disp = tuple(off + (k if d == udim else 0)
                         for d, off in enumerate(expr.offsets))
            if not any(expr.offsets) and name in self.assigned:
                cur = body.cur.get((name, k))
                if cur is not None:
                    return cur, cat
            src = self.snap_var.get(name, self.array_var[name]) \
                if name in self.snapshots else self.array_var[name]
            return self._emit_load(body, name, disp, src), cat
        if isinstance(expr, BinOp):
            if expr.op == "**":
                raise Fallback(
                    "** lowers through libm pow; not bitwise-stable "
                    "under JIT")
            lc, lcat = self._emit_expr(expr.left, body, k, udim)
            rc, rcat = self._emit_expr(expr.right, body, k, udim)
            cat = _combine(lcat, rcat)
            return (f"({_coerce(lc, lcat, cat)} {expr.op} "
                    f"{_coerce(rc, rcat, cat)})", cat)
        if isinstance(expr, UnaryOp):
            code, cat = self._emit_expr(expr.operand, body, k, udim)
            if cat == "bool":
                raise Fallback("unary minus on a boolean")
            return f"(-{code})", cat
        if isinstance(expr, Compare):
            lc, lcat = self._emit_expr(expr.left, body, k, udim)
            rc, rcat = self._emit_expr(expr.right, body, k, udim)
            if not (lcat == rcat == "bool"):
                cat = _combine(lcat, rcat)
                lc = _coerce(lc, lcat, cat)
                rc = _coerce(rc, rcat, cat)
            return f"({lc} {_CMP[expr.op]} {rc})", "bool"
        if isinstance(expr, Intrinsic):
            return self._emit_intrinsic(expr, body, k, udim)
        raise Fallback(f"unsupported expression {type(expr).__name__}")

    def _emit_intrinsic(self, expr: Intrinsic, body: _Body, k: int,
                        udim: int | None) -> tuple[str, str]:
        if expr.name in ("EXP", "LOG"):
            raise Fallback(
                f"{expr.name} lowers through libm; not bitwise-stable "
                f"under JIT")
        if expr.name in ("ABS", "SQRT"):
            code, cat = self._emit_expr(expr.args[0], body, k, udim)
            if cat == "bool":
                raise Fallback(f"{expr.name} of a boolean")
            if cat == "weak":
                # NumPy intrinsics of python floats return *strong*
                # np.float64, which would then drag float32 arithmetic
                # up to double — track that so f32 contexts fall back.
                cat = "f64"
            fn = "abs" if expr.name == "ABS" else "np.sqrt"
            return f"{fn}({code})", cat
        # MIN/MAX: fold pairwise left-to-right exactly like
        # apply_intrinsic, expanding each np.minimum/np.maximum to the
        # ufunc's selection formula (NaN- and signed-zero-exact):
        #   minimum(a, b) = a if (a < b or a != a) else b
        #   maximum(a, b) = a if (a > b or a != a) else b
        rel = "<" if expr.name == "MIN" else ">"
        acc_code, acc_cat = self._emit_expr(expr.args[0], body, k, udim)
        for arg in expr.args[1:]:
            bc, bcat = self._emit_expr(arg, body, k, udim)
            if "bool" in (acc_cat, bcat):
                raise Fallback(f"{expr.name} of a boolean")
            cat = _combine(acc_cat, bcat)
            if cat == "weak":
                # np.minimum(float, float) returns strong np.float64
                cat = "f64"
            ta = _coerce(acc_code, acc_cat, cat)
            tb = _coerce(bc, bcat, cat)
            if not ta.isidentifier():
                var = body.tmp()
                body.emit(f"{var} = {ta}")
                ta = var
            if not tb.isidentifier():
                var = body.tmp()
                body.emit(f"{var} = {tb}")
                tb = var
            out = body.tmp()
            body.emit(f"{out} = {ta} if ({ta} {rel} {tb} or "
                      f"{ta} != {ta}) else {tb}")
            acc_code, acc_cat = out, cat
        return acc_code, acc_cat

    # -- statement / body emission -------------------------------------------
    def _store_coerce(self, code: str, cat: str, lhs: str) -> str:
        """Round a value exactly as the ndarray store would."""
        if cat == "bool":
            raise Fallback("boolean rhs assigned to a float array")
        if self.array_cat[lhs] == "f32" and cat != "f32":
            return f"f32({code})"
        return code

    def _emit_stmt(self, stmt, body: _Body, k: int,
                   udim: int | None) -> None:
        lhs = stmt.lhs
        if stmt.mask is not None:
            cur = body.cur.get((lhs, k))
            if cur is None:
                # unmasked points keep their prior value: seed the
                # deferred store with the live cell
                disp = tuple(k if d == udim else 0
                             for d in range(self.rank))
                cur = body.tmp()
                body.emit(f"{cur} = {self.array_var[lhs]}"
                          f"[{self._index_expr(lhs, disp)}]")
                body.cur[(lhs, k)] = cur
            value, vcat = self._emit_expr(stmt.rhs, body, k, udim)
            mask, _ = self._emit_expr(stmt.mask, body, k, udim)
            body.emit(f"if {mask} != 0:")
            body.emit(f"{cur} = {self._store_coerce(value, vcat, lhs)}",
                      extra_indent=4)
        else:
            value, vcat = self._emit_expr(stmt.rhs, body, k, udim)
            cur = body.tmp()
            body.emit(f"{cur} = {self._store_coerce(value, vcat, lhs)}")
            body.cur[(lhs, k)] = cur

    def _emit_body(self, stmts, indent: int, ks,
                   udim: int | None) -> list[str]:
        body = _Body(indent)
        for k in ks:
            for stmt in stmts:
                self._emit_stmt(stmt, body, k, udim)
        for (name, k), var in body.cur.items():
            disp = tuple(k if d == udim else 0 for d in range(self.rank))
            body.emit(f"{self.array_var[name]}"
                      f"[{self._index_expr(name, disp)}] = {var}")
        return body.lines

    # -- loop emission -------------------------------------------------------
    def _emit_group(self, stmts, unroll: int) -> list[str]:
        """One loop nest (§3.4 order: dim 0 outermost, last dim
        innermost-contiguous), tiled and unroll-and-jammed."""
        r = self.rank
        tile = self.tile
        lines: list[str] = []
        indent = 4
        tiled = list(range(r - 1)) if tile > 0 else []
        udim = r - 2 if (r >= 2 and unroll > 1) else None

        ranges: dict[int, tuple[str, str]] = {}
        for d in range(r):
            ranges[d] = (f"lo{d}", f"hi{d}")
        for d in tiled:
            pad = " " * indent
            lines.append(f"{pad}for t{d} in range(lo{d}, hi{d} + 1, "
                         f"{tile}):")
            indent += 4
            pad = " " * indent
            lines.append(f"{pad}e{d} = min(t{d} + {tile - 1}, hi{d})")
            ranges[d] = (f"t{d}", f"e{d}")

        def point_loops(d: int, indent: int, ks) -> None:
            pad = " " * indent
            if d == r:
                lines.extend(self._emit_body(stmts, indent, ks, udim))
                return
            lo, hi = ranges[d]
            if d == udim and len(ks) == 1 and ks[0] is None:
                # the unrolled dimension: a jammed main loop advancing
                # by the factor, plus a remainder loop
                lines.append(f"{pad}u_n = {hi} - {lo} + 1")
                lines.append(f"{pad}u_end = {lo} + "
                             f"(u_n // {unroll}) * {unroll}")
                lines.append(f"{pad}for i{d} in range({lo}, u_end, "
                             f"{unroll}):")
                point_loops(d + 1, indent + 4, list(range(unroll)))
                lines.append(f"{pad}for i{d} in range(u_end, {hi} + 1):")
                point_loops(d + 1, indent + 4, [0])
            else:
                lines.append(f"{pad}for i{d} in range({lo}, {hi} + 1):")
                point_loops(d + 1, indent + 4, ks)

        point_loops(0, indent, [None] if udim is not None else [0])
        return lines

    def lower(self) -> tuple[str, LoweredNest]:
        self.analyze()
        unroll = max(1, self.unroll)
        mode = "fused" if self.fused else "fission"
        groups = [list(self.op.statements)] if self.fused \
            else [[s] for s in self.op.statements]

        # emitting bodies registers scalars lazily, so build the body
        # text first and the signature afterwards
        body_lines: list[str] = []
        for name in sorted(self.snapshots):
            self.snap_var[name] = f"snap_{self.array_var[name]}"
        for name in sorted(self.snapshots):
            body_lines.append(f"    {self.snap_var[name]} = "
                              f"{self.array_var[name]}.copy()")
        for group in groups:
            body_lines.extend(self._emit_group(group, unroll))

        params: list[str] = []
        for name in self.array_order:
            var = self.array_var[name]
            params.append(var)
            params.extend(f"{var}_b{d}" for d in range(self.rank))
        params.extend(self.scalar_var[n] for n in self.scalar_order)
        for d in range(self.rank):
            params.extend((f"lo{d}", f"hi{d}"))

        fn_name = f"nest{self.index}"
        header = [f"def {fn_name}({', '.join(params)}):"]
        label = self.op.label or "loop_nest"
        header.insert(0, f"# nest {self.index} ({label}): "
                         f"{len(self.op.statements)} statement(s), "
                         f"mode={mode}, unroll={unroll}, "
                         f"tile={self.tile or 'off'}")
        for stmt in self.op.statements:
            header.insert(len(header) - 1, f"#   {stmt}")
        source = "\n".join(header + body_lines)
        nest = LoweredNest(
            index=self.index, label=self.op.label, fn_name=fn_name,
            arrays=tuple(self.array_order),
            scalars=tuple(self.scalar_order),
            mode=mode, fallback_reason=None)
        return source, nest


def plan_nests(plan: Plan) -> list[LoopNestOp]:
    """Every loop nest of a plan in deterministic pre-order — the
    ordinal both the manifest and the executor key kernels by."""
    return [op for op in plan.walk_ops() if isinstance(op, LoopNestOp)]


def lower_plan(plan: Plan, options) -> LoweredPlan:
    """Lower every nest of ``plan`` under ``options`` (a
    :class:`~repro.codegen.options.CodegenOptions`)."""
    opts = options.validated()
    chunks = [_HEADER]
    nests: list[LoweredNest] = []
    for index, op in enumerate(plan_nests(plan)):
        unroll = opts.unroll or op.unroll_jam or 1
        try:
            src, nest = _NestLowerer(plan, op, index, opts.tile,
                                     unroll).lower()
            chunks.append(src)
        except Fallback as fb:
            nest = LoweredNest(index=index, label=op.label, fn_name=None,
                               arrays=(), scalars=(), mode="fallback",
                               fallback_reason=str(fb))
            chunks.append(f"# nest {index}: slab fallback — {fb}")
        nests.append(nest)
    chunks.append(_manifest_literal(opts, nests))
    return LoweredPlan(source="\n\n".join(chunks) + "\n",
                       nests=tuple(nests))


def _manifest_literal(opts, nests: list[LoweredNest]) -> str:
    manifest = {
        "version": CODEGEN_VERSION,
        "factors": {"tile": opts.tile, "unroll": opts.unroll},
        "nests": [
            {"index": n.index, "label": n.label, "fn": n.fn_name,
             "arrays": list(n.arrays), "scalars": list(n.scalars),
             "mode": n.mode, "fallback": n.fallback_reason}
            for n in nests
        ],
    }
    return f"MANIFEST = {manifest!r}"


def manifest_nests(manifest: dict) -> tuple[LoweredNest, ...]:
    """Rebuild the :class:`LoweredNest` tuple from an exec'd module's
    ``MANIFEST`` (the disk-cache round-trip)."""
    return tuple(
        LoweredNest(index=e["index"], label=e["label"], fn_name=e["fn"],
                    arrays=tuple(e["arrays"]),
                    scalars=tuple(e["scalars"]), mode=e["mode"],
                    fallback_reason=e["fallback"])
        for e in manifest["nests"])
