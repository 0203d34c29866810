"""Textual rendering of plans (``repro plan``'s default output).

Prints the generated SPMD program the way the paper's Figure 16
presents its final code: communication calls first-class, fused subgrid
loop nests with their statements and memory profile.  The format is
stable line-oriented text meant for humans and golden-output diffs; the
JSON serializer (:mod:`repro.plan.serialize`) is the machine format.
"""

from __future__ import annotations

from repro.plan.ops import (
    AllocOp, CondOp, FreeOp, FullShiftOp, LoopNestOp, OverlappedOp,
    OverlapShiftOp, Plan, PlanOp, ScalarAssignOp, SeqLoopOp, SwapOp,
    WhileOp,
)


def format_op(op: PlanOp, indent: int) -> list[str]:
    """Render one op (recursively) as indented text lines."""
    pad = "  " * indent
    if isinstance(op, OverlapShiftOp):
        rsd = f", rsd={op.rsd}" if op.rsd is not None and \
            not op.rsd.is_trivial else ""
        eos = f", boundary={op.boundary:g}" if op.boundary is not None \
            else ""
        base = ""
        if op.base_offsets and any(op.base_offsets):
            base = f"<{','.join(f'{o:+d}' for o in op.base_offsets)}>"
        return [f"{pad}overlap_shift {op.array}{base} "
                f"shift={op.shift:+d} dim={op.dim}{rsd}{eos}"]
    if isinstance(op, FullShiftOp):
        kind = "eoshift" if op.boundary is not None else "cshift"
        return [f"{pad}full_{kind} {op.dst} <- {op.src} "
                f"shift={op.shift:+d} dim={op.dim} "
                f"(buffered copy, both movement components)"]
    if isinstance(op, LoopNestOp):
        space = " x ".join(f"{lo}:{hi}" for lo, hi in op.space)
        tag = "fused " if op.fused else ""
        head = (f"{pad}{tag}subgrid loop nest over [{space}], "
                f"{len(op.statements)} statement(s)")
        lines = [head]
        for s in op.statements:
            lines.append(f"{pad}  {s}")
        st = op.stats
        lines.append(
            f"{pad}  per-point: {st.mem_loads:g} memory loads, "
            f"{st.cached_loads:g} cached, {st.stores:g} stores, "
            f"{st.flops:g} flops"
            + (f" (unroll-and-jam x{op.unroll_jam})" if op.memopt else ""))
        return lines
    if isinstance(op, AllocOp):
        return [f"{pad}allocate {', '.join(op.names)}"]
    if isinstance(op, FreeOp):
        return [f"{pad}deallocate {', '.join(op.names)}"]
    if isinstance(op, ScalarAssignOp):
        return [f"{pad}scalar {op.name} = {op.rhs}"]
    if isinstance(op, SwapOp):
        return [f"{pad}swap {op.a} <-> {op.b} (buffer exchange, no data "
                f"movement)"]
    if isinstance(op, SeqLoopOp):
        lines = [f"{pad}do {op.var} = {op.lo}, {op.hi}"]
        for inner in op.body:
            lines += format_op(inner, indent + 1)
        lines.append(f"{pad}end do")
        return lines
    if isinstance(op, WhileOp):
        lines = [f"{pad}do while ({op.cond})"]
        for inner in op.body:
            lines += format_op(inner, indent + 1)
        lines.append(f"{pad}end do")
        return lines
    if isinstance(op, OverlappedOp):
        lines = [f"{pad}overlap communication with interior computation:"]
        for inner in op.comm_ops:
            lines += format_op(inner, indent + 1)
        lines += format_op(op.nest, indent + 1)
        lines.append(f"{pad}  (interior computes while messages fly; "
                     f"boundary strips wait)")
        return lines
    if isinstance(op, CondOp):
        lines = [f"{pad}if ({op.cond})"]
        for inner in op.then_ops:
            lines += format_op(inner, indent + 1)
        if op.else_ops:
            lines.append(f"{pad}else")
            for inner in op.else_ops:
                lines += format_op(inner, indent + 1)
        lines.append(f"{pad}end if")
        return lines
    return [f"{pad}{type(op).__name__}"]


def plan_to_text(plan: Plan) -> str:
    """The generated SPMD program, annotated (Figure 16 style)."""
    lines = ["arrays:"]
    for decl in plan.arrays.values():
        halo = "x".join(f"({lo},{hi})" for lo, hi in decl.halo)
        tag = " [temporary]" if decl.is_temporary else ""
        lines.append(
            f"  {decl.name}: {'x'.join(map(str, decl.shape))} "
            f"{decl.dtype.name} dist{decl.distribution} "
            f"overlap={halo}{tag}")
    if plan.params:
        lines.append("parameters: " + ", ".join(
            f"{k}={v}" for k, v in plan.params.items()))
    if plan.outputs is not None:
        lines.append("outputs: " + ", ".join(plan.outputs))
    lines.append("program:")
    for op in plan.ops:
        lines += format_op(op, 1)
    return "\n".join(lines)
