"""Elementwise intrinsics and exponentiation in stencil statements.

Supports the paper's point that the optimizations "benefit those
computations that only slightly resemble stencils" — no pattern is
matched, so arbitrary elementwise structure rides along.
"""

import numpy as np
import pytest

from repro.compiler import compile_hpf
from repro.errors import SemanticError
from repro.frontend import parse_program
from repro.ir.nodes import Intrinsic
from repro.machine import Machine
from repro.runtime.reference import evaluate


def grid(n=16, seed=0):
    return np.abs(np.random.default_rng(seed).standard_normal(
        (n, n))).astype(np.float32) + 0.5


def check(src, out, inputs, levels=("O0", "O2", "O4")):
    ref = evaluate(parse_program(src, bindings={"N": 16}),
                   inputs=inputs)[out]
    for level in levels:
        cp = compile_hpf(src, bindings={"N": 16}, level=level,
                         outputs={out})
        res = cp.run(Machine(grid=(2, 2)), inputs=inputs)
        np.testing.assert_allclose(res.arrays[out], ref, rtol=1e-5,
                                   err_msg=level)
    return cp


class TestParsing:
    def test_intrinsic_node(self):
        p = parse_program("REAL A(4), B(4)\nA = SQRT(ABS(B))")
        rhs = p.body[0].rhs
        assert isinstance(rhs, Intrinsic) and rhs.name == "SQRT"
        assert isinstance(rhs.args[0], Intrinsic)

    def test_min_max_variadic(self):
        p = parse_program("REAL A(4), B(4), C(4)\nA = MAX(B, C, 0.0)")
        assert len(p.body[0].rhs.args) == 3

    def test_min_needs_two_args(self):
        with pytest.raises(SemanticError):
            parse_program("REAL A(4), B(4)\nA = MIN(B)")

    def test_power_operator(self):
        p = parse_program("X = 2 ** 3 ** 2")  # right associative
        assert str(p.body[0].rhs) == "2 ** 3 ** 2"

    def test_power_precedence(self):
        p = parse_program("X = 2 * 3 ** 2")
        rhs = p.body[0].rhs
        assert rhs.op == "*" and rhs.right.op == "**"


class TestPipeline:
    def test_gradient_magnitude(self):
        # |grad|^2 via squared central differences — stencil + ** + SQRT
        src = """
        REAL G(16,16), U(16,16)
        G = SQRT( (CSHIFT(U,1,1) - CSHIFT(U,-1,1)) ** 2
     &          + (CSHIFT(U,1,2) - CSHIFT(U,-1,2)) ** 2 )
        """
        cp = check(src, "G", {"U": grid()})
        assert cp.report.overlap_shifts == 4  # still minimal comm

    def test_flux_limiter_min_max(self):
        src = """
        REAL L(16,16), U(16,16)
        L = MAX(0.0, MIN(1.0, CSHIFT(U,1,1) - U))
        """
        check(src, "L", {"U": grid(seed=1)})

    def test_exponential_decay(self):
        src = """
        REAL D(16,16), U(16,16)
        D = EXP(-(ABS(U))) * CSHIFT(U,1,2)
        """
        check(src, "D", {"U": grid(seed=2)})

    def test_log_residual(self):
        src = """
        REAL R(16,16), U(16,16)
        R = LOG(ABS(U) + 1.0) + CSHIFT(U,-1,1)
        """
        check(src, "R", {"U": grid(seed=3)})

    def test_intrinsics_fuse(self):
        src = """
        REAL A(16,16), B(16,16), U(16,16)
        A = ABS(CSHIFT(U,1,1))
        B = A + SQRT(ABS(U))
        """
        cp = compile_hpf(src, bindings={"N": 16}, level="O4",
                         outputs={"A", "B"})
        assert cp.report.loop_nests == 1

    def test_flops_weighted(self):
        from repro.passes.memopt import analyze_nest, profile_nest
        from repro.plan import NestStmt
        from repro.ir.nodes import OffsetRef
        cheap = [NestStmt("T", Intrinsic("ABS",
                                         (OffsetRef("U", (0, 0)),)))]
        costly = [NestStmt("T", Intrinsic("EXP",
                                          (OffsetRef("U", (0, 0)),)))]
        rank = lambda n: 2
        assert profile_nest(costly, rank).flops > \
            profile_nest(cheap, rank).flops


class TestScalarContext:
    def test_scalar_intrinsics(self):
        src = """
        REAL A(16,16)
        S = MAX(2.0, 3.0)
        A = A + S ** 2
        """
        u = grid(seed=4)
        ref = evaluate(parse_program(src, bindings={"N": 16}),
                       inputs={"A": u})["A"]
        cp = compile_hpf(src, bindings={"N": 16}, level="O4",
                         outputs={"A"})
        res = cp.run(Machine(grid=(2, 2)), inputs={"A": u})
        np.testing.assert_allclose(res.arrays["A"], ref, rtol=1e-6)
