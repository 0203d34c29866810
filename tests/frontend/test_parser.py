"""Parser tests: declarations, directives, statements, expressions."""

import pytest

from repro import kernels
from repro.errors import (
    ParseError, SemanticError, UnsupportedDistributionError,
    UnsupportedFeatureError,
)
from repro.frontend import parse_program
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, BinOp, CShift, Deallocate, DoLoop,
    EOShift, If, OffsetRef, ScalarAssign, ScalarRef,
)
from repro.ir.types import DistKind, ScalarKind


def parse(src, **bindings):
    return parse_program(src, bindings=bindings or None)


class TestDeclarations:
    def test_dimension_attribute(self):
        p = parse("REAL, DIMENSION(8,8) :: A, B\nA = B")
        assert p.symbols.array("A").type.shape == (8, 8)
        assert p.symbols.array("B").type.element is ScalarKind.REAL

    def test_entity_dimension(self):
        p = parse("DOUBLE PRECISION A(4,6)\nA = 0")
        sym = p.symbols.array("A")
        assert sym.type.shape == (4, 6)
        assert sym.type.element is ScalarKind.DOUBLE

    def test_parameter_statement(self):
        p = parse("PARAMETER (N = 10)\nREAL A(N,N)\nA = 0")
        assert p.symbols.array("A").type.shape == (10, 10)

    def test_typed_parameter(self):
        p = parse("INTEGER, PARAMETER :: N = 4\nREAL A(N)\nA = 0")
        assert p.symbols.array("A").type.shape == (4,)

    def test_binding_supplies_parameter(self):
        p = parse("REAL A(N,N)\nA = 0", N=12)
        assert p.symbols.array("A").type.shape == (12, 12)

    def test_parameter_arithmetic(self):
        p = parse("PARAMETER (N = 4)\nREAL A(2*N+1)\nA = 0")
        assert p.symbols.array("A").type.shape == (9,)

    def test_default_distribution_is_block(self):
        p = parse("REAL A(8,8)\nA = 0")
        assert p.symbols.array("A").distribution.dims == (
            DistKind.BLOCK, DistKind.BLOCK)

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SemanticError):
            parse("REAL A(4)\nREAL A(4)\nA = 0")

    def test_scalar_declaration(self):
        p = parse("REAL ALPHA\nALPHA = 2.5")
        assert p.symbols.is_scalar("ALPHA")


class TestDirectives:
    def test_distribute(self):
        p = parse("REAL A(8,8)\n!HPF$ DISTRIBUTE A(BLOCK,*)\nA = 0")
        assert p.symbols.array("A").distribution.dims == (
            DistKind.BLOCK, DistKind.COLLAPSED)

    def test_align_copies_distribution(self):
        p = parse("REAL A(8,8), B(8,8)\n"
                  "!HPF$ DISTRIBUTE A(BLOCK,*)\n"
                  "!HPF$ ALIGN B WITH A\nB = A")
        assert p.symbols.array("B").distribution.dims == (
            DistKind.BLOCK, DistKind.COLLAPSED)

    def test_where_mask_takes_the_aligned_distribution(self):
        # the mask is declared while parsing, before ALIGN resolves
        p = parse("REAL A0(8,8,8), A1(8,8,8)\n"
                  "!HPF$ DISTRIBUTE A0(BLOCK,BLOCK,*)\n"
                  "!HPF$ ALIGN A1 WITH A0\n"
                  "WHERE (A1 > 0.0) A1 = A0 + 1.0")
        assert p.symbols.array("MASK1").distribution == \
            p.symbols.array("A0").distribution

    def test_cyclic_rejected(self):
        with pytest.raises(UnsupportedDistributionError):
            parse("REAL A(8)\n!HPF$ DISTRIBUTE A(CYCLIC)\nA = 0")

    def test_processors_ignored(self):
        p = parse("REAL A(8)\n!HPF$ PROCESSORS P(4)\nA = 0")
        assert len(p.body) == 1

    def test_distribute_rank_mismatch(self):
        with pytest.raises(SemanticError):
            parse("REAL A(8,8)\n!HPF$ DISTRIBUTE A(BLOCK)\nA = 0")


class TestStatements:
    def test_whole_array_assign(self):
        p = parse("REAL A(4), B(4)\nA = B")
        stmt = p.body[0]
        assert isinstance(stmt, ArrayAssign)
        assert stmt.lhs.section is None

    def test_section_assign(self):
        p = parse("REAL A(8,8)\nA(2:N-1,2:N-1) = 0", N=8)
        stmt = p.body[0]
        assert isinstance(stmt, ArrayAssign)
        assert str(stmt.lhs) == "A(2:N-1,2:N-1)"

    def test_scalar_assign_autodeclares(self):
        p = parse("X = 1.5")
        assert isinstance(p.body[0], ScalarAssign)
        assert p.symbols.is_scalar("X")

    def test_allocate_deferred(self):
        p = parse("REAL, ALLOCATABLE :: T(:,:)\nALLOCATE(T(8,8))\nT = 0\n"
                  "DEALLOCATE(T)")
        assert isinstance(p.body[0], Allocate)
        assert isinstance(p.body[2], Deallocate)
        assert p.symbols.array("T").is_temporary

    def test_use_before_allocate_rejected(self):
        with pytest.raises(SemanticError):
            parse("REAL, ALLOCATABLE :: T(:,:)\nT = 0")

    def test_do_loop(self):
        p = parse("REAL A(4)\nDO K = 1, 10\nA = A + 1\nENDDO")
        loop = p.body[0]
        assert isinstance(loop, DoLoop)
        assert loop.var == "K" and len(loop.body) == 1

    def test_end_do_two_words(self):
        p = parse("REAL A(4)\nDO K = 1, 3\nA = A + 1\nEND DO")
        assert isinstance(p.body[0], DoLoop)

    def test_if_then_else(self):
        p = parse("REAL A(4)\nIF (X < 1) THEN\nA = 0\nELSE\nA = 1\nENDIF")
        stmt = p.body[0]
        assert isinstance(stmt, If)
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_assign_to_parameter_rejected(self):
        with pytest.raises(SemanticError):
            parse("PARAMETER (N = 4)\nN = 5")

    def test_where_lowered(self):
        p = parse("REAL A(4)\nWHERE (A > 0)\nA = 1\nEND WHERE")
        assert len(p.body) == 2  # mask materialisation + masked assign
        assert p.body[1].mask is not None

    def test_nested_do_loops(self):
        p = parse("REAL A(4)\nDO I = 1, 2\nDO J = 1, 3\nA = A + 1\n"
                  "ENDDO\nENDDO")
        outer = p.body[0]
        assert isinstance(outer, DoLoop)
        assert isinstance(outer.body[0], DoLoop)

    def test_nested_if(self):
        p = parse("REAL A(4)\nIF (X < 1) THEN\nIF (Y < 1) THEN\nA = 1\n"
                  "ENDIF\nENDIF")
        assert isinstance(p.body[0].then_body[0], If)


class TestExpressions:
    def test_cshift_keyword_args(self):
        p = parse("REAL A(4,4), B(4,4)\nA = CSHIFT(B,SHIFT=-1,DIM=2)")
        rhs = p.body[0].rhs
        assert isinstance(rhs, CShift)
        assert (rhs.shift, rhs.dim) == (-1, 2)

    def test_cshift_positional_args(self):
        p = parse("REAL A(4,4), B(4,4)\nA = CSHIFT(B,+1,2)")
        rhs = p.body[0].rhs
        assert (rhs.shift, rhs.dim) == (1, 2)

    def test_cshift_default_dim(self):
        p = parse("REAL A(4), B(4)\nA = CSHIFT(B,1)")
        assert p.body[0].rhs.dim == 1

    def test_nested_cshift(self):
        p = parse("REAL A(4,4), B(4,4)\nA = CSHIFT(CSHIFT(B,-1,1),+1,2)")
        outer = p.body[0].rhs
        assert isinstance(outer, CShift) and isinstance(outer.array, CShift)

    def test_eoshift(self):
        p = parse("REAL A(4), B(4)\nA = EOSHIFT(B,SHIFT=1,BOUNDARY=9.0)")
        rhs = p.body[0].rhs
        assert isinstance(rhs, EOShift) and rhs.boundary == 9.0

    def test_nonconstant_shift_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse("REAL A(4), B(4)\nK = 1\nA = CSHIFT(B,K)")

    def test_precedence(self):
        p = parse("X = 1 + 2 * 3")
        rhs = p.body[0].rhs
        assert isinstance(rhs, BinOp) and rhs.op == "+"
        assert isinstance(rhs.right, BinOp) and rhs.right.op == "*"

    def test_parentheses(self):
        p = parse("X = (1 + 2) * 3")
        rhs = p.body[0].rhs
        assert rhs.op == "*"

    def test_unary_minus(self):
        p = parse("X = -Y")
        assert str(p.body[0].rhs) == "-(Y)"

    def test_param_stays_symbolic(self):
        p = parse("PARAMETER (N = 4)\nX = N + 1")
        assert isinstance(p.body[0].rhs.left, ScalarRef)

    def test_section_rank_mismatch(self):
        with pytest.raises(SemanticError):
            parse("REAL A(4,4)\nA(1:2) = 0")

    def test_scalar_subscript_is_single_element_section(self):
        p = parse("REAL A(8,8)\nA(3,4:5) = 0")
        sec = p.body[0].lhs.section
        assert str(sec[0]) == "3:3" and str(sec[1]) == "4:5"


class TestPaperKernels:
    @pytest.mark.parametrize("src,nstmts", [
        (kernels.FIVE_POINT_ARRAY_SYNTAX, 1),
        (kernels.NINE_POINT_CSHIFT, 1),
        (kernels.PURDUE_PROBLEM9, 9),
        (kernels.NINE_POINT_ARRAY_SYNTAX, 1),
    ])
    def test_kernels_parse(self, src, nstmts):
        p = parse_program(src, bindings={"N": 16})
        assert len(p.body) == nstmts
        p.validate()

    def test_problem9_statements(self):
        p = parse_program(kernels.PURDUE_PROBLEM9, bindings={"N": 16})
        first = p.body[0]
        assert isinstance(first, ArrayAssign)
        assert first.lhs.name == "RIP"
        assert isinstance(first.rhs, CShift)
