"""Program container, validation, dead-array pruning, structured-walk tests."""

import pytest

from repro.errors import PipelineError
from repro.frontend import parse_program
from repro.ir.nodes import (
    ArrayAssign, ArrayRef, Compare, Const, If, OffsetRef, Reduction,
)
from repro.ir.program import (
    Flow, map_runs, reads, runs_at_least_once, walk_flow,
)


class TestValidation:
    def test_valid_program(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B + 1")
        p.validate()

    def test_offset_rank_mismatch_caught(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B")
        p.body[0].rhs = OffsetRef("B", (1,))  # wrong rank
        with pytest.raises(PipelineError):
            p.validate()

    def test_offset_rank_mismatch_in_condition_caught(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B")
        cond = Compare(">", Reduction("SUM", OffsetRef("B", (1,))),
                       Const(0.0))
        p.body = [If(cond, [p.body[0]])]
        with pytest.raises(PipelineError, match="offset rank mismatch"):
            p.validate()

    def test_section_rank_mismatch_caught(self):
        from repro.ir.linexpr import LinExpr
        from repro.ir.nodes import Triplet
        p = parse_program("REAL A(8,8)\nA = 1")
        p.body[0].lhs = ArrayRef(
            "A", (Triplet(LinExpr(1), LinExpr(4)),))
        with pytest.raises(PipelineError):
            p.validate()


class TestDeadArrays:
    def test_prune_unused_temp(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B + 1")
        p.symbols.new_temp(p.symbols.array("A"))
        dead = p.prune_dead_arrays()
        assert dead == ["TMP1"]
        assert not p.symbols.is_array("TMP1")

    def test_user_arrays_never_pruned(self):
        p = parse_program("REAL A(8,8), B(8,8), C(8,8)\nA = B + 1")
        assert p.prune_dead_arrays() == []
        assert p.symbols.is_array("C")

    def test_alloc_statements_pruned_with_temp(self):
        from repro.ir.nodes import Allocate, Deallocate
        p = parse_program("REAL A(8,8), B(8,8)\nA = B + 1")
        tmp = p.symbols.new_temp(p.symbols.array("A"))
        p.body.insert(0, Allocate([tmp.name]))
        p.body.append(Deallocate([tmp.name]))
        p.prune_dead_arrays()
        assert not any(isinstance(s, (Allocate, Deallocate))
                       for s in p.body)


class TestWalk:
    def test_leaf_statements_flatten_structure(self):
        p = parse_program("""
        REAL A(8,8)
        DO K = 1, 3
          IF (X < 1) THEN
            A = A + 1
          ENDIF
        ENDDO
        A = 0
        """)
        leaves = p.leaf_statements()
        assert len(leaves) == 2
        assert all(isinstance(s, ArrayAssign) for s in leaves)

    def test_referenced_arrays(self):
        p = parse_program("REAL A(8,8), B(8,8), C(8,8)\nA = B + 1")
        assert p.referenced_arrays() == {"A", "B"}

    def test_referenced_arrays_include_conditions(self):
        p = parse_program("""
        REAL A(8,8), B(8,8), C(8,8)
        IF (SUM(C) > 0.0) THEN
          A = B
        ENDIF
        """)
        assert p.referenced_arrays() == {"A", "B", "C"}
        assert reads(p.body[0]) == {"C"}

    def test_map_runs_visits_leaf_runs_in_textual_order(self):
        p = parse_program("""
        REAL A(8,8)
        A = 1
        A = 2
        DO K = 1, 3
          A = 3
          IF (X < 1) THEN
            A = 4
          ELSE
            A = 5
          ENDIF
          A = 6
        ENDDO
        """)
        seen = []

        def fn(run):
            seen.append([s.rhs.value for s in run])
            return run[:1]

        p.body = map_runs(p.body, fn)
        assert seen == [[1, 2], [3], [4], [5], [6]]
        assert len(p.leaf_statements()) == 5
        assert [s.rhs.value for s in p.body[1].body if not s.BLOCKS] \
            == [3, 6]


class _Defined(Flow):
    """Arrays certainly assigned: the smallest Flow."""

    def __init__(self, names=()):
        self.names = set(names)

    def copy(self):
        return _Defined(self.names)

    def meet(self, other):
        self.names &= other.names

    def kill(self, *names):
        self.names -= set(names)


class TestFlow:
    def run(self, src, bindings=None):
        p = parse_program(src, bindings=bindings)
        state = _Defined()
        walk_flow(p.body, state,
                  lambda st, stmt: st.names.add(stmt.lhs.name),
                  p.symbols.params)
        return state.names

    def test_branch_meets_arms(self):
        assert self.run("""
        REAL A(8,8), B(8,8)
        IF (X < 1) THEN
          A = 1
          B = 1
        ELSE
          A = 2
        ENDIF
        """) == {"A"}

    @pytest.mark.parametrize("m, expected", [(2, {"B"}), (0, set())])
    def test_counted_loop_exit_needs_a_trip(self, m, expected):
        assert self.run("""
        REAL B(8,8)
        DO K = 1, M
          B = 1
        ENDDO
        """, bindings={"M": m}) == expected

    def test_do_while_may_not_run(self):
        assert self.run("""
        REAL B(8,8)
        DO WHILE (X < 0.0)
          B = 1
        ENDDO
        """) == set()

    def test_runs_at_least_once(self):
        p = parse_program("REAL A(8,8)\nDO K = 2, M\nA = 1\nENDDO",
                          bindings={"M": 2})
        assert runs_at_least_once(p.body[0], {"M": 2})
        assert not runs_at_least_once(p.body[0], {"M": 1})
        assert not runs_at_least_once(p.body[0], {})
