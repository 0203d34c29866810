"""Recursive-descent parser building IR programs from HPF source.

Entry point: :func:`parse_program`.

The parser resolves declarations eagerly: ``PARAMETER`` constants (or the
``bindings`` argument) give every array a concrete shape at parse time, as
the experiments compile one program per problem size.  Section bounds stay
symbolic (:class:`~repro.ir.linexpr.LinExpr`) so the IR prints the way the
paper writes it (``DST(2:N-1,2:N-1)``).
"""

from __future__ import annotations

from repro.errors import (
    ParseError, SemanticError, UnsupportedDistributionError,
    UnsupportedFeatureError,
)
from repro.frontend.lexer import Token, tokenize
from repro.ir.linexpr import LinExpr
from repro.ir.nodes import (
    ELEMENTWISE_INTRINSICS, REDUCTION_INTRINSICS, Allocate, ArrayAssign,
    ArrayRef, BinOp, Compare, Const, CShift, Deallocate, DoLoop, DoWhile,
    EOShift, Expr, If, Intrinsic, Reduction, ScalarAssign, ScalarRef,
    Stmt, Triplet, UnaryOp,
)
from repro.ir.program import Program
from repro.ir.symbols import SymbolTable
from repro.ir.types import ArrayType, DistKind, Distribution, ScalarKind

_INTRINSICS = {"CSHIFT", "EOSHIFT"}


class _Parser:
    def __init__(self, tokens: list[Token], symbols: SymbolTable) -> None:
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols
        # deferred-shape (ALLOCATABLE) declarations awaiting ALLOCATE
        self.deferred: dict[str, tuple[ScalarKind, int]] = {}
        self._deferred_dists: dict[str, Distribution] = {}
        self.align_requests: list[tuple[str, str]] = []
        # statements a construct lowers to *before* the one it returns
        # (WHERE mask materialisation)
        self._pending_stmts: list[Stmt] = []
        self.processors: tuple[int, ...] | None = None

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            want = text or kind
            raise ParseError(f"expected {want!r}, found {got.text!r}",
                             got.line, got.column)
        return tok

    def end_statement(self) -> None:
        if not (self.accept("NEWLINE") or self.peek().kind == "EOF"):
            got = self.peek()
            raise ParseError(f"unexpected {got.text!r} at end of statement",
                             got.line, got.column)

    def skip_newlines(self) -> None:
        while self.accept("NEWLINE"):
            pass

    # -- program -----------------------------------------------------------
    def parse(self) -> list[Stmt]:
        self.skip_newlines()
        # optional PROGRAM header / IMPLICIT NONE
        if self.accept("KEYWORD", "PROGRAM"):
            self.expect("NAME")
            self.end_statement()
        self.skip_newlines()
        if self.accept("KEYWORD", "IMPLICIT"):
            self.expect("KEYWORD", "NONE")
            self.end_statement()
        body = self.parse_block(until=("EOF",))
        self._apply_alignments()
        return body

    def parse_block(self, until: tuple[str, ...]) -> list[Stmt]:
        body: list[Stmt] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "EOF":
                if "EOF" not in until:
                    raise ParseError("unexpected end of input",
                                     tok.line, tok.column)
                return body
            if tok.kind == "KEYWORD" and tok.text in until:
                return body
            if tok.kind == "KEYWORD" and tok.text == "END" and \
                    self.peek(1).kind == "KEYWORD" and \
                    self.peek(1).text in {u.removeprefix("END")
                                          for u in until if u != "EOF"}:
                # "END DO" / "END IF" split keywords
                return body
            stmt = self.parse_statement()
            if self._pending_stmts:
                body.extend(self._pending_stmts)
                self._pending_stmts.clear()
            if stmt is not None:
                body.append(stmt)

    # -- statements ----------------------------------------------------------
    def parse_statement(self) -> Stmt | None:
        tok = self.peek()
        if tok.kind == "HPFDIR":
            self.parse_directive()
            return None
        if tok.kind == "KEYWORD":
            if tok.text in ("REAL", "DOUBLE", "INTEGER", "LOGICAL"):
                self.parse_declaration()
                return None
            if tok.text == "PARAMETER":
                self.parse_parameter()
                return None
            if tok.text == "ALLOCATE":
                return self.parse_allocate()
            if tok.text == "DEALLOCATE":
                return self.parse_deallocate()
            if tok.text == "CALL":
                raise UnsupportedFeatureError(
                    "CALL statements are not part of the input subset "
                    "(OVERLAP_SHIFT is generated by the compiler, not "
                    "written by the user)", tok.line)
            if tok.text == "DO":
                return self.parse_do()
            if tok.text == "IF":
                return self.parse_if()
            if tok.text == "WHERE":
                return self.parse_where()
            if tok.text == "END":
                self.advance()
                # bare END (program end)
                while self.peek().kind in ("KEYWORD", "NAME"):
                    self.advance()
                self.end_statement()
                return None
        if tok.kind == "NAME":
            return self.parse_assignment()
        raise ParseError(f"cannot parse statement starting with {tok.text!r}",
                         tok.line, tok.column)

    # -- declarations --------------------------------------------------------
    def _scalar_kind(self) -> ScalarKind:
        tok = self.advance()
        if tok.text == "REAL":
            return ScalarKind.REAL
        if tok.text == "DOUBLE":
            self.expect("KEYWORD", "PRECISION")
            return ScalarKind.DOUBLE
        if tok.text == "INTEGER":
            return ScalarKind.INTEGER
        if tok.text == "LOGICAL":
            return ScalarKind.LOGICAL
        raise ParseError(f"unknown type {tok.text!r}", tok.line, tok.column)

    def parse_declaration(self) -> None:
        kind = self._scalar_kind()
        dims: tuple[int, ...] | None = None
        deferred_rank: int | None = None
        is_param = False
        while self.accept(","):
            attr = self.expect("KEYWORD")
            if attr.text == "DIMENSION":
                dims, deferred_rank = self.parse_dim_spec()
            elif attr.text == "ALLOCATABLE":
                pass  # deferred shape implied by (:,:) spec
            elif attr.text == "PARAMETER":
                is_param = True
            else:
                raise UnsupportedFeatureError(
                    f"declaration attribute {attr.text} not supported",
                    attr.line)
        self.accept("::")
        while True:
            name = self.expect("NAME").text
            entity_dims, entity_deferred = dims, deferred_rank
            if self.peek().kind == "(":
                entity_dims, entity_deferred = self.parse_dim_spec()
            if is_param:
                self.expect("=")
                value = self.parse_int_expr().evaluate(self.symbols.params)
                self.symbols.bind_param(name, value)
            elif entity_deferred is not None:
                self.deferred[name] = (kind, entity_deferred)
            elif entity_dims is not None:
                self.symbols.declare_array(
                    name, ArrayType(kind, entity_dims))
            else:
                self.symbols.declare_scalar(name, kind)
            if not self.accept(","):
                break
        self.end_statement()

    def parse_dim_spec(self) -> tuple[tuple[int, ...] | None, int | None]:
        """Parse ``(N,N)`` (concrete) or ``(:,:)`` (deferred) specs."""
        self.expect("(")
        if self.peek().kind == ":":
            rank = 0
            while True:
                self.expect(":")
                rank += 1
                if not self.accept(","):
                    break
            self.expect(")")
            return None, rank
        extents: list[int] = []
        while True:
            extents.append(
                self.parse_int_expr().evaluate(self.symbols.params))
            if not self.accept(","):
                break
        self.expect(")")
        return tuple(extents), None

    def parse_parameter(self) -> None:
        self.expect("KEYWORD", "PARAMETER")
        self.expect("(")
        while True:
            name = self.expect("NAME").text
            self.expect("=")
            value = self.parse_int_expr().evaluate(self.symbols.params)
            self.symbols.bind_param(name, value)
            if not self.accept(","):
                break
        self.expect(")")
        self.end_statement()

    # -- HPF directives --------------------------------------------------------
    def parse_directive(self) -> None:
        self.expect("HPFDIR")
        word = self.expect("NAME").text
        if word == "DISTRIBUTE":
            self.parse_distribute()
        elif word == "ALIGN":
            self.parse_align()
        elif word == "PROCESSORS":
            self.parse_processors()
        elif word == "TEMPLATE":
            # templates only matter through ALIGN, which we resolve
            # directly; consume and ignore
            while self.peek().kind not in ("NEWLINE", "EOF"):
                self.advance()
            self.end_statement()
            return
        else:
            raise UnsupportedFeatureError(
                f"HPF directive {word} not supported", self.peek().line)

    def parse_processors(self) -> None:
        """``!HPF$ PROCESSORS P(2,2)`` — the abstract processor grid.

        Recorded on the program; the executor checks the machine's grid
        against it (the HPF mapping assumed the declared arrangement).
        """
        self.expect("NAME")  # the arrangement's name
        dims: list[int] = []
        if self.accept("("):
            while True:
                dims.append(
                    self.parse_int_expr().evaluate(self.symbols.params))
                if not self.accept(","):
                    break
            self.expect(")")
        self.end_statement()
        self.processors = tuple(dims) if dims else (1,)

    def parse_distribute(self) -> None:
        name = self.expect("NAME").text
        self.expect("(")
        kinds: list[DistKind] = []
        while True:
            tok = self.advance()
            if tok.kind == "NAME" and tok.text == "BLOCK":
                kinds.append(DistKind.BLOCK)
            elif tok.kind == "*":
                kinds.append(DistKind.COLLAPSED)
            elif tok.kind == "NAME" and tok.text == "CYCLIC":
                raise UnsupportedDistributionError(
                    "CYCLIC distributions are outside the paper's scope "
                    "(section 2.1 assumes BLOCK)", tok.line)
            else:
                raise ParseError(f"bad distribution format {tok.text!r}",
                                 tok.line, tok.column)
            if not self.accept(","):
                break
        self.expect(")")
        self.end_statement()
        dist = Distribution(tuple(kinds))
        if self.symbols.is_array(name):
            sym = self.symbols.array(name)
            if len(dist.dims) != sym.type.rank:
                raise SemanticError(
                    f"DISTRIBUTE rank mismatch for {name}")
            sym.distribution = dist
        elif name in self.deferred:
            # applied when the array is ALLOCATEd
            self._deferred_dists[name] = dist
        else:
            raise SemanticError(f"DISTRIBUTE of undeclared array {name}")

    def parse_align(self) -> None:
        target = self.expect("NAME").text
        with_kw = self.expect("NAME")
        if with_kw.text != "WITH":
            raise ParseError("expected WITH in ALIGN directive",
                             with_kw.line, with_kw.column)
        source = self.expect("NAME").text
        self.end_statement()
        self.align_requests.append((target, source))

    def _apply_alignments(self) -> None:
        for target, source in self.align_requests:
            if not (self.symbols.is_array(target)
                    and self.symbols.is_array(source)):
                raise SemanticError(
                    f"ALIGN {target} WITH {source}: both must be arrays")
            self.symbols.array(target).distribution = \
                self.symbols.array(source).distribution

    # -- allocate / deallocate ---------------------------------------------------
    def parse_allocate(self) -> Allocate:
        self.expect("KEYWORD", "ALLOCATE")
        self.expect("(")
        names: list[str] = []
        while True:
            name = self.expect("NAME").text
            if self.peek().kind == "(":
                dims, deferred = self.parse_dim_spec()
                if deferred is not None:
                    raise ParseError("ALLOCATE requires concrete extents",
                                     self.peek().line)
                if name in self.deferred:
                    kind, rank = self.deferred.pop(name)
                    if len(dims) != rank:  # type: ignore[arg-type]
                        raise SemanticError(
                            f"ALLOCATE rank mismatch for {name}")
                    dist = self._deferred_dists.pop(name, None)
                    self.symbols.declare_array(
                        name, ArrayType(kind, dims), dist,  # type: ignore[arg-type]
                        is_temporary=True)
                elif not self.symbols.is_array(name):
                    raise SemanticError(
                        f"ALLOCATE of undeclared array {name}")
            elif not self.symbols.is_array(name):
                raise SemanticError(f"ALLOCATE of undeclared array {name}")
            names.append(name)
            if not self.accept(","):
                break
        self.expect(")")
        self.end_statement()
        return Allocate(names)

    def parse_deallocate(self) -> Deallocate:
        self.expect("KEYWORD", "DEALLOCATE")
        self.expect("(")
        names: list[str] = []
        while True:
            names.append(self.expect("NAME").text)
            if not self.accept(","):
                break
        self.expect(")")
        self.end_statement()
        return Deallocate(names)

    # -- control flow ------------------------------------------------------------
    def parse_do(self) -> "DoLoop | DoWhile":
        self.expect("KEYWORD", "DO")
        if self.peek().kind == "KEYWORD" and self.peek().text == "WHILE":
            return self.parse_do_while()
        var = self.expect("NAME").text
        if not self.symbols.is_scalar(var):
            self.symbols.declare_scalar(var, ScalarKind.INTEGER)
        self.expect("=")
        lo = self.parse_int_expr()
        self.expect(",")
        hi = self.parse_int_expr()
        self.end_statement()
        body = self.parse_block(until=("ENDDO",))
        if not self.accept("KEYWORD", "ENDDO"):
            self.expect("KEYWORD", "END")
            self.expect("KEYWORD", "DO")
        self.end_statement()
        return DoLoop(var, lo, hi, body)

    def parse_do_while(self) -> DoWhile:
        self.expect("KEYWORD", "WHILE")
        self.expect("(")
        cond = self.parse_condition()
        self.expect(")")
        for node in cond.walk():
            if isinstance(node, (CShift, EOShift)):
                raise UnsupportedFeatureError(
                    "shift intrinsics inside a DO WHILE condition are "
                    "not supported; compute them in the loop body")
        self.end_statement()
        body = self.parse_block(until=("ENDDO",))
        if not self.accept("KEYWORD", "ENDDO"):
            self.expect("KEYWORD", "END")
            self.expect("KEYWORD", "DO")
        self.end_statement()
        return DoWhile(cond, body)

    def parse_if(self) -> If:
        self.expect("KEYWORD", "IF")
        self.expect("(")
        cond = self.parse_condition()
        self.expect(")")
        self.expect("KEYWORD", "THEN")
        self.end_statement()
        then_body = self.parse_block(until=("ELSE", "ENDIF"))
        else_body: list[Stmt] = []
        if self.accept("KEYWORD", "ELSE"):
            self.end_statement()
            else_body = self.parse_block(until=("ENDIF",))
        if not self.accept("KEYWORD", "ENDIF"):
            self.expect("KEYWORD", "END")
            self.expect("KEYWORD", "IF")
        self.end_statement()
        return If(cond, then_body, else_body)

    # -- WHERE constructs -------------------------------------------------------
    def parse_where(self) -> Stmt:
        """WHERE masked assignment.

        The mask expression is materialised into a LOGICAL temporary up
        front (Fortran evaluates the mask once per construct), then every
        body statement carries an aligned reference of that temporary:

            WHERE (U > 0)          MASK1 = U > 0
              A = ...       ==>    WHERE(MASK1) A = ...
            ELSEWHERE              WHERE(MASK1 == 0) A = ...
              A = ...
            END WHERE

        Returns a single statement for one-line WHERE, or a synthetic
        grouping of the lowered statements (flattened into the enclosing
        block by the caller via ``_pending_stmts``).
        """
        if getattr(self, "_in_where", False):
            tok = self.peek()
            raise UnsupportedFeatureError(
                "nested WHERE constructs are not supported", tok.line)
        self.expect("KEYWORD", "WHERE")
        self.expect("(")
        mask_expr = self.parse_condition()
        self.expect(")")
        mask_ref, mask_stmt = self._materialize_mask(mask_expr)
        else_mask = Compare("==", mask_ref, Const(0.0))

        if self.peek().kind != "NEWLINE":
            # single-statement form: WHERE (mask) A = expr
            stmt = self.parse_assignment()
            if not isinstance(stmt, ArrayAssign):
                raise SemanticError(
                    "WHERE governs array assignments only")
            self._check_mask_conformance(mask_ref, stmt)
            stmt.mask = mask_ref
            self._pending_stmts.append(mask_stmt)
            return stmt
        self.end_statement()
        self._in_where = True
        try:
            body = self.parse_block(until=("ELSEWHERE", "ENDWHERE"))
            else_body: list[Stmt] = []
            if self.accept("KEYWORD", "ELSEWHERE"):
                self.end_statement()
                else_body = self.parse_block(until=("ENDWHERE",))
        finally:
            self._in_where = False
        if not self.accept("KEYWORD", "ENDWHERE"):
            self.expect("KEYWORD", "END")
            self.expect("KEYWORD", "WHERE")
        self.end_statement()
        lowered: list[Stmt] = [mask_stmt]
        for stmt, mask in [(s, mask_ref) for s in body] + \
                          [(s, else_mask) for s in else_body]:
            if not isinstance(stmt, ArrayAssign) or stmt.mask is not None:
                raise SemanticError(
                    "WHERE bodies may contain only unmasked array "
                    "assignments")
            self._check_mask_conformance(mask_ref, stmt)
            stmt.mask = mask
            lowered.append(stmt)
        self._pending_stmts.extend(lowered[:-1])
        return lowered[-1]

    def _materialize_mask(self, mask_expr: Expr) -> tuple[ArrayRef,
                                                          ArrayAssign]:
        from repro.ir.nodes import array_names
        names = sorted(array_names(mask_expr))
        if not names:
            raise SemanticError(
                "WHERE mask must be an array expression (use IF for "
                "scalar conditions)")
        like = self.symbols.array(names[0])
        section = None
        for node in mask_expr.walk():
            if isinstance(node, ArrayRef) and node.section is not None:
                section = node.section
                break
        mask_sym = self.symbols.new_temp(
            like, prefix="MASK",
            type_=ArrayType(ScalarKind.LOGICAL, like.type.shape))
        # ``like`` may be ALIGNed, which resolves only after parsing
        self.align_requests.append((mask_sym.name, like.name))
        mask_ref = ArrayRef(mask_sym.name, section)
        return mask_ref, ArrayAssign(ArrayRef(mask_sym.name, section),
                                     mask_expr)

    def _check_mask_conformance(self, mask_ref: ArrayRef,
                                stmt: ArrayAssign) -> None:
        """Mask and assignment pair elements positionally; we require
        identical sections (or both whole) so alignment is trivial."""
        msec = tuple(map(str, mask_ref.section)) \
            if mask_ref.section else None
        ssec = tuple(map(str, stmt.lhs.section)) \
            if stmt.lhs.section else None
        mask_shape = self.symbols.array(mask_ref.name).type.shape
        lhs_shape = self.symbols.array(stmt.lhs.name).type.shape
        if msec != ssec or (msec is None and mask_shape != lhs_shape):
            raise UnsupportedFeatureError(
                f"WHERE mask section {msec} must match the assignment "
                f"section {ssec} (general mask realignment is outside "
                f"the stencil subset)")

    def parse_condition(self) -> Expr:
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind in ("<", ">", "<=", ">=", "==", "/="):
            self.advance()
            right = self.parse_expr()
            return Compare(tok.kind, left, right)
        return left

    # -- assignment ----------------------------------------------------------
    def parse_assignment(self) -> Stmt:
        name = self.expect("NAME").text
        if self.symbols.is_array(name) or name in self.deferred:
            if name in self.deferred:
                raise SemanticError(
                    f"array {name} used before ALLOCATE")
            section = None
            if self.peek().kind == "(":
                section = self.parse_section(name)
            self.expect("=")
            rhs = self.parse_expr()
            self.end_statement()
            return ArrayAssign(ArrayRef(name, section), rhs)
        # scalar assignment (auto-declares, Fortran implicit style)
        if not self.symbols.is_scalar(name):
            if name in self.symbols.params:
                raise SemanticError(f"cannot assign to PARAMETER {name}")
            self.symbols.declare_scalar(name)
        self.expect("=")
        rhs = self.parse_expr()
        self.end_statement()
        self._check_scalar_rhs(name, rhs)
        return ScalarAssign(name, rhs)

    def _check_scalar_rhs(self, name: str, rhs: Expr) -> None:
        """Array references are only scalar-valued inside reductions."""
        if isinstance(rhs, Reduction):
            return
        if isinstance(rhs, ArrayRef):
            raise SemanticError(
                f"scalar {name} assigned an array-valued expression "
                f"(references {rhs.name}); wrap it in SUM/MAXVAL/MINVAL "
                f"or declare {name} as an array")
        for child in rhs.children():
            self._check_scalar_rhs(name, child)

    def parse_section(self, array_name: str) -> tuple[Triplet, ...]:
        sym = self.symbols.array(array_name)
        self.expect("(")
        triplets: list[Triplet] = []
        dim = 0
        while True:
            if dim >= sym.type.rank:
                raise SemanticError(
                    f"too many subscripts for {array_name}")
            extent = sym.type.shape[dim]
            if self.peek().kind == ":":
                lo: LinExpr = LinExpr(1)
            else:
                lo = self.parse_int_expr()
            if self.accept(":"):
                if self.peek().kind in (",", ")"):
                    hi: LinExpr = LinExpr(extent)
                else:
                    hi = self.parse_int_expr()
                triplets.append(Triplet(lo, hi))
            else:
                triplets.append(Triplet(lo, lo))  # single index
            dim += 1
            if not self.accept(","):
                break
        self.expect(")")
        if dim != sym.type.rank:
            raise SemanticError(
                f"rank mismatch subscripting {array_name}: got {dim}, "
                f"need {sym.type.rank}")
        return tuple(triplets)

    # -- expressions ---------------------------------------------------------
    def parse_expr(self) -> Expr:
        expr = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind in ("+", "-"):
                self.advance()
                expr = BinOp(tok.kind, expr, self.parse_term())
            else:
                return expr

    def parse_term(self) -> Expr:
        expr = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                self.advance()
                expr = BinOp(tok.kind, expr, self.parse_factor())
            else:
                return expr

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return UnaryOp("-", self.parse_factor())
        if tok.kind == "+":
            self.advance()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if self.accept("**"):
            # Fortran exponentiation is right associative
            return BinOp("**", base, self.parse_factor())
        return base

    def parse_primary(self) -> Expr:
        tok = self.advance()
        if tok.kind == "INT":
            return Const(float(int(tok.text)))
        if tok.kind == "FLOAT":
            return Const(float(tok.text.replace("D", "E").replace("d", "e")))
        if tok.kind == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "NAME":
            name = tok.text
            if name in _INTRINSICS:
                return self.parse_intrinsic(name)
            if name in ELEMENTWISE_INTRINSICS and self.peek().kind == "(":
                return self.parse_elementwise(name)
            if name in REDUCTION_INTRINSICS and self.peek().kind == "(":
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Reduction(name, arg)
            if self.symbols.is_array(name):
                section = None
                if self.peek().kind == "(":
                    section = self.parse_section(name)
                return ArrayRef(name, section)
            if name in self.deferred:
                raise SemanticError(
                    f"array {name} used before ALLOCATE", tok.line)
            if name in self.symbols.params:
                # keep size parameters symbolic; the executor resolves them
                return ScalarRef(name)
            if not self.symbols.is_scalar(name):
                self.symbols.declare_scalar(name)
            return ScalarRef(name)
        raise ParseError(f"unexpected token {tok.text!r} in expression",
                         tok.line, tok.column)

    def parse_elementwise(self, name: str) -> Expr:
        self.expect("(")
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect(")")
        return Intrinsic(name, tuple(args))

    def parse_intrinsic(self, name: str) -> Expr:
        self.expect("(")
        where = self.peek()
        array = self.parse_expr()
        from repro.ir.nodes import array_names
        if not array_names(array):
            raise SemanticError(
                f"{name} shifts arrays, but its argument references "
                f"none (is an array undeclared?)", where.line,
                where.column)
        kwargs: dict[str, float] = {}
        order = ["SHIFT", "DIM"] if name == "CSHIFT" else \
                ["SHIFT", "BOUNDARY", "DIM"]
        positional = 0
        while self.accept(","):
            tok = self.peek()
            if tok.kind == "NAME" and tok.text in ("SHIFT", "DIM",
                                                   "BOUNDARY") \
                    and self.peek(1).kind == "=":
                key = self.advance().text
                self.expect("=")
                kwargs[key] = self._const_arg()
            else:
                if positional >= len(order):
                    raise ParseError(f"too many arguments to {name}",
                                     tok.line, tok.column)
                kwargs[order[positional]] = self._const_arg()
                positional += 1
        self.expect(")")
        if "SHIFT" not in kwargs:
            raise SemanticError(f"{name} requires a SHIFT argument")
        shift = int(kwargs["SHIFT"])
        dim = int(kwargs.get("DIM", 1))
        if name == "CSHIFT":
            return CShift(array, shift, dim)
        return EOShift(array, shift, dim, kwargs.get("BOUNDARY", 0.0))

    def _const_arg(self) -> float:
        """An intrinsic argument: must fold to a constant at parse time.

        The offset-array criteria (paper 3.1) require small constant
        shifts; non-constant shifts are rejected up front.
        """
        expr = self.parse_expr()
        value = _fold_const(expr, self.symbols.params)
        if value is None:
            raise UnsupportedFeatureError(
                "CSHIFT/EOSHIFT arguments must be compile-time constants "
                "(the paper's offset-array criteria require small constant "
                "shifts)", self.peek().line)
        return value

    def parse_int_expr(self) -> LinExpr:
        """Parse an affine integer expression (section bounds, extents)."""
        expr = self.parse_expr()
        lin = _to_linexpr(expr, self.symbols.params)
        if lin is None:
            tok = self.peek()
            raise ParseError("expected an affine integer expression",
                             tok.line, tok.column)
        return lin


def _fold_const(expr: Expr, params: dict[str, int]) -> float | None:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ScalarRef) and expr.name in params:
        return float(params[expr.name])
    if isinstance(expr, UnaryOp):
        v = _fold_const(expr.operand, params)
        return None if v is None else -v
    if isinstance(expr, BinOp):
        lv = _fold_const(expr.left, params)
        rv = _fold_const(expr.right, params)
        if lv is None or rv is None:
            return None
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        if expr.op == "/":
            return lv / rv
    return None


def _to_linexpr(expr: Expr, params: dict[str, int]) -> LinExpr | None:
    """Convert a parsed expression into a LinExpr over param symbols."""
    if isinstance(expr, Const):
        if expr.value != int(expr.value):
            return None
        return LinExpr(int(expr.value))
    if isinstance(expr, ScalarRef):
        # keep params symbolic so sections print as in the paper
        if expr.name in params:
            return LinExpr.of(expr.name)
        return LinExpr.of(expr.name)
    if isinstance(expr, UnaryOp):
        inner = _to_linexpr(expr.operand, params)
        return None if inner is None else -inner
    if isinstance(expr, BinOp):
        left = _to_linexpr(expr.left, params)
        right = _to_linexpr(expr.right, params)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left.is_constant:
                return right * left.const
            if right.is_constant:
                return left * right.const
            return None
    return None


def parse_program(source: str, bindings: dict[str, int] | None = None,
                  name: str = "MAIN") -> Program:
    """Parse HPF ``source`` into an IR :class:`~repro.ir.program.Program`.

    Parameters
    ----------
    source:
        Fortran 90 / HPF text (the subset described in
        :mod:`repro.frontend`).
    bindings:
        Values for size parameters used in declarations but not bound by a
        ``PARAMETER`` statement, e.g. ``{"N": 512}``.
    name:
        Program name used in reports.
    """
    symbols = SymbolTable()
    for key, value in (bindings or {}).items():
        symbols.bind_param(key, int(value))
    parser = _Parser(tokenize(source), symbols)
    body = parser.parse()
    program = Program(symbols, body, name=name,
                      processors=parser.processors)
    program.validate()
    return program
