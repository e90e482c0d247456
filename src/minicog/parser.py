"""Recursive-descent parser for MiniC; binary operators by precedence climbing.

Grammar (informal):

    program    := item*
    item       := record_def | func_def | decl_stmt
    record_def := "struct" IDENT "{" (type IDENT ";")* "}" ";"
    type       := ("int"|"float"|"bool"|IDENT) ("[" INT? "]")?
    func_def   := type IDENT "(" (type IDENT ("," type IDENT)*)? ")" block
    stmt       := decl_stmt | expr ";" | if | switch | while | do-while | for
                | "return" expr? ";" | "break" ";" | "continue" ";"
                | "goto" IDENT ";" | IDENT ":" stmt | block | ";"
    expr       := binary (("=" | "+=" | "-=" | "*=" | "/=" | "%=") expr)?
    binary     := unary (BINOP unary)*
    unary      := ("!" | "-") unary | postfix
    postfix    := primary ("[" expr "]" | "." IDENT | "++" | "--" | "(" args ")")*
    primary    := LITERAL | IDENT | "::" IDENT | "(" expr ")"

Assignment is right-associative. Each BINOP is left-associative at its level
of ``ast.BINARY_PRECEDENCE``, loosest first: ``||``; ``&&``; ``==`` ``!=``;
``<`` ``>`` ``<=`` ``>=``; ``+`` ``-``; ``*`` ``/`` ``%``.

The array marker is accepted both on the type (``int[] a``) and after the
name (``int a[10]``); both normalize to the same TypeRef. String literals
are only legal as direct arguments of the builtin ``print``.
"""

from __future__ import annotations

from .ast import (
    Assign, Binary, Block, BreakStmt, Call, CaseArm, CompoundAssign, ContinueStmt,
    Decrement, DeclStmt, DoWhileStmt, EmptyStmt, Expr, ExprStmt, ForStmt, FuncDef,
    GlobalRef, GotoStmt, IfStmt, Increment, Index, LabeledStmt, Literal, Member, Node, Param,
    RecordDef, RecordField, ReturnStmt, Stmt, SwitchStmt, SyntaxTree, TypeRef,
    Unary, VarRef, WhileStmt, BINARY_PRECEDENCE,
)
from .errors import ParseError
from .lexer import SourceSpan, Token, tokenize

TYPE_KEYWORDS = ("int", "float", "bool")
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
ASSIGNABLE = (VarRef, GlobalRef, Index, Member)


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0

    # ------------------------------------------------------------ plumbing

    def _eof_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1].span
            return SourceSpan(self.file, last.line_end, last.col_end, last.line_end, last.col_end)
        return SourceSpan(self.file, 1, 1, 1, 1)

    def peek(self, ahead: int = 0) -> Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def at(self, text: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok.text == text

    def at_kind(self, kind: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok.kind == kind

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_span())
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            span = tok.span if tok else self._eof_span()
            found = repr(tok.text) if tok else "end of input"
            raise ParseError(f"expected {text!r}, found {found}", span, expected=frozenset({text}))
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "identifier":
            span = tok.span if tok else self._eof_span()
            found = repr(tok.text) if tok else "end of input"
            raise ParseError(f"expected identifier, found {found}", span, expected=frozenset({"IDENT"}))
        return self.advance()

    def _spanned(self, node: Node, start_idx: int) -> Node:
        first = self.tokens[start_idx].span
        last = self.tokens[self.pos - 1].span if self.pos > 0 else first
        node.span = SourceSpan(self.file, first.line_start, first.col_start, last.line_end, last.col_end)
        return node

    # ------------------------------------------------------------ items

    def parse_program(self) -> SyntaxTree:
        items = []
        while self.peek() is not None:
            items.append(self.parse_item())
        return SyntaxTree(items, file=self.file)

    def parse_item(self):
        if self.at("struct"):
            return self.parse_record_def()
        start = self.pos
        ty = self.parse_type()
        name = self.expect_ident()
        if self.at("("):
            return self.parse_func_def(ty, name.text, start)
        return self.parse_decl_tail(ty, name.text, start)

    def parse_record_def(self) -> RecordDef:
        start = self.pos
        self.expect("struct")
        name = self.expect_ident().text
        self.expect("{")
        members: list[RecordField] = []
        while not self.at("}"):
            fstart = self.pos
            fty = self.parse_type()
            fname = self.expect_ident().text
            self.expect(";")
            members.append(self._spanned(RecordField(fty, fname), fstart))
        self.expect("}")
        self.expect(";")
        return self._spanned(RecordDef(name, members), start)

    def parse_type(self) -> TypeRef:
        start = self.pos
        tok = self.peek()
        if tok is None or not (tok.text in TYPE_KEYWORDS or tok.kind == "identifier"):
            span = tok.span if tok else self._eof_span()
            raise ParseError(
                "expected a type", span, expected=frozenset(TYPE_KEYWORDS) | {"IDENT"}
            )
        self.advance()
        ty = TypeRef(tok.text)
        if self.at("["):
            self.parse_array_marker(ty)
        return self._spanned(ty, start)

    def parse_array_marker(self, ty: TypeRef) -> None:
        """``[`` INT? ``]`` after a type or a declared name; marks ``ty`` an array."""
        if ty.is_array:
            raise ParseError("duplicate array marker", self.peek().span)
        self.advance()
        if self.at_kind("int-literal"):
            ty.array_size = int(self.advance().text)
        self.expect("]")
        ty.is_array = True

    def parse_func_def(self, ret_type: TypeRef, name: str, start: int) -> FuncDef:
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                pstart = self.pos
                pty = self.parse_type()
                pname = self.expect_ident().text
                params.append(self._spanned(Param(pty, pname), pstart))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return self._spanned(FuncDef(ret_type, name, params, body), start)

    def parse_decl_tail(self, ty: TypeRef, name: str, start: int) -> DeclStmt:
        # C-style array marker after the name.
        if self.at("["):
            self.parse_array_marker(ty)
        init = None
        init_list = None
        if self.at("="):
            self.advance()
            if self.at("{"):
                self.advance()
                init_list = [self.parse_expr()]
                while self.at(","):
                    self.advance()
                    init_list.append(self.parse_expr())
                self.expect("}")
            else:
                init = self.parse_expr()
        self.expect(";")
        return self._spanned(DeclStmt(ty, name, init, init_list), start)

    # ------------------------------------------------------------ statements

    def parse_block(self) -> Block:
        start = self.pos
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.peek() is None:
                raise ParseError("unterminated block", self._eof_span(), expected=frozenset({"}"}))
            stmts.append(self.parse_stmt())
        self.expect("}")
        return self._spanned(Block(stmts), start)

    def _starts_decl(self) -> bool:
        tok = self.peek()
        if tok is None:
            return False
        if tok.text in TYPE_KEYWORDS:
            return True
        if tok.kind != "identifier":
            return False
        # `Point p ...` / `Point[] p ...` / `Point[3] p ...`
        if self.at_kind("identifier", 1):
            return True
        if self.at("[", 1):
            if self.at("]", 2) :
                return True
            if self.at_kind("int-literal", 2) and self.at("]", 3) and self.at_kind("identifier", 4):
                return True
        return False

    def parse_stmt(self) -> Stmt:
        start = self.pos
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a statement", self._eof_span())
        if tok.text == "{":
            return self.parse_block()
        if tok.text == ";":
            self.advance()
            return self._spanned(EmptyStmt(), start)
        if tok.text == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            orelse = None
            if self.at("else"):
                self.advance()
                orelse = self.parse_stmt()
            return self._spanned(IfStmt(cond, then, orelse), start)
        if tok.text == "switch":
            return self.parse_switch(start)
        if tok.text == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_stmt()
            return self._spanned(WhileStmt(cond, body), start)
        if tok.text == "do":
            self.advance()
            body = self.parse_stmt()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return self._spanned(DoWhileStmt(body, cond), start)
        if tok.text == "for":
            return self.parse_for(start)
        if tok.text == "return":
            self.advance()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return self._spanned(ReturnStmt(value), start)
        if tok.text == "break":
            self.advance()
            self.expect(";")
            return self._spanned(BreakStmt(), start)
        if tok.text == "continue":
            self.advance()
            self.expect(";")
            return self._spanned(ContinueStmt(), start)
        if tok.text == "goto":
            self.advance()
            label = self.expect_ident().text
            self.expect(";")
            return self._spanned(GotoStmt(label), start)
        if tok.kind == "identifier" and self.at(":", 1):
            self.advance()
            self.advance()
            inner = self.parse_stmt()
            return self._spanned(LabeledStmt(tok.text, inner), start)
        return self.parse_decl_or_expr_stmt()

    def parse_decl_or_expr_stmt(self) -> Stmt:
        start = self.pos
        if self._starts_decl():
            ty = self.parse_type()
            return self.parse_decl_tail(ty, self.expect_ident().text, start)
        expr = self.parse_expr()
        self.expect(";")
        return self._spanned(ExprStmt(expr), start)

    def parse_switch(self, start: int) -> SwitchStmt:
        self.expect("switch")
        self.expect("(")
        scrutinee = self.parse_expr()
        self.expect(")")
        self.expect("{")
        arms: list[CaseArm] = []
        while not self.at("}"):
            astart = self.pos
            if self.at("case"):
                self.advance()
                lit = self.peek()
                if lit is None or lit.kind not in ("int-literal", "float-literal", "string-literal"):
                    span = lit.span if lit else self._eof_span()
                    raise ParseError("expected a literal case label", span, expected=frozenset({"LITERAL"}))
                self.advance()
                label = lit.text
            elif self.at("default"):
                self.advance()
                label = None
            else:
                raise ParseError(
                    "expected 'case' or 'default'", self.peek().span,
                    expected=frozenset({"case", "default"}),
                )
            self.expect(":")
            body: list[Stmt] = []
            while not (self.at("case") or self.at("default") or self.at("}")):
                body.append(self.parse_stmt())
            arms.append(self._spanned(CaseArm(label, body), astart))
        self.expect("}")
        return self._spanned(SwitchStmt(scrutinee, arms), start)

    def parse_for(self, start: int) -> ForStmt:
        self.expect("for")
        self.expect("(")
        init = None if self.at(";") else self.parse_decl_or_expr_stmt()
        if init is None:
            self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        update = None if self.at(")") else self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return self._spanned(ForStmt(init, cond, update, body), start)

    # ------------------------------------------------------------ expressions

    def parse_expr(self) -> Expr:
        start = self.pos
        lhs = self.parse_binary(1)
        tok = self.peek()
        if tok is not None and tok.text in ASSIGN_OPS:
            if not isinstance(lhs, ASSIGNABLE):
                raise ParseError("invalid assignment target", tok.span)
            self.advance()
            rhs = self.parse_expr()
            if tok.text == "=":
                return self._spanned(Assign(lhs, rhs), start)
            return self._spanned(CompoundAssign(tok.text, lhs, rhs), start)
        return lhs

    def parse_binary(self, min_prec: int) -> Expr:
        """Operators binding at least as tightly as ``min_prec``, left-associated."""
        start = self.pos
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            prec = BINARY_PRECEDENCE.get(tok.text, 0) if tok is not None else 0
            if prec < min_prec:
                return lhs
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = self._spanned(Binary(tok.text, lhs, rhs), start)

    def parse_unary(self) -> Expr:
        start = self.pos
        tok = self.peek()
        if tok is not None and tok.text in ("!", "-"):
            self.advance()
            operand = self.parse_unary()
            return self._spanned(Unary(tok.text, operand), start)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        start = self.pos
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok is None:
                return expr
            if tok.text == "[":
                self.advance()
                idx = self.parse_expr()
                self.expect("]")
                expr = self._spanned(Index(expr, idx), start)
            elif tok.text == ".":
                self.advance()
                member = self.expect_ident().text
                expr = self._spanned(Member(expr, member), start)
            elif tok.text in ("++", "--"):
                if not isinstance(expr, ASSIGNABLE):
                    raise ParseError(f"invalid {tok.text} target", tok.span)
                self.advance()
                cls = Increment if tok.text == "++" else Decrement
                expr = self._spanned(cls(expr), start)
            elif tok.text == "(":
                if not isinstance(expr, VarRef):
                    raise ParseError("call target must be a simple name", tok.span)
                self.advance()
                args: list[Expr] = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.at(","):
                        self.advance()
                        args.append(self.parse_expr())
                self.expect(")")
                expr = self._spanned(Call(expr.name, args), start)
            else:
                return expr

    def parse_primary(self) -> Expr:
        start = self.pos
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an expression", self._eof_span())
        if tok.kind == "int-literal":
            self.advance()
            return self._spanned(Literal("int", tok.text), start)
        if tok.kind == "float-literal":
            self.advance()
            return self._spanned(Literal("float", tok.text), start)
        if tok.kind == "string-literal":
            self.advance()
            return self._spanned(Literal("string", tok.text), start)
        if tok.text in ("true", "false"):
            self.advance()
            return self._spanned(Literal("bool", tok.text), start)
        if tok.text == "::":
            self.advance()
            name = self.expect_ident().text
            return self._spanned(GlobalRef(name), start)
        if tok.kind == "identifier":
            self.advance()
            return self._spanned(VarRef(tok.text), start)
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected token {tok.text!r}", tok.span,
            expected=frozenset({"IDENT", "LITERAL", "(", "::"}),
        )


def _check_string_literals(tree: SyntaxTree) -> None:
    # Strings are only allowed as direct arguments of print(...).
    for nid, node in tree.nodes.items():
        if isinstance(node, Literal) and node.kind == "string":
            parent = tree.nodes.get(tree.parents.get(nid, -1))
            if isinstance(parent, Call) and parent.callee == "print":
                continue
            raise ParseError("string literal only allowed as a print argument", node.span)


def parse(tokens: list[Token], file: str = "<input>") -> SyntaxTree:
    """Parse a token list into a finalized SyntaxTree."""
    tree = _Parser(tokens, file).parse_program().finalize()
    _check_string_literals(tree)
    return tree


def parse_source(source: str, file: str = "<input>") -> SyntaxTree:
    return parse(tokenize(source, file), file)
