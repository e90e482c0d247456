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
    unary      := ("!" | "-") unary | operand ("[" expr "]" | "." IDENT | "++" | "--" | "(" args ")")*
    operand    := IDENT | primary
    primary    := LITERAL | "::" IDENT | "(" expr ")"

Assignment is right-associative. Each BINOP is left-associative at its level
of ``ast.BINARY_PRECEDENCE``, loosest first: ``||``; ``&&``; ``==`` ``!=``;
``<`` ``>`` ``<=`` ``>=``; ``+`` ``-``; ``*`` ``/`` ``%``.

The array marker is accepted both on the type (``int[] a``) and after the
name (``int a[10]``); both normalize to the same TypeRef. String literals
are only legal as direct arguments of the builtin ``print``: the parser
keeps each string literal it makes, with its token index, until a ``print``
call takes it as an argument, and once the whole file has parsed (so a
syntax error anywhere is reported first) the earliest one left is the error.

The parser reads the lexer's ``kinds`` and ``texts`` lists by token index,
with an end sentinel on them while it runs, so no lookahead needs a bounds
check. Nodes store no source position. A syntax error's ``SourceSpan`` is
built from the offending token's index. A node's span, which only a
resolution diagnostic asks for, comes from ``node_span``: it re-tokenizes
the file and re-parses it up to the top-level item that holds the node,
recording each node's first and last token index in that item alone.
"""

from __future__ import annotations

from bisect import bisect_right

from .ast import (
    Assign, Binary, Block, BreakStmt, Call, CaseArm, CompoundAssign, ContinueStmt,
    Decrement, DeclStmt, DoWhileStmt, EmptyStmt, Expr, ExprStmt, ForStmt, FuncDef,
    GlobalRef, GotoStmt, IfStmt, Increment, Index, LabeledStmt, Literal, Member, Node, Param,
    RecordDef, RecordField, ReturnStmt, Stmt, SwitchStmt, SyntaxTree, TypeRef,
    Unary, VarRef, WhileStmt, BINARY_PRECEDENCE,
)
from .errors import ParseError
from .lexer import SourceSpan, Tokens, tokenize

TYPE_KEYWORDS = ("int", "float", "bool")
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
ASSIGNABLE = (VarRef, GlobalRef, Index, Member)
# the texts that start a statement other than a declaration, an expression or a label
STMT_KEYWORDS = frozenset({"{", ";", "if", "switch", "while", "do", "for",
                           "return", "break", "continue", "goto"})
LITERAL_KINDS = frozenset({"int-literal", "float-literal", "string-literal"})
END = "end"  # the kind of the sentinel after the last token; its text is ""
# The most digits an array size may have: CPython's default limit on turning
# a decimal string into an int. Any size within it converts quickly, and the
# CLI lifts the limit, so the parser bounds the conversion itself.
MAX_SIZE_DIGITS = 4300


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.kinds = tokens.kinds  # the lists themselves: see `parse_program`
        self.texts = tokens.texts
        self.spans: dict[Node, tuple[int, int]] | None = None  # (first, last) token: see `node_span`
        self.pos = 0
        # string literals not (yet) a direct argument of print, in source
        # order, each with its token index
        self.strings: dict[Literal, int] = {}

    # ------------------------------------------------------------ plumbing

    def _found(self, pos: int) -> str:
        return "end of input" if self.kinds[pos] == END else repr(self.texts[pos])

    def expect(self, text: str) -> None:
        pos = self.pos
        if self.texts[pos] != text:
            raise ParseError(f"expected {text!r}, found {self._found(pos)}", self.tokens.span(pos))
        self.pos = pos + 1

    def expect_ident(self) -> str:
        pos = self.pos
        if self.kinds[pos] != "identifier":
            raise ParseError(f"expected identifier, found {self._found(pos)}",
                             self.tokens.span(pos))
        self.pos = pos + 1
        return self.texts[pos]

    def _spanned(self, node: Node, start_idx: int) -> Node:
        """Record that ``node`` runs from token ``start_idx`` to the last one
        read, if this parser keeps spans; the node itself stores nothing."""
        if self.spans is not None:
            self.spans[node] = (start_idx, self.pos - 1)
        return node

    # ------------------------------------------------------------ items

    def parse_program(self) -> SyntaxTree:
        # An end sentinel, matching no text or kind the parser looks for, makes
        # each lookahead a plain list lookup; none reaches past it, as each
        # follows a match on a real token. It is on the token lists while this runs.
        self.kinds.append(END)
        self.texts.append("")
        tree = SyntaxTree([], self.tokens.source_map)
        try:
            while self.kinds[self.pos] != END:
                tree.items.append(self.parse_item())
        finally:
            del self.kinds[-1], self.texts[-1]
        return tree

    def parse_item(self):
        if self.texts[self.pos] == "struct":
            return self.parse_record_def()
        start = self.pos
        ty = self.parse_type()
        name = self.expect_ident()
        if self.texts[self.pos] == "(":
            return self.parse_func_def(ty, name, start)
        return self.parse_decl_tail(ty, name, start)

    def parse_record_def(self) -> RecordDef:
        start = self.pos
        self.expect("struct")
        name = self.expect_ident()
        self.expect("{")
        members: list[RecordField] = []
        while self.texts[self.pos] != "}":
            fstart = self.pos
            fty = self.parse_type()
            fname = self.expect_ident()
            self.expect(";")
            members.append(self._spanned(RecordField(fty, fname), fstart))
        self.expect("}")
        self.expect(";")
        return self._spanned(RecordDef(name, members), start)

    def parse_type(self) -> TypeRef:
        start = self.pos
        text = self.texts[start]
        if not (text in TYPE_KEYWORDS or self.kinds[start] == "identifier"):
            raise ParseError("expected a type", self.tokens.span(start))
        self.pos = start + 1
        ty = TypeRef(text)
        if self.texts[self.pos] == "[":
            self.parse_array_marker(ty)
        return self._spanned(ty, start)

    def parse_array_marker(self, ty: TypeRef) -> None:
        """``[`` INT? ``]`` after a type or a declared name; marks ``ty`` an array."""
        if ty.is_array:
            raise ParseError("duplicate array marker", self.tokens.span(self.pos))
        self.pos += 1
        if self.kinds[self.pos] == "int-literal":
            if len(self.texts[self.pos]) > MAX_SIZE_DIGITS:
                raise ParseError(f"array size longer than {MAX_SIZE_DIGITS} digits",
                                 self.tokens.span(self.pos))
            ty.array_size = int(self.texts[self.pos])
            self.pos += 1
        self.expect("]")
        ty.is_array = True

    def parse_func_def(self, ret_type: TypeRef, name: str, start: int) -> FuncDef:
        self.expect("(")
        params: list[Param] = []
        if self.texts[self.pos] != ")":
            while True:
                pstart = self.pos
                pty = self.parse_type()
                pname = self.expect_ident()
                params.append(self._spanned(Param(pty, pname), pstart))
                if self.texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        body = self.parse_block()
        return self._spanned(FuncDef(ret_type, name, params, body), start)

    def parse_decl_tail(self, ty: TypeRef, name: str, start: int) -> DeclStmt:
        texts = self.texts
        # C-style array marker after the name.
        if texts[self.pos] == "[":
            self.parse_array_marker(ty)
        init = None
        init_list = None
        if texts[self.pos] == "=":
            self.pos += 1
            if texts[self.pos] == "{":
                self.pos += 1
                init_list = [self.parse_expr()]
                while texts[self.pos] == ",":
                    self.pos += 1
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
        while self.texts[self.pos] != "}":
            if self.kinds[self.pos] == END:
                raise ParseError("unterminated block", self.tokens.span(self.pos))
            stmts.append(self.parse_stmt())
        self.pos += 1
        return self._spanned(Block(stmts), start)

    def _starts_decl(self) -> bool:
        pos, kinds, texts = self.pos, self.kinds, self.texts
        if texts[pos] in TYPE_KEYWORDS:
            return True
        if kinds[pos] != "identifier":
            return False
        # `Point p ...` / `Point[] p ...` / `Point[3] p ...`
        if kinds[pos + 1] == "identifier":
            return True
        if texts[pos + 1] == "[":
            if texts[pos + 2] == "]":
                return True
            if kinds[pos + 2] == "int-literal" and texts[pos + 3] == "]" and kinds[pos + 4] == "identifier":
                return True
        return False

    def _no_decl_body(self, keyword: str) -> None:
        """The body of ``keyword`` is a statement (C11 6.8.4, 6.8.5), which a
        declaration is not (6.8). Returns before the body is parsed, so the
        body's nesting costs no extra frame."""
        if self._starts_decl():
            raise ParseError(f"a declaration cannot be the body of {keyword!r}",
                             self.tokens.span(self.pos))

    def parse_stmt(self) -> Stmt:
        start = self.pos
        text = self.texts[start]
        if text not in STMT_KEYWORDS:  # most statements: one lookup, not eleven comparisons
            kind = self.kinds[start]
            if kind == END:
                raise ParseError("expected a statement", self.tokens.span(start))
            if kind == "identifier" and self.texts[start + 1] == ":":
                self.pos += 2
                inner = self.parse_stmt()
                return self._spanned(LabeledStmt(text, inner), start)
            return self.parse_decl_or_expr_stmt()
        if text == "{":
            return self.parse_block()
        if text == ";":
            self.pos += 1
            return self._spanned(EmptyStmt(), start)
        if text == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self._no_decl_body("if")
            then = self.parse_stmt()
            orelse = None
            if self.texts[self.pos] == "else":
                self.pos += 1
                self._no_decl_body("else")
                orelse = self.parse_stmt()
            return self._spanned(IfStmt(cond, then, orelse), start)
        if text == "switch":
            return self.parse_switch(start)
        if text == "while":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self._no_decl_body("while")
            body = self.parse_stmt()
            return self._spanned(WhileStmt(cond, body), start)
        if text == "do":
            self.pos += 1
            self._no_decl_body("do")
            body = self.parse_stmt()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return self._spanned(DoWhileStmt(body, cond), start)
        if text == "for":
            return self.parse_for(start)
        if text == "return":
            self.pos += 1
            value = None if self.texts[self.pos] == ";" else self.parse_expr()
            self.expect(";")
            return self._spanned(ReturnStmt(value), start)
        if text == "break":
            self.pos += 1
            self.expect(";")
            return self._spanned(BreakStmt(), start)
        if text == "continue":
            self.pos += 1
            self.expect(";")
            return self._spanned(ContinueStmt(), start)
        self.pos += 1  # the keyword left is `goto`
        label = self.expect_ident()
        self.expect(";")
        return self._spanned(GotoStmt(label), start)

    def parse_decl_or_expr_stmt(self) -> Stmt:
        start = self.pos
        if self._starts_decl():
            ty = self.parse_type()
            return self.parse_decl_tail(ty, self.expect_ident(), start)
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
        texts = self.texts
        while texts[self.pos] != "}":
            astart = self.pos
            if texts[astart] == "case":
                self.pos += 1
                kind = self.kinds[self.pos]
                if kind != "int-literal":  # C11 6.8.4.2p3: an integer constant
                    raise ParseError("a case label must be an integer" if kind in LITERAL_KINDS
                                     else "expected a literal case label", self.tokens.span(self.pos))
                label = texts[self.pos]
                self.pos += 1
            elif texts[astart] == "default":
                self.pos += 1
                label = None
            else:
                raise ParseError("expected 'case' or 'default'", self.tokens.span(astart))
            self.expect(":")
            body: list[Stmt] = []
            while texts[self.pos] not in ("case", "default", "}"):
                body.append(self.parse_stmt())
            arms.append(self._spanned(CaseArm(label, body), astart))
        self.pos += 1
        return self._spanned(SwitchStmt(scrutinee, arms), start)

    def parse_for(self, start: int) -> ForStmt:
        self.expect("for")
        self.expect("(")
        init = None if self.texts[self.pos] == ";" else self.parse_decl_or_expr_stmt()
        if init is None:
            self.pos += 1
        cond = None if self.texts[self.pos] == ";" else self.parse_expr()
        self.expect(";")
        update = None if self.texts[self.pos] == ")" else self.parse_expr()
        self.expect(")")
        self._no_decl_body("for")
        body = self.parse_stmt()
        return self._spanned(ForStmt(init, cond, update, body), start)

    # ------------------------------------------------------------ expressions

    def parse_expr(self) -> Expr:
        start = self.pos
        lhs = self.parse_binary(1)
        op_pos = self.pos
        op = self.texts[op_pos]
        if op in ASSIGN_OPS:
            if not isinstance(lhs, ASSIGNABLE):
                raise ParseError("invalid assignment target", self.tokens.span(op_pos))
            self.pos = op_pos + 1
            rhs = self.parse_expr()
            if op == "=":
                return self._spanned(Assign(lhs, rhs), start)
            return self._spanned(CompoundAssign(op, lhs, rhs), start)
        return lhs

    def parse_binary(self, min_prec: int) -> Expr:
        """Operators binding at least as tightly as ``min_prec``, left-associated."""
        start = self.pos
        lhs = self.parse_unary()
        while True:
            op = self.texts[self.pos]
            prec = BINARY_PRECEDENCE.get(op, 0)
            if prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self.parse_binary(prec + 1)
            lhs = self._spanned(Binary(op, lhs, rhs), start)

    def parse_unary(self) -> Expr:
        """A prefix operator and its operand, or an operand and its postfix
        operators. A name, the most common operand, is read here, not by
        ``parse_primary``: two calls fewer per name."""
        start = self.pos
        texts = self.texts
        text = texts[start]
        if text == "!" or text == "-":
            self.pos = start + 1
            operand = self.parse_unary()
            return self._spanned(Unary(text, operand), start)
        if self.kinds[start] == "identifier":
            self.pos = start + 1
            expr = self._spanned(VarRef(text), start)
        else:
            expr = self.parse_primary()
        while True:  # the postfix operators
            pos = self.pos
            text = texts[pos]
            if text == "[":
                self.pos = pos + 1
                idx = self.parse_expr()
                self.expect("]")
                expr = self._spanned(Index(expr, idx), start)
            elif text == ".":
                self.pos = pos + 1
                member = self.expect_ident()
                expr = self._spanned(Member(expr, member), start)
            elif text == "++" or text == "--":
                if not isinstance(expr, ASSIGNABLE):
                    raise ParseError(f"invalid {text} target", self.tokens.span(pos))
                self.pos = pos + 1
                cls = Increment if text == "++" else Decrement
                expr = self._spanned(cls(expr), start)
            elif text == "(":
                if not isinstance(expr, VarRef):
                    raise ParseError("call target must be a simple name", self.tokens.span(pos))
                self.pos = pos + 1
                args: list[Expr] = []
                if texts[self.pos] != ")":
                    args.append(self.parse_expr())
                    while texts[self.pos] == ",":
                        self.pos += 1
                        args.append(self.parse_expr())
                self.expect(")")
                if expr.name == "print":
                    for arg in args:
                        self.strings.pop(arg, None)
                expr = self._spanned(Call(expr.name, args), start)
            else:
                return expr

    def parse_primary(self) -> Expr:
        """An operand other than a name: a literal, ``::`` name or parenthesized expression."""
        start = self.pos
        kind, text = self.kinds[start], self.texts[start]
        if kind in LITERAL_KINDS:
            self.pos = start + 1
            literal = self._spanned(Literal(text), start)
            if kind == "string-literal":
                self.strings[literal] = start
            return literal
        if text == "true" or text == "false":
            self.pos = start + 1
            return self._spanned(Literal(text), start)
        if text == "::":
            self.pos = start + 1
            name = self.expect_ident()
            return self._spanned(GlobalRef(name), start)
        if text == "(":
            self.pos = start + 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == END:
            raise ParseError("expected an expression", self.tokens.span(start))
        raise ParseError(f"unexpected token {text!r}", self.tokens.span(start))


def parse(tokens: Tokens) -> SyntaxTree:
    """Parse a file's tokens into a finalized SyntaxTree."""
    parser = _Parser(tokens)
    tree = parser.parse_program()
    for index in parser.strings.values():  # the earliest misplaced string literal, if any
        raise ParseError("string literal only allowed as a print argument", tokens.span(index))
    return tree.finalize()


def node_span(tree: SyntaxTree, node: Node) -> SourceSpan | None:
    """The source span of a node of the finalized ``tree``, or None for a
    tree with no source map.

    Nodes store no offsets, so this re-tokenizes the file's text and
    re-parses its top-level items up to the one that holds the node (the
    items number their nodes in consecutive blocks), keeping each node's
    first and last token in that item alone. Called from ``resolve``, which
    ``analyze_source`` calls as it calls ``parse``, it enters ``parse_item``
    at the stack depth at which ``parse_program`` did, so the re-parse
    reaches every nesting that the first parse did.
    """
    source_map = tree.source_map
    if source_map is None:
        return None
    k = bisect_right(tree.items, node.nid, key=lambda item: item.nid) - 1
    tokens = tokenize(source_map.source, source_map.file)
    parser = _Parser(tokens)
    parser.kinds.append(END)  # the sentinel of `parse_program`; these tokens are discarded
    parser.texts.append("")
    items = []
    for _ in range(k):  # not a comprehension: before CPython 3.12 that is one frame deeper
        items.append(parser.parse_item())
    parser.spans = {}
    items.append(parser.parse_item())
    first, last = parser.spans[SyntaxTree(items).finalize().nodes[node.nid]]
    start = tokens.starts[first]
    return source_map.span(start, tokens.starts[last] + len(tokens.texts[last]))


def parse_source(source: str, file: str = "<input>") -> SyntaxTree:
    return parse(tokenize(source, file))
