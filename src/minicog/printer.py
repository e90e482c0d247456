"""Canonical source renderer.

``parse_source(pretty_print(tree))`` is structurally identical to ``tree``
(spans aside). Output is deterministic: 4-space indents, one statement per
line, minimal parentheses driven by ``ast.BINARY_PRECEDENCE``, the table the
parser climbs.
"""

from __future__ import annotations

from .ast import (
    Assign, Binary, Block, BreakStmt, Call, CompoundAssign, ContinueStmt,
    Decrement, DeclStmt, DoWhileStmt, EmptyStmt, Expr, ExprStmt, ForStmt,
    FuncDef, GlobalRef, GotoStmt, IfStmt, Increment, Index, LabeledStmt,
    Literal, Member, RecordDef, ReturnStmt, Stmt, SwitchStmt, SyntaxTree,
    TypeRef, Unary, VarRef, WhileStmt, BINARY_PRECEDENCE,
)

_PREC_ASSIGN = 0
_PREC_UNARY = 7
_PREC_POSTFIX = 8


def _prec(expr: Expr) -> int:
    if isinstance(expr, (Assign, CompoundAssign)):
        return _PREC_ASSIGN
    if isinstance(expr, Binary):
        return BINARY_PRECEDENCE[expr.op]
    if isinstance(expr, Unary):
        return _PREC_UNARY
    return _PREC_POSTFIX


def _wrapped(e: Expr, min_prec: int) -> list:
    """``e`` in a position that binds at ``min_prec``, parenthesized if it binds looser."""
    return ["(", e, ")"] if _prec(e) < min_prec else [e]


def _left_edge(e: Expr) -> tuple[Expr, int] | None:
    """The operand printed first in ``e`` and the precedence it is printed at."""
    if isinstance(e, Binary):
        return e.lhs, BINARY_PRECEDENCE[e.op]
    if isinstance(e, (Assign, CompoundAssign, Increment, Decrement)):
        return e.target, _PREC_POSTFIX
    if isinstance(e, Member):
        return e.obj, _PREC_POSTFIX
    if isinstance(e, Index):
        return e.base, _PREC_POSTFIX
    return None


def _starts_with_minus(e: Expr) -> bool:
    """Whether the text of ``e`` begins with ``-``, found by a loop down its left edge."""
    while True:
        if isinstance(e, Unary):
            return e.op == "-"
        if isinstance(e, Literal):
            return e.text.startswith("-")
        edge = _left_edge(e)
        if edge is None or _prec(edge[0]) < edge[1]:
            return False  # a name, a call or a parenthesis comes first
        e = edge[0]


def _pieces(e: Expr) -> list:
    """The text of ``e`` as strings and subexpressions still to print, in order."""
    if isinstance(e, Literal):
        return [e.text]
    if isinstance(e, VarRef):
        return [e.name]
    if isinstance(e, GlobalRef):
        return [f"::{e.name}"]
    if isinstance(e, Member):
        return [*_wrapped(e.obj, _PREC_POSTFIX), f".{e.member}"]
    if isinstance(e, Index):
        return [*_wrapped(e.base, _PREC_POSTFIX), "[", e.index, "]"]
    if isinstance(e, Call):
        out: list = [f"{e.callee}("]
        for i, arg in enumerate(e.args):
            if i:
                out.append(", ")
            out.append(arg)
        out.append(")")
        return out
    if isinstance(e, Unary):
        inner = _wrapped(e.operand, _PREC_UNARY)
        if e.op == "-" and len(inner) == 1 and _starts_with_minus(e.operand):
            inner = ["(", e.operand, ")"]  # avoid `--x` lexing as a decrement
        return [e.op, *inner]
    if isinstance(e, Binary):
        # left-associative: right child needs parens at equal precedence
        p = BINARY_PRECEDENCE[e.op]
        return [*_wrapped(e.lhs, p), f" {e.op} ", *_wrapped(e.rhs, p + 1)]
    if isinstance(e, Assign):
        return [*_wrapped(e.target, _PREC_POSTFIX), " = ", *_wrapped(e.value, _PREC_ASSIGN)]
    if isinstance(e, CompoundAssign):
        return [*_wrapped(e.target, _PREC_POSTFIX), f" {e.op} ", *_wrapped(e.value, _PREC_ASSIGN)]
    if isinstance(e, Increment):
        return [*_wrapped(e.target, _PREC_POSTFIX), "++"]
    if isinstance(e, Decrement):
        return [*_wrapped(e.target, _PREC_POSTFIX), "--"]
    raise TypeError(f"unprintable expression {type(e).__name__}")


def _expr(e: Expr) -> str:
    """Render an expression by an explicit stack of pieces, so a chain of any
    length prints."""
    text: list[str] = []
    todo: list = [e]  # the next piece is last
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            text.append(piece)
        else:
            todo.extend(reversed(_pieces(piece)))
    return "".join(text)


def _type(ty: TypeRef, name: str) -> str:
    if ty.is_array:
        size = "" if ty.array_size is None else str(ty.array_size)
        return f"{ty.name} {name}[{size}]"
    return f"{ty.name} {name}"


def _decl(d: DeclStmt) -> str:
    head = _type(d.type, d.name)
    if d.init_list is not None:
        return f"{head} = {{{', '.join(_expr(e) for e in d.init_list)}}};"
    if d.init is not None:
        return f"{head} = {_expr(d.init)};"
    return f"{head};"


class _Printer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, DeclStmt):
            self.emit(_decl(s))
        elif isinstance(s, ExprStmt):
            self.emit(f"{_expr(s.expr)};")
        elif isinstance(s, Block):
            self.emit("{")
            self.depth += 1
            for inner in s.stmts:
                self.stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, IfStmt):
            self.emit(f"if ({_expr(s.cond)})")
            self.body(s.then)
            if s.orelse is not None:
                self.emit("else")
                self.body(s.orelse)
        elif isinstance(s, SwitchStmt):
            self.emit(f"switch ({_expr(s.scrutinee)})")
            self.emit("{")
            self.depth += 1
            for arm in s.arms:
                self.emit("default:" if arm.label is None else f"case {arm.label}:")
                self.depth += 1
                for inner in arm.body:
                    self.stmt(inner)
                self.depth -= 1
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, WhileStmt):
            self.emit(f"while ({_expr(s.cond)})")
            self.body(s.body)
        elif isinstance(s, DoWhileStmt):
            self.emit("do")
            self.body(s.body)
            self.emit(f"while ({_expr(s.cond)});")
        elif isinstance(s, ForStmt):
            if s.init is None:
                init = ";"
            elif isinstance(s.init, DeclStmt):
                init = _decl(s.init)
            else:
                init = f"{_expr(s.init.expr)};"
            cond = "" if s.cond is None else f" {_expr(s.cond)}"
            update = "" if s.update is None else f" {_expr(s.update)}"
            self.emit(f"for ({init}{cond};{update})")
            self.body(s.body)
        elif isinstance(s, ReturnStmt):
            self.emit("return;" if s.value is None else f"return {_expr(s.value)};")
        elif isinstance(s, BreakStmt):
            self.emit("break;")
        elif isinstance(s, ContinueStmt):
            self.emit("continue;")
        elif isinstance(s, GotoStmt):
            self.emit(f"goto {s.label};")
        elif isinstance(s, LabeledStmt):
            self.emit(f"{s.label}:")
            self.stmt(s.stmt)
        elif isinstance(s, EmptyStmt):
            self.emit(";")
        else:
            raise TypeError(f"unprintable statement {type(s).__name__}")

    def body(self, s: Stmt) -> None:
        """A statement in if/loop body position; blocks keep their braces."""
        if isinstance(s, Block):
            self.stmt(s)
        else:
            self.depth += 1
            self.stmt(s)
            self.depth -= 1


def pretty_print(tree: SyntaxTree) -> str:
    pr = _Printer()
    for i, item in enumerate(tree.items):
        if i:
            pr.lines.append("")
        if isinstance(item, RecordDef):
            pr.emit(f"struct {item.name}")
            pr.emit("{")
            pr.depth += 1
            for rfield in item.fields:
                pr.emit(f"{_type(rfield.type, rfield.name)};")
            pr.depth -= 1
            pr.emit("};")
        elif isinstance(item, FuncDef):
            params = ", ".join(_type(p.type, p.name) for p in item.params)
            pr.emit(f"{_type(item.ret_type, item.name)}({params})")
            pr.stmt(item.body)
        elif isinstance(item, DeclStmt):
            pr.emit(_decl(item))
        else:
            raise TypeError(f"unprintable item {type(item).__name__}")
    return "\n".join(pr.lines) + "\n"
