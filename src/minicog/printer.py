"""Canonical source renderer.

``parse_source(pretty_print(tree))`` is structurally identical to ``tree``
(spans aside). Output is deterministic: 4-space indents, one statement per
line, minimal parentheses driven by ``ast.BINARY_PRECEDENCE``, the table the
parser climbs.

Expressions and statements are each printed by an explicit stack of pieces,
so a chain or a nesting of any depth prints: an expression's pieces are
strings and subexpressions still to print, a program's pieces are finished
lines and statements still to print, each with its indentation depth. Both
walks dispatch on a node's exact class (see ``minicog.ast``).
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
_CLASS_PREC = {Assign: _PREC_ASSIGN, CompoundAssign: _PREC_ASSIGN, Unary: _PREC_UNARY}
_FIXED = {BreakStmt: "break;", ContinueStmt: "continue;", EmptyStmt: ";"}


def _prec(expr: Expr) -> int:
    if expr.__class__ is Binary:
        return BINARY_PRECEDENCE[expr.op]
    return _CLASS_PREC.get(expr.__class__, _PREC_POSTFIX)


def _wrapped(e: Expr, min_prec: int) -> list:
    """``e`` in a position that binds at ``min_prec``, parenthesized if it binds looser."""
    return ["(", e, ")"] if _prec(e) < min_prec else [e]


def _pieces(e: Expr) -> list:
    """The text of ``e`` as strings and subexpressions still to print, in order."""
    cls = e.__class__
    if cls is VarRef:
        return [e.name]
    if cls is Binary:
        # left-associative: right child needs parens at equal precedence
        p = BINARY_PRECEDENCE[e.op]
        return [*_wrapped(e.lhs, p), f" {e.op} ", *_wrapped(e.rhs, p + 1)]
    if cls is Literal:
        return [e.text]
    if cls is Assign or cls is CompoundAssign:
        # nothing binds looser than an assignment, so the value is never parenthesized
        op = " = " if cls is Assign else f" {e.op} "
        return [*_wrapped(e.target, _PREC_POSTFIX), op, e.value]
    if cls is Call:
        out: list = [f"{e.callee}("]
        for i, arg in enumerate(e.args):
            if i:
                out.append(", ")
            out.append(arg)
        out.append(")")
        return out
    if cls is Unary:
        # Only a unary `-` operand prints starting with `-`: a binary or an
        # assignment is parenthesized, a postfix base is an atom or
        # parenthesized, and no literal has a sign.
        if e.op == "-" and e.operand.__class__ is Unary and e.operand.op == "-":
            return ["-(", e.operand, ")"]  # avoid `--x` lexing as a decrement
        return [e.op, *_wrapped(e.operand, _PREC_UNARY)]
    if cls is Increment or cls is Decrement:
        return [*_wrapped(e.target, _PREC_POSTFIX), "++" if cls is Increment else "--"]
    if cls is Member:
        return [*_wrapped(e.obj, _PREC_POSTFIX), f".{e.member}"]
    if cls is Index:
        return [*_wrapped(e.base, _PREC_POSTFIX), "[", e.index, "]"]
    if cls is GlobalRef:
        return [f"::{e.name}"]
    raise TypeError(f"unprintable expression {cls.__name__}")


def _expr(e: Expr) -> str:
    """Render an expression by an explicit stack of pieces, so a chain of any
    length prints."""
    text: list[str] = []
    todo: list = [e]  # the next piece is last
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            text.append(piece)
        else:
            todo += _pieces(piece)[::-1]
    return "".join(text)


def _marker(ty: TypeRef) -> str:
    """The array marker of ``ty``: ``[]``, ``[size]`` or nothing."""
    if not ty.is_array:
        return ""
    return "[]" if ty.array_size is None else f"[{ty.array_size}]"


def _type(ty: TypeRef, name: str) -> str:
    """A parameter, field or return type and its name: the parser reads their
    array marker only after the type (``int[] a``)."""
    return f"{ty.name}{_marker(ty)} {name}"


def _decl(d: DeclStmt) -> str:
    head = f"{d.type.name} {d.name}{_marker(d.type)}"  # a declaration's marker follows its name
    if d.init_list is not None:
        return f"{head} = {{{', '.join(_expr(e) for e in d.init_list)}}};"
    if d.init is not None:
        return f"{head} = {_expr(d.init)};"
    return f"{head};"


def _body(s: Stmt, d: int) -> tuple[int, Stmt]:
    """A statement in if/loop body position: a block keeps its braces at the
    header's depth, any other statement is indented one more."""
    return (d if s.__class__ is Block else d + 1, s)


def _lines(s, d: int) -> list[tuple[int, object]]:
    """The lines of item or statement ``s`` at depth ``d``, as (depth, text)
    lines and (depth, statement) pieces still to print, in order."""
    cls = s.__class__
    if cls is ExprStmt:
        return [(d, f"{_expr(s.expr)};")]
    if cls is DeclStmt:
        return [(d, _decl(s))]
    if cls is Block:
        return [(d, "{"), *[(d + 1, inner) for inner in s.stmts], (d, "}")]
    if cls is IfStmt:
        out = [(d, f"if ({_expr(s.cond)})"), _body(s.then, d)]
        if s.orelse is not None:
            out += [(d, "else"), _body(s.orelse, d)]
        return out
    if cls is ReturnStmt:
        return [(d, "return;" if s.value is None else f"return {_expr(s.value)};")]
    if cls in _FIXED:
        return [(d, _FIXED[cls])]
    if cls is WhileStmt:
        return [(d, f"while ({_expr(s.cond)})"), _body(s.body, d)]
    if cls is ForStmt:
        if s.init is None:
            init = ";"
        elif s.init.__class__ is DeclStmt:
            init = _decl(s.init)
        else:
            init = f"{_expr(s.init.expr)};"
        cond = "" if s.cond is None else f" {_expr(s.cond)}"
        update = "" if s.update is None else f" {_expr(s.update)}"
        return [(d, f"for ({init}{cond};{update})"), _body(s.body, d)]
    if cls is DoWhileStmt:
        return [(d, "do"), _body(s.body, d), (d, f"while ({_expr(s.cond)});")]
    if cls is SwitchStmt:
        out = [(d, f"switch ({_expr(s.scrutinee)})"), (d, "{")]
        for arm in s.arms:
            out.append((d + 1, "default:" if arm.label is None else f"case {arm.label}:"))
            out += [(d + 2, inner) for inner in arm.body]
        out.append((d, "}"))
        return out
    if cls is GotoStmt:
        return [(d, f"goto {s.label};")]
    if cls is LabeledStmt:
        return [(d, f"{s.label}:"), (d, s.stmt)]
    if cls is FuncDef:
        params = ", ".join(_type(p.type, p.name) for p in s.params)
        return [(d, f"{_type(s.ret_type, s.name)}({params})"), (d, s.body)]
    if cls is RecordDef:
        fields = [(d + 1, f"{_type(f.type, f.name)};") for f in s.fields]
        return [(d, f"struct {s.name}"), (d, "{"), *fields, (d, "};")]
    raise TypeError(f"unprintable {cls.__name__}")


def pretty_print(tree: SyntaxTree) -> str:
    """The program's text, printed by an explicit stack of (depth, piece),
    each piece a finished line or an item or statement still to print."""
    lines: list[str] = []
    todo: list = []  # the next piece is last; a blank line between items
    for item in reversed(tree.items):
        if todo:
            todo.append((0, ""))
        todo.append((0, item))
    while todo:
        d, piece = todo.pop()
        if piece.__class__ is str:
            lines.append("    " * d + piece)
        else:
            todo += _lines(piece, d)[::-1]
    return "\n".join(lines) + "\n"
