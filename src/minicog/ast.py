"""Syntax tree for MiniC.

Nodes are plain dataclasses. Spans and node ids are attached after
construction: the parser sets spans, and ``SyntaxTree.finalize`` numbers every
node in depth-first source order and records parent links. Structural
equality (ignoring spans and ids) goes through ``fingerprint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .lexer import SourceSpan


@dataclass(eq=False)
class Node:
    span: Optional[SourceSpan] = field(default=None, init=False, repr=False)
    nid: int = field(default=-1, init=False, repr=False)


# ---------------------------------------------------------------- types

@dataclass(eq=False)
class TypeRef(Node):
    name: str  # int | float | bool | record name
    is_array: bool = False
    array_size: Optional[int] = None


# ---------------------------------------------------------------- expressions

@dataclass(eq=False)
class Expr(Node):
    pass


@dataclass(eq=False)
class Literal(Expr):
    kind: str  # int | float | string | bool
    text: str


@dataclass(eq=False)
class VarRef(Expr):
    name: str


@dataclass(eq=False)
class GlobalRef(Expr):
    name: str


@dataclass(eq=False)
class Member(Expr):
    obj: Expr
    member: str


@dataclass(eq=False)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(eq=False)
class Call(Expr):
    callee: str
    args: list[Expr]


@dataclass(eq=False)
class Unary(Expr):
    op: str  # ! -
    operand: Expr


@dataclass(eq=False)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


# Binding strength of each binary operator (higher binds tighter); every
# level is left-associative. The parser climbs it and the printer
# parenthesizes from it, so printed programs read back as the same tree.
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


@dataclass(eq=False)
class Assign(Expr):
    target: Expr
    value: Expr


@dataclass(eq=False)
class CompoundAssign(Expr):
    op: str  # += -= *= /= %=
    target: Expr
    value: Expr


@dataclass(eq=False)
class Increment(Expr):
    target: Expr


@dataclass(eq=False)
class Decrement(Expr):
    target: Expr


# ---------------------------------------------------------------- statements

@dataclass(eq=False)
class Stmt(Node):
    pass


@dataclass(eq=False)
class DeclStmt(Stmt):
    type: TypeRef
    name: str
    init: Optional[Expr] = None
    init_list: Optional[list[Expr]] = None  # aggregate initializer {e, e, ...}


@dataclass(eq=False)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(eq=False)
class IfStmt(Stmt):
    cond: Expr
    then: Stmt
    orelse: Optional[Stmt] = None


@dataclass(eq=False)
class CaseArm(Node):
    label: Optional[str]  # literal text, None for `default`
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class SwitchStmt(Stmt):
    scrutinee: Expr
    arms: list[CaseArm] = field(default_factory=list)


@dataclass(eq=False)
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt = None  # type: ignore[assignment]


@dataclass(eq=False)
class DoWhileStmt(Stmt):
    body: Stmt
    cond: Expr


@dataclass(eq=False)
class ForStmt(Stmt):
    init: Optional[Stmt]  # DeclStmt or ExprStmt
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Stmt


@dataclass(eq=False)
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass(eq=False)
class BreakStmt(Stmt):
    pass


@dataclass(eq=False)
class ContinueStmt(Stmt):
    pass


@dataclass(eq=False)
class GotoStmt(Stmt):
    label: str


@dataclass(eq=False)
class LabeledStmt(Stmt):
    label: str
    stmt: Stmt


@dataclass(eq=False)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class EmptyStmt(Stmt):
    pass


# ---------------------------------------------------------------- items

@dataclass(eq=False)
class Param(Node):
    type: TypeRef
    name: str


@dataclass(eq=False)
class FuncDef(Node):
    ret_type: TypeRef
    name: str
    params: list[Param]
    body: Block


@dataclass(eq=False)
class RecordField(Node):
    type: TypeRef
    name: str


@dataclass(eq=False)
class RecordDef(Node):
    name: str
    fields: list[RecordField]


Item = object  # RecordDef | FuncDef | DeclStmt


@dataclass(eq=False)
class SyntaxTree:
    items: list
    file: str = "<input>"
    nodes: dict[int, Node] = field(default_factory=dict, repr=False)
    parents: dict[int, int] = field(default_factory=dict, repr=False)

    def finalize(self) -> "SyntaxTree":
        """Assign depth-first node ids and parent links."""
        self.nodes = {}
        self.parents = {}
        counter = [0]

        def visit(node: Node, parent: Optional[Node]) -> None:
            node.nid = counter[0]
            counter[0] += 1
            self.nodes[node.nid] = node
            if parent is not None:
                self.parents[node.nid] = parent.nid
            for child in child_nodes(node):
                visit(child, node)

        for item in self.items:
            visit(item, None)
        return self


def child_nodes(node: Node) -> list[Node]:
    """Children in source order (used for numbering and fingerprints)."""
    out: list[Node] = []
    for f in fields(node):
        if f.name in ("span", "nid"):
            continue
        value = getattr(node, f.name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, Node))
    return out


def fingerprint(node) -> tuple:
    """Structural identity of a node/tree, ignoring spans and node ids."""
    if isinstance(node, SyntaxTree):
        return ("program", tuple(fingerprint(i) for i in node.items))
    parts: list = [type(node).__name__]
    for f in fields(node):
        if f.name in ("span", "nid"):
            continue
        value = getattr(node, f.name)
        if isinstance(value, Node):
            parts.append(fingerprint(value))
        elif isinstance(value, list):
            parts.append(tuple(fingerprint(v) if isinstance(v, Node) else v for v in value))
        else:
            parts.append(value)
    return tuple(parts)


def operator_count(node) -> int:
    """Number of operator nodes in a subtree.

    Counts unary/binary operators, compound assignments and ++/--; the plain
    assignment ``=`` is not an operator. Call parentheses, indexing and
    member access do not count.
    """
    if node is None:
        return 0
    n = 0
    if isinstance(node, (Unary, Binary, CompoundAssign, Increment, Decrement)):
        n = 1
    return n + sum(operator_count(c) for c in child_nodes(node))
