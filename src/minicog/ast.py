"""Syntax tree for MiniC.

Nodes are dataclasses with ``__slots__``. A node's id is attached after
construction: ``SyntaxTree.finalize`` numbers every node in depth-first source
order and lists the nodes in that order, so ``tree.nodes[nid]`` is the node
numbered ``nid``; the later stages name nodes by id and keep no reference to
the tree. A node stores nothing else but its fields: no source offsets, as
nothing on the success path reads where a node sits in the text. The tree
holds its file's ``SourceMap``, from which ``parser.node_span`` builds a
node's span for a diagnostic by re-parsing the file up to the node's
top-level item. The tree keeps no parent links: no stage reads them (the
parser checks string literals as it builds calls), and ``child_nodes``
gives them to whoever needs them.
Structural equality (ignoring ids) goes through ``fingerprint``.

Tree walks are table-driven, from tables read from the dataclass fields once
at import: ``NODE_FIELDS`` holds each node class's field names (without the
bookkeeping field of ``Node``), which ``fingerprint`` reads, and
``CHILD_FIELDS`` the node-holding ones, which ``child_nodes`` and
``finalize`` read, so they skip the fields that hold scalars. Every concrete
node class subclasses ``Node``, ``Expr`` or ``Stmt`` directly, and those
three are never instantiated, so a walk may dispatch on ``node.__class__``.
``finalize`` and ``fingerprint`` walk with an explicit stack, so they take
trees of any depth, such as a long ``x + ... + x`` chain, which the parser
builds as deep as it is long; a fingerprint is a flat tuple, so comparing two
does not recurse either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .lexer import SourceMap


@dataclass(eq=False, slots=True)
class Node:
    nid: int = field(default=-1, init=False, repr=False)


# ---------------------------------------------------------------- types

@dataclass(eq=False, slots=True)
class TypeRef(Node):
    name: str  # int | float | bool | record name
    is_array: bool = False
    array_size: Optional[int] = None


# ---------------------------------------------------------------- expressions

@dataclass(eq=False, slots=True)
class Expr(Node):
    pass


@dataclass(eq=False, slots=True)
class Literal(Expr):
    kind: str  # int | float | string | bool
    text: str


@dataclass(eq=False, slots=True)
class VarRef(Expr):
    name: str


@dataclass(eq=False, slots=True)
class GlobalRef(Expr):
    name: str


@dataclass(eq=False, slots=True)
class Member(Expr):
    obj: Expr
    member: str


@dataclass(eq=False, slots=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(eq=False, slots=True)
class Call(Expr):
    callee: str
    args: list[Expr]


@dataclass(eq=False, slots=True)
class Unary(Expr):
    op: str  # ! -
    operand: Expr


@dataclass(eq=False, slots=True)
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


@dataclass(eq=False, slots=True)
class Assign(Expr):
    target: Expr
    value: Expr


@dataclass(eq=False, slots=True)
class CompoundAssign(Expr):
    op: str  # += -= *= /= %=
    target: Expr
    value: Expr


@dataclass(eq=False, slots=True)
class Increment(Expr):
    target: Expr


@dataclass(eq=False, slots=True)
class Decrement(Expr):
    target: Expr


# ---------------------------------------------------------------- statements

@dataclass(eq=False, slots=True)
class Stmt(Node):
    pass


@dataclass(eq=False, slots=True)
class DeclStmt(Stmt):
    type: TypeRef
    name: str
    init: Optional[Expr] = None
    init_list: Optional[list[Expr]] = None  # aggregate initializer {e, e, ...}


@dataclass(eq=False, slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(eq=False, slots=True)
class IfStmt(Stmt):
    cond: Expr
    then: Stmt
    orelse: Optional[Stmt] = None


@dataclass(eq=False, slots=True)
class CaseArm(Node):
    label: Optional[str]  # int literal text, None for `default`
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class SwitchStmt(Stmt):
    scrutinee: Expr
    arms: list[CaseArm] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class DoWhileStmt(Stmt):
    body: Stmt
    cond: Expr


@dataclass(eq=False, slots=True)
class ForStmt(Stmt):
    init: Optional[Stmt]  # DeclStmt or ExprStmt
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Stmt


@dataclass(eq=False, slots=True)
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass(eq=False, slots=True)
class BreakStmt(Stmt):
    pass


@dataclass(eq=False, slots=True)
class ContinueStmt(Stmt):
    pass


@dataclass(eq=False, slots=True)
class GotoStmt(Stmt):
    label: str


@dataclass(eq=False, slots=True)
class LabeledStmt(Stmt):
    label: str
    stmt: Stmt


@dataclass(eq=False, slots=True)
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class EmptyStmt(Stmt):
    pass


# ---------------------------------------------------------------- items

@dataclass(eq=False, slots=True)
class Param(Node):
    type: TypeRef
    name: str


@dataclass(eq=False, slots=True)
class FuncDef(Node):
    ret_type: TypeRef
    name: str
    params: list[Param]
    body: Block


@dataclass(eq=False, slots=True)
class RecordField(Node):
    type: TypeRef
    name: str


@dataclass(eq=False, slots=True)
class RecordDef(Node):
    name: str
    fields: list[RecordField]


_BOOKKEEPING = frozenset(f.name for f in fields(Node))


# Field names of every node class, without the bookkeeping fields of `Node`,
# in declaration (source) order. With `CHILD_FIELDS`, the only reflection over
# dataclass fields in the package.
NODE_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.name not in _BOOKKEEPING)
    for cls in globals().values()
    if isinstance(cls, type) and issubclass(cls, Node)
}
_FIELDS_REVERSED = {cls: names[::-1] for cls, names in NODE_FIELDS.items()}
_NODE_CLASSES = {cls.__name__ for cls in NODE_FIELDS}


def _child_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """The fields of ``cls`` that hold nodes, in source order, each with
    whether it holds a list of them, read from the annotation strings (this
    module's annotations are not evaluated): ``C``, ``list[C]``,
    ``Optional[C]`` or ``Optional[list[C]]`` for a node class ``C``."""
    out = []
    for f in fields(cls):
        annotation = f.type
        if annotation.startswith("Optional["):
            annotation = annotation[len("Optional["):-1]
        is_list = annotation.startswith("list[")
        if is_list:
            annotation = annotation[len("list["):-1]
        if f.name not in _BOOKKEEPING and annotation in _NODE_CLASSES:
            out.append((f.name, is_list))
    return tuple(out)


# Each node class's node-holding fields (see `_child_fields`), in source order.
CHILD_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {cls: _child_fields(cls) for cls in NODE_FIELDS}
_CHILDREN_REVERSED = {cls: names[::-1] for cls, names in CHILD_FIELDS.items()}


@dataclass(eq=False)
class SyntaxTree:
    """A file's top-level items, its source map (None for a tree the parser
    did not make) and, once finalized, its nodes listed by id."""
    items: list
    source_map: Optional[SourceMap] = field(default=None, repr=False)
    nodes: list[Node] = field(default_factory=list, repr=False)  # indexed by node id

    def finalize(self) -> "SyntaxTree":
        """Assign depth-first node ids and list the nodes by id, by an explicit stack."""
        nodes: list[Node] = []
        stack = self.items[::-1]
        while stack:
            node = stack.pop()
            node.nid = len(nodes)
            nodes.append(node)
            # children pushed last to first, so they pop in source order
            for name, is_list in _CHILDREN_REVERSED[node.__class__]:
                value = getattr(node, name)
                if value is None:
                    continue
                if is_list:
                    stack += value[::-1]
                else:
                    stack.append(value)
        self.nodes = nodes
        return self


def child_nodes(node: Node) -> list[Node]:
    """Children in source order."""
    out: list[Node] = []
    for name, is_list in CHILD_FIELDS[node.__class__]:
        value = getattr(node, name)
        if value is None:
            continue
        if is_list:
            out += value
        else:
            out.append(value)
    return out


def fingerprint(node) -> tuple:
    """Structural identity of a node/tree, ignoring node ids.

    A flat tuple in pre-order: each node's class, then its fields in
    ``NODE_FIELDS`` order, a list field as its length followed by its
    elements. The field tables make it decodable, so equal fingerprints mean
    equal structure. It is built by an explicit stack and, being flat, is
    compared without recursion, so trees of any depth have one.
    """
    out: list = []
    if isinstance(node, SyntaxTree):
        out += ("program", len(node.items))
        todo = node.items[::-1]
    else:
        todo = [node]
    while todo:  # the next piece is last
        item = todo.pop()
        if not isinstance(item, Node):
            out.append(item)
            continue
        cls = type(item)
        out.append(cls)
        for name in _FIELDS_REVERSED[cls]:
            value = getattr(item, name)
            if isinstance(value, list):
                todo.extend(reversed(value))
                todo.append(len(value))
            else:
                todo.append(value)
    return tuple(out)
