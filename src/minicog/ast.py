"""Syntax tree for MiniC.

The node classes are declared in one table, a line each, by ``_node``: the
class name, its base, its ``__init__`` parameters and its node-holding
fields. Each class has ``__slots__`` and identity equality. A node's id is
attached after construction: ``SyntaxTree.finalize`` numbers every node in
depth-first source order and lists the nodes in that order, so
``tree.nodes[nid]`` is the node numbered ``nid``; the later stages name nodes
by id and keep no reference to the tree. A node stores nothing else but its
fields: no source offsets, as nothing on the success path reads where a node
sits in the text. The tree holds its file's ``SourceMap``, from which
``parser.node_span`` builds a node's span for a diagnostic by re-parsing the
file up to the node's top-level item. The tree keeps no parent links: no
stage reads them (the parser checks string literals as it builds calls), and
``child_nodes`` gives them to whoever needs them.
Structural equality (ignoring ids) goes through ``fingerprint``.

Tree walks are table-driven. A node class's field names are its own
``__slots__`` (``nid`` is ``Node``'s), which ``fingerprint`` reads, and the
declarations fill ``CHILD_FIELDS`` with the node-holding ones, which
``child_nodes`` and ``finalize`` read, so they skip the fields that hold
scalars. A ``Literal`` keeps only its text, from which its kind follows.
Every concrete node class subclasses ``Node``, ``Expr`` or ``Stmt``
directly, and those three are never instantiated, so a walk may dispatch on
``node.__class__``. ``finalize`` and ``fingerprint`` walk with an explicit
stack, so they take trees of any depth, such as a long ``x + ... + x`` chain,
which the parser builds as deep as it is long; a fingerprint is a flat tuple,
so comparing two does not recurse either.
"""

from __future__ import annotations

from .lexer import SourceMap


class Node:
    __slots__ = ("nid",)


# Each node class's node-holding fields, in declaration (source) order, each
# with whether it holds a list of nodes. `_node` fills it as it declares each
# class; the class's field names are its own `__slots__`.
CHILD_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {Node: ()}


def _node(name: str, base: type, params: str = "", children: str = "") -> type:
    """Declare a node class. ``params`` is its ``__init__`` parameter list,
    defaults included, and ``children`` its node-holding fields, ``[]``
    marking one that holds a list of nodes. The ``__init__`` is compiled from
    source, as ``dataclasses`` does: it sets ``nid`` to -1, then each field by
    a plain assignment."""
    fields = tuple(p.partition("=")[0].strip() for p in params.split(",") if p.strip())
    namespace: dict = {}
    exec(f"def __init__(self, {params}):\n    self.nid = -1\n"
         + "".join(f"    self.{f} = {f}\n" for f in fields), namespace)
    cls = type(name, (base,), {"__slots__": fields, "__init__": namespace["__init__"]})
    CHILD_FIELDS[cls] = tuple((c.removesuffix("[]"), c.endswith("[]")) for c in children.split(", ") if c)
    return cls


# The node classes, one a line: name, base, `__init__` parameters, child fields.

# ---------------------------------------------------------------- types
# `name` is int | float | bool | a record name
TypeRef = _node("TypeRef", Node, "name, is_array=False, array_size=None")

# ---------------------------------------------------------------- expressions
Expr = _node("Expr", Node)
Literal = _node("Literal", Expr, "text")  # an int, float, string or bool literal as written
VarRef = _node("VarRef", Expr, "name")
GlobalRef = _node("GlobalRef", Expr, "name")
Member = _node("Member", Expr, "obj, member", "obj")
Index = _node("Index", Expr, "base, index", "base, index")
Call = _node("Call", Expr, "callee, args", "args[]")
Unary = _node("Unary", Expr, "op, operand", "operand")  # op: ! -
Binary = _node("Binary", Expr, "op, lhs, rhs", "lhs, rhs")
Assign = _node("Assign", Expr, "target, value", "target, value")
CompoundAssign = _node("CompoundAssign", Expr, "op, target, value", "target, value")  # op: += -= *= /= %=
Increment = _node("Increment", Expr, "target", "target")
Decrement = _node("Decrement", Expr, "target", "target")

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

# ---------------------------------------------------------------- statements
Stmt = _node("Stmt", Node)
# `init_list` is an aggregate initializer {e, e, ...}
DeclStmt = _node("DeclStmt", Stmt, "type, name, init=None, init_list=None", "type, init, init_list[]")
ExprStmt = _node("ExprStmt", Stmt, "expr", "expr")
IfStmt = _node("IfStmt", Stmt, "cond, then, orelse", "cond, then, orelse")
CaseArm = _node("CaseArm", Node, "label, body", "body[]")  # label: int literal text, None for `default`
SwitchStmt = _node("SwitchStmt", Stmt, "scrutinee, arms", "scrutinee, arms[]")
WhileStmt = _node("WhileStmt", Stmt, "cond, body", "cond, body")
DoWhileStmt = _node("DoWhileStmt", Stmt, "body, cond", "body, cond")
# `init` is a DeclStmt or an ExprStmt
ForStmt = _node("ForStmt", Stmt, "init, cond, update, body", "init, cond, update, body")
ReturnStmt = _node("ReturnStmt", Stmt, "value", "value")
BreakStmt = _node("BreakStmt", Stmt)
ContinueStmt = _node("ContinueStmt", Stmt)
GotoStmt = _node("GotoStmt", Stmt, "label")
LabeledStmt = _node("LabeledStmt", Stmt, "label, stmt", "stmt")
Block = _node("Block", Stmt, "stmts", "stmts[]")
EmptyStmt = _node("EmptyStmt", Stmt)

# ---------------------------------------------------------------- items
Param = _node("Param", Node, "type, name", "type")
FuncDef = _node("FuncDef", Node, "ret_type, name, params, body", "ret_type, params[], body")
RecordField = _node("RecordField", Node, "type, name", "type")
RecordDef = _node("RecordDef", Node, "name, fields", "fields[]")

_FIELDS_REVERSED = {cls: cls.__slots__[::-1] for cls in CHILD_FIELDS}
_CHILDREN_REVERSED = {cls: names[::-1] for cls, names in CHILD_FIELDS.items()}


class SyntaxTree:
    """A file's top-level items, its source map (None for a tree the parser
    did not make) and, once finalized, its nodes listed by id."""

    __slots__ = ("items", "source_map", "nodes", "__weakref__")

    def __init__(self, items: list, source_map: SourceMap | None = None) -> None:
        self.items = items
        self.source_map = source_map
        self.nodes: list[Node] = []  # indexed by node id

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
    ``__slots__`` order, a list field as its length followed by its
    elements. The slots make it decodable, so equal fingerprints mean
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
