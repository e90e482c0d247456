"""Decomposition of function bodies into a control-structure granule hierarchy.

Each level of the hierarchy is a linear sequence of granules: maximal runs of
simple statements become leaf granules, each branching/looping statement
becomes a structured granule whose children decompose its arms or body, and
partitioning stops at linear leaves. Blocks and statement labels are
transparent. Header expressions (loop conditions, for clauses, if conditions,
switch scrutinees) belong to the structured granule and their occurrences are
carried by one designated child leaf: the first for head-tested structures,
the last for do-while. An empty leaf is inserted when that position is not
already a leaf.

A leaf's region is one range of occurrence ordinals, from the lowest start
to the highest stop of its anchors' runs (``Resolution.runs``), with no gap:
the resolver walks statements in source order, so the simple statements of a
leaf (one run, flattened through blocks and labels) are walked one after
another; a head-tested header is walked just before the structure's first
child leaf, and a do-while condition just after its last one.

Decomposition also prepares what ESCIM reads of each function, none of which
depends on the SI mode or the weights: the leaf list (``Leaf``: label,
region, enclosing structured kinds, call and goto counts) and the ERM lines.
Scoring a mode is then one SI scan per leaf (``minicog.metrics.escim``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from . import ast
from .ast import SyntaxTree
from .erm import serialize_erm
from .scopes import Resolution


class BcsKind(str, Enum):
    LINEAR = "linear"
    GOTO = "goto"
    IF = "if"
    CASE = "case"
    WHILE = "while"
    DO_WHILE = "do_while"
    FOR = "for"
    CALL = "call"
    RECURSION = "recursion"


# Statement classes are tested by exact class: each subclasses `Stmt` directly.
SIMPLE_STMTS = frozenset({
    ast.DeclStmt, ast.ExprStmt, ast.ReturnStmt, ast.BreakStmt,
    ast.ContinueStmt, ast.GotoStmt, ast.EmptyStmt,
})
_KIND_VALUE = {kind: kind.value for kind in BcsKind}  # read without the enum's descriptor
_STRUCTURED_KIND = {
    ast.IfStmt: BcsKind.IF,
    ast.SwitchStmt: BcsKind.CASE,
    ast.WhileStmt: BcsKind.WHILE,
    ast.DoWhileStmt: BcsKind.DO_WHILE,
    ast.ForStmt: BcsKind.FOR,
}


@dataclass(eq=False, slots=True)
class Granule:
    label: str
    kind: BcsKind
    stmts: tuple[int, ...]                # leaf: covered statement ids; structured: (own id,)
    # a leaf keeps the shared empty tuples: there are many leaves, and they are alive with the report
    children: Sequence["Granule"] = ()
    arm_starts: Sequence[int] = ()        # child index where each arm begins

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def header_carrier(self) -> "Granule":
        """The child leaf that carries the header occurrences: the last for a
        do-while, whose condition follows its body; the first otherwise."""
        return self.children[-1] if self.kind is BcsKind.DO_WHILE else self.children[0]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Leaf(NamedTuple):
    """What ESCIM reads of one leaf granule."""
    label: str
    kind: str                        # the BcsKind value
    region: range                    # ordinals of its occurrences, carried header included
    enclosing: tuple[BcsKind, ...]   # kinds of the structured granules around it, outermost first
    calls: int                       # user-function calls anchored in the leaf or its header
    gotos: int                       # goto statements among the leaf's statements


@dataclass(eq=False)
class GranuleTree:
    """Decomposition of one function: its top-level granule run, its leaves in
    pre-order and its ERM lines. It names statements by node id and keeps no
    reference to the syntax tree."""
    function: str
    recursive: bool
    roots: list[Granule]
    resolution: Resolution           # the resolution the leaf regions index
    leaves: list[Leaf]
    erm: list[str]

    def walk(self):
        for root in self.roots:
            yield from root.walk()


def _flatten(stmts: list[ast.Stmt]) -> list[ast.Stmt]:
    units: list[ast.Stmt] = []
    for stmt in stmts:
        inner = stmt
        while inner.__class__ is ast.LabeledStmt:
            inner = inner.stmt
        if inner.__class__ is ast.Block:
            units.extend(_flatten(inner.stmts))
        else:
            units.append(inner)
    return units


def _body_list(stmt: ast.Stmt | None) -> list[ast.Stmt]:
    if stmt is None:
        return []
    return stmt.stmts if stmt.__class__ is ast.Block else [stmt]


def _empty_leaf() -> Granule:
    return Granule(label="", kind=BcsKind.LINEAR, stmts=())


def _decompose_run(stmts: list[ast.Stmt]) -> list[Granule]:
    granules: list[Granule] = []
    run: list[int] = []

    def flush() -> None:
        if run:
            granules.append(Granule(label="", kind=BcsKind.LINEAR, stmts=tuple(run)))
            run.clear()

    for unit in _flatten(stmts):
        if unit.__class__ in SIMPLE_STMTS:
            run.append(unit.nid)
            continue
        flush()
        granules.append(_structured(unit))
    flush()
    return granules


def _structured(stmt: ast.Stmt) -> Granule:
    kind = _STRUCTURED_KIND[stmt.__class__]
    g = Granule(label="", kind=kind, stmts=(stmt.nid,))
    if kind is BcsKind.IF:
        arms = [_body_list(stmt.then)]
        if stmt.orelse is not None:
            arms.append(_body_list(stmt.orelse))
    elif kind is BcsKind.CASE:
        arms = [list(arm.body) for arm in stmt.arms] or [[]]
    else:
        arms = [_body_list(stmt.body)]

    arm_lists = [_decompose_run(arm) or [_empty_leaf()] for arm in arms]
    # The header-carrying position must be a leaf.
    if kind is BcsKind.DO_WHILE:
        if not arm_lists[-1][-1].is_leaf:
            arm_lists[-1].append(_empty_leaf())
    elif not arm_lists[0][0].is_leaf:
        arm_lists[0].insert(0, _empty_leaf())

    children: list[Granule] = []
    starts: list[int] = []
    for arm in arm_lists:
        starts.append(len(children))
        children.extend(arm)
    g.children = children
    g.arm_starts = starts
    return g


def _assign_labels(roots: list[Granule]) -> None:
    """Label each granule by its path of 1-based sibling positions, by an
    explicit stack (a recursive closure would leave a reference cycle) of
    (granule, its path as text)."""
    stack = []
    for i, root in enumerate(roots, start=1):
        root.label = f"G{i}"
        stack.append((root, str(i)))
    while stack:
        g, path = stack.pop()
        for j, child in enumerate(g.children, start=1):
            child_path = f"{path},{j}"
            child.label = f"G({child_path})"
            stack.append((child, child_path))


def _leaves(roots: list[Granule], nodes: list[ast.Node], resolution: Resolution) -> list[Leaf]:
    """The leaves in pre-order, by an explicit stack of (granule, enclosing kinds, parent)."""
    runs, calls_by_anchor = resolution.runs, resolution.calls_by_anchor
    out: list[Leaf] = []
    stack: list[tuple[Granule, tuple[BcsKind, ...], Granule | None]] = [
        (root, (), None) for root in reversed(roots)
    ]
    while stack:
        g, enclosing, parent = stack.pop()
        if g.children:
            inner = enclosing + (g.kind,)
            stack.extend((child, inner, g) for child in reversed(g.children))
            continue
        anchors = g.stmts
        if parent is not None and parent.header_carrier() is g:
            anchors += parent.stmts
        region = range(0)  # from the lowest start to the highest stop of the anchors' runs
        calls = 0
        for nid in anchors:
            run = runs.get(nid)
            if run is not None:
                region = range(min(region.start, run.start), max(region.stop, run.stop)) if region else run
            calls += calls_by_anchor.get(nid, 0)
        gotos = 0
        for nid in g.stmts:
            gotos += nodes[nid].__class__ is ast.GotoStmt
        out.append(Leaf(g.label, _KIND_VALUE[g.kind], region, enclosing, calls, gotos))
    return out


def detect_recursion(resolution: Resolution) -> set[str]:
    """Functions on a cycle of the static call graph (self or mutual).

    One pass of Tarjan's strongly-connected-components algorithm ("Depth-first
    search and linear graph algorithms", SIAM J. Comput. 1(2), 1972), with an
    explicit stack: a function is recursive when its component has more than
    one member or it calls itself.
    """
    graph = resolution.call_graph
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []  # entered functions whose component is not finished yet
    on_stack: set[str] = set()
    recursive: set[str] = set()

    def enter(fn: str) -> tuple[str, Iterator[str]]:
        index[fn] = low[fn] = len(index)
        stack.append(fn)
        on_stack.add(fn)
        return fn, iter(graph.get(fn, ()))

    for root in graph:
        if root in index:
            continue
        work = [enter(root)]
        while work:
            fn, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    work.append(enter(callee))
                    break
                if callee in on_stack:
                    low[fn] = min(low[fn], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[fn])
                if low[fn] == index[fn]:
                    members = [stack.pop()]
                    while members[-1] != fn:
                        members.append(stack.pop())
                    on_stack.difference_update(members)
                    if len(members) > 1 or fn in graph.get(fn, ()):
                        recursive.update(members)
    return recursive


def decompose(tree: SyntaxTree, resolution: Resolution) -> list[GranuleTree]:
    """Granule hierarchy per function of ``tree``, in source order, with its
    leaves and ERM lines; ``resolution`` is the tree's. The granule trees
    keep no reference to ``tree``, so it can be freed once they are built."""
    recursive = detect_recursion(resolution)
    out: list[GranuleTree] = []
    for item in tree.items:
        if not isinstance(item, ast.FuncDef):
            continue
        roots = _decompose_run(item.body.stmts)
        _assign_labels(roots)
        gt = GranuleTree(item.name, item.name in recursive, roots, resolution,
                         _leaves(roots, tree.nodes, resolution), [])
        gt.erm = serialize_erm(gt)
        out.append(gt)
    return out
