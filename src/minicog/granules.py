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

No walk here recurses on statement depth. ``_level`` scans one statement
list, seeing through blocks and labels by an explicit stack, into leaves and
structured granules whose children are not built yet; ``_build`` then walks
each function's granules once in pre-order, by an explicit stack, building
children level by level, labelling and emitting the leaf rows. So any nesting
the parser accepts decomposes, and ``walk`` is a stack too.

A leaf's region is one range of occurrence ordinals, from the lowest start
to the highest stop of its anchors' runs (``Resolution.runs``), with no gap:
the resolver walks statements in source order, so the simple statements of a
leaf (one run, flattened through blocks and labels) are walked one after
another; a head-tested header is walked just before the structure's first
child leaf, and a do-while condition just after its last one.

Decomposition also prepares what ESCIM reads of each function, none of which
depends on the SI mode or the weights: on each leaf granule, its region,
enclosing structured kinds and call and goto counts; the leaves in pre-order
(``GranuleTree.leaves``); and the ERM lines.
Scoring a mode is then one SI scan per leaf (``minicog.metrics.escim``). A
kind is a plain string, a ``BcsKind`` constant: granules, leaves, the weight
table and the reports all hold the same string.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import ast
from .ast import SyntaxTree
from .erm import serialize_erm
from .scopes import Resolution


class BcsKind:
    """The kinds of basic control structure: the strings that name them in
    weight tables, leaf rows and granule reports."""
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
_STRUCTURED_KIND = {
    ast.IfStmt: BcsKind.IF,
    ast.SwitchStmt: BcsKind.CASE,
    ast.WhileStmt: BcsKind.WHILE,
    ast.DoWhileStmt: BcsKind.DO_WHILE,
    ast.ForStmt: BcsKind.FOR,
}


class Granule:
    # The last four are set by `_build`, on leaves only, for ESCIM: `region`, the
    # occurrence ordinals, carried header included; `enclosing`, the kinds of
    # the structured granules around it, outermost first; `calls`, the calls of
    # user functions anchored in it or its header; `gotos`, its goto statements.
    __slots__ = ("label", "kind", "stmts", "children", "arm_starts",
                 "region", "enclosing", "calls", "gotos")

    def __init__(self, kind: str, stmts: tuple[int, ...]) -> None:
        self.label = ""                   # set once the granule's place in the tree is known
        self.kind = kind                  # a BcsKind
        self.stmts = stmts                # leaf: covered statement ids; structured: (own id,)
        # a leaf keeps the shared empty tuples: there are many leaves, and they are alive with the report
        self.children: Sequence[Granule] = ()
        self.arm_starts: Sequence[int] = ()  # child index where each arm begins

    def header_carrier(self) -> "Granule":
        """The child leaf that carries the header occurrences: the last for a
        do-while, whose condition follows its body; the first otherwise."""
        return self.children[-1] if self.kind == BcsKind.DO_WHILE else self.children[0]


class GranuleTree:
    """Decomposition of one function: its top-level granule run, its leaves in
    pre-order and its ERM lines. It names statements by node id and keeps no
    reference to the syntax tree."""

    __slots__ = ("function", "recursive", "roots", "resolution", "leaves", "erm")

    def __init__(self, function: str, recursive: bool, roots: list[Granule],
                 resolution: Resolution, leaves: list[Granule]) -> None:
        self.function = function
        self.recursive = recursive
        self.roots = roots
        self.resolution = resolution     # the resolution the leaf regions index
        self.leaves = leaves
        self.erm: list[str] = []         # set by `decompose`, which serializes the finished tree

    def walk(self) -> Iterator[Granule]:
        """Every granule, in pre-order, by an explicit stack."""
        stack = self.roots[::-1]  # the next one last
        while stack:
            g = stack.pop()
            yield g
            stack += g.children[::-1]


def _leaf(stmts: tuple[int, ...] = ()) -> Granule:
    return Granule(BcsKind.LINEAR, stmts)


def _level(stmts: list[ast.Stmt]) -> list[Granule]:
    """One level of granules: a leaf per maximal run of simple statements and a
    structured granule, its children not built yet, per other statement. Blocks
    and labels are seen through by an explicit stack."""
    granules: list[Granule] = []
    run: list[int] = []
    todo = stmts[::-1]  # the next statement is last
    while todo:
        stmt = todo.pop()
        cls = stmt.__class__
        if cls in SIMPLE_STMTS:
            run.append(stmt.nid)
        elif cls is ast.Block:
            todo += stmt.stmts[::-1]
        elif cls is ast.LabeledStmt:
            todo.append(stmt.stmt)
        else:
            if run:
                granules.append(_leaf(tuple(run)))
                run = []
            granules.append(Granule(_STRUCTURED_KIND[cls], (stmt.nid,)))
    if run:
        granules.append(_leaf(tuple(run)))
    return granules


def _build(roots: list[Granule], nodes: list[ast.Node], resolution: Resolution) -> list[Granule]:
    """Complete the granules under ``roots`` in one pre-order walk, by an
    explicit stack of (granule, its path, enclosing kinds, parent): build each
    structured granule's children, label each granule by its path of 1-based
    sibling positions, set what ESCIM reads on each leaf, and return the
    leaves in pre-order."""
    runs, calls_by_anchor = resolution.runs, resolution.calls_by_anchor
    out: list[Granule] = []
    stack: list[tuple[Granule, str, tuple[str, ...], Granule | None]] = [
        (root, str(i), (), None) for i, root in reversed(list(enumerate(roots, start=1)))
    ]
    while stack:
        g, path, enclosing, parent = stack.pop()
        g.label = f"G{path}" if parent is None else f"G({path})"
        kind = g.kind
        if kind != BcsKind.LINEAR:
            stmt = nodes[g.stmts[0]]
            if kind == BcsKind.IF:
                arms = [[stmt.then]] if stmt.orelse is None else [[stmt.then], [stmt.orelse]]
            elif kind == BcsKind.CASE:
                arms = [arm.body for arm in stmt.arms] or [[]]
            else:
                arms = [[stmt.body]]
            arm_lists = [_level(arm) or [_leaf()] for arm in arms]
            # The header-carrying position must be a leaf.
            if kind == BcsKind.DO_WHILE:
                if arm_lists[-1][-1].kind != BcsKind.LINEAR:
                    arm_lists[-1].append(_leaf())
            elif arm_lists[0][0].kind != BcsKind.LINEAR:
                arm_lists[0].insert(0, _leaf())
            g.children, g.arm_starts = [], []
            for arm in arm_lists:
                g.arm_starts.append(len(g.children))
                g.children += arm
            inner = enclosing + (kind,)
            stack.extend((child, f"{path},{j}", inner, g)
                         for j, child in reversed(list(enumerate(g.children, start=1))))
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
        g.region, g.enclosing, g.calls, g.gotos = region, enclosing, calls, gotos
        out.append(g)
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
        if item.__class__ is not ast.FuncDef:
            continue
        roots = _level(item.body.stmts)
        gt = GranuleTree(item.name, item.name in recursive, roots, resolution,
                         _build(roots, tree.nodes, resolution))
        gt.erm = serialize_erm(gt)
        out.append(gt)
    return out
