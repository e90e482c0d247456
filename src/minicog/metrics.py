"""Weighted cognitive metrics: ESCIM, LOC, coding efficiency, cyclomatic.

ESCIM sums, over all leaf granules, the leaf's scope information multiplied
by its own weight and the weights of every enclosing structured granule. A
leaf's own weight is the linear weight times a call-weight factor per user
function call it contains (and a goto-weight factor per goto); a recursive
function's total is multiplied by the recursion weight. The numeric defaults
below are conventional values for this family of weighted measures and are
configurable through a JSON table.

LOC is the number of lines that hold at least one token, so blank and
comment-only lines do not count. It is read off the token list the lexer
already produced (the ``lines`` list: each token's starting line; only ``\n``
ends a line, as in diagnostic spans) and is counted once per analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import ast
from .ast import SyntaxTree
from .erm import serialize_erm
from .errors import EmptyProgram, InconsistentInput
from .granules import BcsKind, Granule, GranuleTree
from .ledger import OccurrenceLedger, SiMode
from .lexer import Tokens

DEFAULT_WEIGHTS: dict[str, int] = {
    "linear": 1,
    "goto": 1,
    "if": 2,
    "case": 3,
    "while": 3,
    "do_while": 3,
    "for": 3,
    "call": 2,
    "recursion": 3,
}


class WeightTable:
    """Total map from BCS kind to a positive integer weight."""

    def __init__(self, weights: dict[str, int] | None = None):
        table = dict(DEFAULT_WEIGHTS)
        if weights:
            unknown = set(weights) - set(DEFAULT_WEIGHTS)
            if unknown:
                raise ValueError(f"unknown BCS kinds in weight table: {sorted(unknown)}")
            table.update(weights)
        for kind, weight in table.items():
            if type(weight) is not int or weight < 1:  # bool is an int subclass
                raise ValueError(f"weight for {kind!r} must be an integer >= 1, got {weight!r}")
        self._table = table

    def __getitem__(self, kind: BcsKind | str) -> int:
        key = kind.value if isinstance(kind, BcsKind) else kind
        return self._table[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightTable) and self._table == other._table

    def key(self) -> tuple:
        return tuple(sorted(self._table.items()))

    def as_dict(self) -> dict[str, int]:
        return dict(self._table)

    @classmethod
    def default(cls) -> "WeightTable":
        return cls()

    @classmethod
    def from_file(cls, path) -> "WeightTable":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("weight table file must hold a JSON object")
        return cls(data)


@dataclass(frozen=True)
class LeafRow:
    label: str
    kind: str
    weight: int            # leaf weight including call/goto factors
    si: int
    ancestor_product: int
    term: int              # si * weight * ancestor_product


@dataclass
class FunctionMetrics:
    name: str
    recursive: bool
    escim: int
    si_total: int
    leaves: list[LeafRow] = field(default_factory=list)
    erm: list[str] = field(default_factory=list)


@dataclass
class MetricsReport:
    si_mode: SiMode
    weights: WeightTable
    functions: list[FunctionMetrics]
    escim: int
    i_l: int
    loc: int | None = None
    efficiency: Fraction | None = None


def _leaf_region(leaf: Granule, parent: Granule | None) -> set[int]:
    region = set(leaf.stmts)
    if parent is not None and parent.header_carrier() is leaf:
        region.add(parent.stmts[0])
    return region


def _count_gotos(tree: SyntaxTree, leaf: Granule) -> int:
    return sum(1 for nid in leaf.stmts if isinstance(tree.nodes[nid], ast.GotoStmt))


def escim(
    granule_trees: list[GranuleTree],
    ledger: OccurrenceLedger,
    weights: WeightTable | None = None,
    mode: SiMode = SiMode.DELTA,
) -> MetricsReport:
    """Evaluate the weighted scope-information measure per function and program."""
    weights = weights or WeightTable.default()
    tree = ledger.tree
    calls_by_anchor = ledger.resolution.calls_by_anchor
    functions: list[FunctionMetrics] = []

    for gt in granule_trees:
        if gt.tree is not tree:
            raise InconsistentInput(
                f"granule tree for '{gt.function}' does not belong to the ledger's syntax tree"
            )
        rows: list[LeafRow] = []

        def visit(g: Granule, product: int, parent: Granule | None) -> None:
            if g.is_leaf:
                region = _leaf_region(g, parent)
                si_val = ledger.si(region, mode)
                calls = sum(calls_by_anchor.get(nid, 0) for nid in region)
                leaf_weight = (
                    weights[BcsKind.LINEAR]
                    * weights[BcsKind.CALL] ** calls
                    * weights[BcsKind.GOTO] ** _count_gotos(tree, g)
                )
                rows.append(LeafRow(g.label, g.kind.value, leaf_weight, si_val, product, si_val * leaf_weight * product))
                return
            inner = product * weights[g.kind]
            for child in g.children:
                visit(child, inner, g)

        for root in gt.roots:
            visit(root, 1, None)

        total = sum(row.term for row in rows)
        if gt.recursive:
            total *= weights[BcsKind.RECURSION]
        functions.append(
            FunctionMetrics(
                name=gt.function,
                recursive=gt.recursive,
                escim=total,
                si_total=sum(row.si for row in rows),
                leaves=rows,
                erm=serialize_erm(gt).lines(),
            )
        )

    return MetricsReport(
        si_mode=mode,
        weights=weights,
        functions=functions,
        escim=sum(f.escim for f in functions),
        i_l=ledger.info_icn(ledger.all_anchors()),
    )


def loc(tokens: Tokens) -> int:
    """Lines that hold at least one token; raises EmptyProgram on zero."""
    count = len(set(tokens.lines))
    if count == 0:
        raise EmptyProgram("no countable lines of code")
    return count


def coding_efficiency(escim_value: int, loc_value: int) -> Fraction:
    return Fraction(escim_value, loc_value)


def cyclomatic(tree: SyntaxTree) -> int:
    """1 + decision points (if, case label, loops, && and ||) per function, summed."""

    def decisions(node) -> int:
        n = 0
        if isinstance(node, (ast.IfStmt, ast.WhileStmt, ast.DoWhileStmt, ast.ForStmt)):
            n += 1
        elif isinstance(node, ast.CaseArm) and node.label is not None:
            n += 1
        elif isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            n += 1
        return n + sum(decisions(c) for c in ast.child_nodes(node))

    total = 0
    for item in tree.items:
        if isinstance(item, ast.FuncDef):
            total += 1 + decisions(item.body)
    return total if total > 0 else 1
