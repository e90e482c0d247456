"""Weighted cognitive metrics: ESCIM, LOC and coding efficiency.

ESCIM sums, over all leaf granules, the leaf's scope information multiplied
by its own weight and the weights of every enclosing structured granule. A
leaf's own weight is the linear weight times a call-weight factor per user
function call it contains (and a goto-weight factor per goto); a recursive
function's total is multiplied by the recursion weight. The numeric defaults
below are conventional values for this family of weighted measures and are
configurable through a JSON table.

Only the SI scans depend on the SI mode. Decomposition builds each function's
leaf list (regions, enclosing kinds, call and goto counts) and ERM lines once,
and ``build_ledger`` sets I(L) once, so ``escim`` for one mode reads those,
scans each leaf's region with ``OccurrenceLedger.si`` and multiplies weights.
It returns the whole report, LOC and coding efficiency included.

LOC is the number of lines that hold at least one token, so blank and
comment-only lines do not count. It is read off the token list the lexer
already produced (the ``lines`` list: each token's starting line; only ``\n``
ends a line, as in diagnostic spans) and is counted once per analysis.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import EmptyProgram, InconsistentInput
from .granules import BcsKind, GranuleTree
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
    """Total map from BCS kind to a positive integer weight: ``by_kind``,
    the validated dict, keyed by the kinds' names."""

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
        self.by_kind = table

    @classmethod
    def from_file(cls, path) -> "WeightTable":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("weight table file must hold a JSON object")
        return cls(data)


class LeafRow(NamedTuple):
    label: str
    kind: str
    weight: int            # leaf weight including call/goto factors
    si: int
    ancestor_product: int
    term: int              # si * weight * ancestor_product


class FunctionMetrics(NamedTuple):
    name: str
    recursive: bool
    escim: int
    leaves: list[LeafRow]
    erm: list[str]


class MetricsReport(NamedTuple):
    """The scores of one (mode, weights) pair."""
    functions: list[FunctionMetrics]
    escim: int
    i_l: int
    loc: int
    efficiency: Fraction   # escim / loc


def escim(
    granule_trees: list[GranuleTree],
    ledger: OccurrenceLedger,
    weights: WeightTable | None,
    mode: SiMode,
    loc: int,
) -> MetricsReport:
    """Evaluate the weighted scope-information measure per function and
    program, and the coding efficiency against the program's ``loc``.

    Reads the mode-independent data the analysis built once (each granule
    tree's leaves and ERM lines, the ledger's I(L)), never the syntax tree;
    the reports of one analysis share the ERM line lists. A granule tree's
    leaf regions index its resolution's occurrences, so each must come from
    the ledger's resolution (InconsistentInput otherwise).
    """
    weights = weights or WeightTable()
    by_kind = weights.by_kind
    linear, call, goto = by_kind[BcsKind.LINEAR], by_kind[BcsKind.CALL], by_kind[BcsKind.GOTO]
    functions: list[FunctionMetrics] = []

    for gt in granule_trees:
        if gt.resolution is not ledger.resolution:
            raise InconsistentInput(
                f"granule tree for '{gt.function}' does not belong to the ledger's resolution"
            )
        rows: list[LeafRow] = []
        for leaf in gt.leaves:
            si_val = ledger.si(leaf.region, mode)
            leaf_weight = linear * call ** leaf.calls * goto ** leaf.gotos
            product = 1
            for kind in leaf.enclosing:
                product *= by_kind[kind]
            rows.append(LeafRow(leaf.label, leaf.kind, leaf_weight, si_val, product,
                                si_val * leaf_weight * product))

        total = sum(row.term for row in rows)
        if gt.recursive:
            total *= by_kind[BcsKind.RECURSION]
        functions.append(
            FunctionMetrics(
                name=gt.function,
                recursive=gt.recursive,
                escim=total,
                leaves=rows,
                erm=gt.erm,
            )
        )

    program = sum(f.escim for f in functions)
    return MetricsReport(functions, program, ledger.i_l, loc, coding_efficiency(program, loc))


def loc(tokens: Tokens) -> int:
    """Lines that hold at least one token, as counted by ``tokenize``;
    raises EmptyProgram on zero."""
    if tokens.line_count == 0:
        raise EmptyProgram("no countable lines of code")
    return tokens.line_count


def coding_efficiency(escim_value: int, loc_value: int) -> Fraction:
    return Fraction(escim_value, loc_value)
