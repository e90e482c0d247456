"""End-to-end pipeline: source text to a metrics report.

Lexing, parsing, resolution, ledger construction and decomposition run once
per program. LOC, the number of lines holding a token, is counted by the
lexer in its one pass over the text and stored on the analysis. So is all of
the scoring work that does not depend on the SI mode or the weights: each
function's leaf list and ERM lines (built by ``decompose``) and I(L) (set by
``build_ledger``). A report for one (mode, weights) pair is then one SI scan
per leaf: ``Analysis.report`` builds it whole, LOC and E included, by one
``escim`` call on each request, so the property validator scores each
program under all three scope-information modes cheaply.

``Analysis.tree`` is an analysis's only reference to the syntax tree, and no
report reads it: ``minicog analyze`` sets it to None, which frees the tree,
before it builds a report.
"""

from __future__ import annotations

from .ast import SyntaxTree
from .granules import GranuleTree, decompose
from .ledger import OccurrenceLedger, SiMode, build_ledger
from .lexer import tokenize
from .metrics import MetricsReport, WeightTable, escim, loc
from .parser import parse
from .scopes import Resolution, resolve


class Analysis:
    __slots__ = ("source", "tree", "resolution", "ledger", "granules", "loc")

    def __init__(self, source: str, tree: SyntaxTree | None, resolution: Resolution,
                 ledger: OccurrenceLedger, granules: list[GranuleTree], loc: int) -> None:
        self.source = source
        self.tree = tree  # None once released; nothing in a report reads it
        self.resolution = resolution
        self.ledger = ledger
        self.granules = granules
        self.loc = loc

    def report(self, mode: SiMode = SiMode.DELTA, weights: WeightTable | None = None) -> MetricsReport:
        return escim(self.granules, self.ledger, weights, mode, self.loc)

    def si_program(self, mode: SiMode = SiMode.DELTA) -> int:
        return self.ledger.si(self.ledger.entries, mode)


def analyze_source(source: str, file: str = "<input>") -> Analysis:
    tokens = tokenize(source, file)
    lines = loc(tokens)
    tree = parse(tokens)
    del tokens  # free the tokens before the later stages; they would raise peak memory
    resolution = resolve(tree)
    ledger = build_ledger(resolution)
    granules = decompose(tree, resolution)
    return Analysis(source, tree, resolution, ledger, granules, lines)
