"""Scope-aware cognitive complexity metrics for MiniC programs."""

from .analysis import Analysis, analyze_source
from .erm import serialize_erm
from .errors import (
    AnalysisError, ComposeError, DuplicateDeclaration, EmptyProgram,
    InconsistentInput, InvalidPermutation, LexError, ParseError,
    RenameCollision, UnresolvedName,
)
from .granules import BcsKind, Granule, GranuleTree, decompose, detect_recursion
from .ledger import OccurrenceLedger, SiMode, build_ledger
from .lexer import SourceSpan, Tokens, tokenize
from .metrics import (
    DEFAULT_WEIGHTS, MetricsReport, WeightTable, coding_efficiency, escim, loc,
)
from .parser import parse, parse_source
from .printer import pretty_print
from .scopes import Resolution, ScopedVariable, resolve

__version__ = "0.1.0"
