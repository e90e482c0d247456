"""Exception types shared across the analyzer."""

from __future__ import annotations


class AnalysisError(Exception):
    """Base for diagnostics that carry a source span."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


class LexError(AnalysisError):
    pass


class ParseError(AnalysisError):
    pass


class DuplicateDeclaration(AnalysisError):
    pass


class UnresolvedName(AnalysisError):
    pass


class ComposeError(Exception):
    pass


class RenameCollision(Exception):
    pass


class InvalidPermutation(Exception):
    pass


class EmptyProgram(Exception):
    pass


class InconsistentInput(Exception):
    pass
