"""Exception types shared across the analyzer."""

from __future__ import annotations


class AnalysisError(Exception):
    """Base for diagnostics, each with its source span if it has one."""

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


class EmptyProgram(AnalysisError):
    """A file with no line of code: the one diagnostic without a span."""


class ComposeError(Exception):
    pass


class RenameCollision(Exception):
    pass


class InvalidPermutation(Exception):
    pass


class InconsistentInput(Exception):
    pass
