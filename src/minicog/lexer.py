"""Tokenizer for MiniC source text.

Comments (``//`` and ``/* */``) and whitespace produce no tokens; everything
else becomes exactly one token with a 1-based source span. One master regular
expression, tried at each position in turn, picks the token.

``Token`` and ``SourceSpan`` are immutable ``typing.NamedTuple`` records,
which are cheaper to build than frozen dataclasses; the lexer makes one of
each per token.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import LexError

KEYWORDS = frozenset(
    {
        "int", "float", "bool", "struct",
        "if", "else", "switch", "case", "default",
        "while", "do", "for",
        "return", "break", "continue", "goto",
        "true", "false",
    }
)

# Longest match first. `=` is last among the `=`-prefixed operators so that
# `==`, `<=`, `+=` etc. win.
OPERATORS = (
    "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "++", "--",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
)

# `::` must precede `:`.
PUNCTUATION = ("::", ";", ",", "(", ")", "{", "}", "[", "]", ":", ".")

# Alternatives are tried in order. `unclosed` precedes `operator` so that an
# unclosed comment is not lexed as `/`. `\w` is `str.isalnum()` or `_`, and
# `\d` is `str.isdecimal()`, so `²` matches `word`, not `number`.
_TOKEN = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+ | //[^\n]* | /\*[\s\S]*?\*/)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<unclosed>/\*[\s\S]* | "(?:[^"\\\n]|\\[\s\S])*\\?)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<word>\w+)
    | (?P<operator>""" + "|".join(map(re.escape, OPERATORS)) + r""")
    | (?P<punctuation>""" + "|".join(map(re.escape, PUNCTUATION)) + r""")
    | (?P<illegal>[\s\S])
    """,
    re.VERBOSE,
)


class SourceSpan(NamedTuple):
    file: str
    line_start: int
    col_start: int
    line_end: int
    col_end: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line_start}:{self.col_start}"


class Token(NamedTuple):
    kind: str  # identifier | int-literal | float-literal | string-literal | keyword | operator | punctuation
    text: str
    span: SourceSpan


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    """Convert source text to a token list; raises LexError with a span."""
    tokens: list[Token] = []
    line, line_offset = 1, 0  # the current line and the offset where it begins
    pos = 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        kind, text, end = match.lastgroup, match.group(), match.end()
        start_line, start_col = line, pos - line_offset + 1
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_offset = pos + text.rindex("\n") + 1
        pos = end
        if kind == "skip":
            continue
        # The span ends on the token's last character; an unclosed comment or
        # string that ends with a newline ends in column 1 of the next line.
        span = SourceSpan(file, start_line, start_col, line, max(1, end - line_offset))
        if kind == "unclosed":
            what = "block comment" if text.startswith("/*") else "string literal"
            raise LexError(f"unterminated {what}", span)
        # `\w+` also matches from a non-decimal digit such as `²` or `½`.
        if kind == "illegal" or (kind == "word" and not (text[0].isalpha() or text[0] == "_")):
            bad = SourceSpan(file, start_line, start_col, start_line, start_col)
            raise LexError(f"illegal character {text[0]!r}", bad)
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "identifier"
        elif kind == "number":
            kind = "float-literal" if "." in text else "int-literal"
        elif kind == "string":
            kind = "string-literal"
        tokens.append(Token(kind, text, span))
    return tokens
