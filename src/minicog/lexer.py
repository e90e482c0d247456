"""Tokenizer for MiniC source text.

Comments (``//`` and ``/* */``) and whitespace produce no tokens; everything
else becomes exactly one token. One master regular expression, matched at each
position in turn, picks the token together with the spaces before it.

``tokenize`` returns a ``Tokens``: parallel lists of each token's kind, text,
start offset and start line, and no object per token. A word's text is
interned, so a name repeated across a file is stored once. Tokens carry
source offsets (tree nodes do not); a ``SourceMap`` turns offsets into a
1-based ``SourceSpan`` only when a diagnostic (or a test) reads one. This
module is the only place that builds a ``SourceSpan``.
"""

from __future__ import annotations

import re
import sys
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

# Each match is the spaces, tabs and CRs before a token on its line, then one
# alternative, tried in order, the most frequent first. `skip` yields no
# token: a newline and the blank space after it, a comment, or the end of the
# input (empty, so that trailing spaces need no token). Two orders matter, as
# the other alternatives start on disjoint characters: `string` before
# `unclosed`, and `unclosed` before `operator` (an unclosed comment is not
# `/`). `\w` is `str.isalnum()` or `_`, and `\d` is `str.isdecimal()`: a
# `word` starts on a `\w` that is not a `\d`, so `²` starts a word (which
# `tokenize` rejects) and `٣` a number.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      (?P<skip>\n[ \t\r\n]* | //[^\n]* | /\*[\s\S]*?\*/ | \Z)
    | (?P<word>[^\W\d]\w*)
    | (?P<punctuation>""" + "|".join(map(re.escape, PUNCTUATION)) + r""")
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<unclosed>/\*[\s\S]* | "(?:[^"\\\n]|\\[\s\S])*\\?)
    | (?P<operator>""" + "|".join(map(re.escape, OPERATORS)) + r""")
    | (?P<illegal>[\s\S])
    )""",
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


class SourceMap:
    """A file's name and text; turns source offsets into a ``SourceSpan``.

    Tokens and the syntax tree share one map per file. Lines and columns are
    counted from the text only when a span is asked for.
    """

    __slots__ = ("file", "source")

    def __init__(self, file: str, source: str):
        self.file = file
        self.source = source

    def span(self, start: int, end: int) -> SourceSpan:
        """The span of the non-empty ``source[start:end]``, from its first
        character to its last; one that ends with a newline ends in column 1
        of the next line."""
        source = self.source
        line_start = source.count("\n", 0, start) + 1
        line_end = line_start + source.count("\n", start, end)
        col_start = start - source.rfind("\n", 0, start)
        col_end = max(1, end - source.rfind("\n", 0, end) - 1)
        return SourceSpan(self.file, line_start, col_start, line_end, col_end)


class Tokens:
    """The tokens of one file as parallel lists, indexed by token number:
    ``kinds``, ``texts``, ``starts`` (source offsets) and ``lines`` (the
    1-based line each token starts on)."""

    __slots__ = ("kinds", "texts", "starts", "lines", "source_map")

    def __init__(self, source_map: SourceMap):
        # identifier | int-literal | float-literal | string-literal | keyword | operator | punctuation
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.starts: list[int] = []
        self.lines: list[int] = []
        self.source_map = source_map

    def __len__(self) -> int:
        return len(self.starts)  # not `kinds`: the parser appends a sentinel to it

    def span(self, i: int) -> SourceSpan:
        """The span of token ``i``; past the last token, the end of input:
        the point where the last token ends, or 1:1 when there is none."""
        if i < len(self):
            start = self.starts[i]
            return self.source_map.span(start, start + len(self.texts[i]))
        point = self.span(len(self) - 1)[3:] if self.starts else (1, 1)
        return SourceSpan(self.source_map.file, *point, *point)


def tokenize(source: str, file: str = "<input>") -> Tokens:
    """Convert source text to its tokens; raises LexError with a span."""
    tokens = Tokens(SourceMap(file, source))
    kinds, texts, starts, lines = tokens.kinds, tokens.texts, tokens.starts, tokens.lines
    line = 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group(kind)
        if kind == "skip":
            # a new int only on a new line: the tokens of one line share theirs
            if "\n" in text:
                line += text.count("\n")
            continue
        start = match.start(kind)
        if kind == "word":
            text = sys.intern(text)
            if text in KEYWORDS:
                kind = "keyword"
            # a word may start with a non-decimal digit such as `²` or `½`
            elif text[0].isalpha() or text[0] == "_":
                kind = "identifier"
            else:
                kind = "illegal"
        elif kind == "number":
            kind = "float-literal" if "." in text else "int-literal"
        elif kind == "string":
            kind = "string-literal"
        if kind == "unclosed":
            what = "block comment" if text.startswith("/*") else "string literal"
            raise LexError(f"unterminated {what}", tokens.source_map.span(start, match.end()))
        if kind == "illegal":
            raise LexError(f"illegal character {text[0]!r}", tokens.source_map.span(start, start + 1))
        kinds.append(kind)
        texts.append(text)
        starts.append(start)
        lines.append(line)
        if kind == "string-literal" and "\n" in text:  # a backslash-newline continues a string
            line += text.count("\n")
    return tokens
