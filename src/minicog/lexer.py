"""Tokenizer for MiniC source text.

Comments (``//`` and ``/* */``) and whitespace produce no tokens; everything
else becomes exactly one token. One ``findall`` of a master regular
expression splits the text into items, and C iterators turn them into tokens.

``tokenize`` returns a ``Tokens``: parallel lists of each token's kind and
text, and no object per token; a token's offset and line are found only when
read. A token's text is interned, so a name repeated across a file is stored
once. A ``SourceMap`` turns offsets into a 1-based ``SourceSpan`` only when a
diagnostic (or a test) reads one. This module is the only place that builds a
``SourceSpan``.
"""

from __future__ import annotations

import re
import sys
from itertools import chain, compress, islice, repeat
from operator import contains
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

# A closed string literal. `\` escapes any character, a newline too.
_STRING = r'"(?:[^"\\\n]|\\[\s\S])*"'

# Each match is an uncaptured run of blank space and comments that end on their
# line, then one captured item: a token; a line break (a newline and the blank
# space after it); a block comment over lines; or, at `\Z`, the empty end of
# the input. The alternatives are tried in order, the most frequent first. Two
# orders matter, as the others start on disjoint characters: a string before
# an unclosed one, and a block comment before an unclosed one and both before
# the operators (neither is `/`). `\w` is `str.isalnum()` or `_`, and `\d` is
# `str.isdecimal()`: a word starts on a `\w` that is not a `\d`, so `²`
# starts a word (which `tokenize` rejects) and `٣` a number. No item holds a
# newline but a line break, a block comment and a string with a
# backslash-newline, so a token opens a line when the item before it holds one.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:(?://[^\n]* | /\*[^\n]*?\*/)[ \t\r]*)*(
        [^\W\d]\w*
      | """ + "|".join(map(re.escape, PUNCTUATION)) + r"""
      | \n[ \t\r\n]*
      | \d+(?:\.\d+)?
      | """ + _STRING + r"""
      | /\*[\s\S]*?\*/
      | /\*[\s\S]* | "(?:[^"\\\n]|\\[\s\S])*\\?
      | """ + "|".join(map(re.escape, OPERATORS)) + r"""
      | [\s\S] | \Z
    )""",
    re.VERBOSE,
)
_CLOSED_STRING = re.compile(_STRING)

# The kind of each fixed token text, and None for the end of the input.
_FIXED_KINDS = {"": None, **dict.fromkeys(KEYWORDS, "keyword"),
                **dict.fromkeys(PUNCTUATION, "punctuation"), **dict.fromkeys(OPERATORS, "operator")}


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
    1-based line each token starts on); and ``line_count``, the number of
    lines that hold a token. ``starts`` and ``lines`` are found by a second
    scan of the text when one of them is first read, which only a
    diagnostic's span, a renaming and tests do."""

    __slots__ = ("kinds", "texts", "line_count", "source_map", "starts", "lines")

    def __init__(self, kinds: list[str], texts: list[str], line_count: int, source_map: SourceMap):
        # identifier | int-literal | float-literal | string-literal | keyword | operator | punctuation
        self.kinds = kinds
        self.texts = texts
        self.line_count = line_count
        self.source_map = source_map

    def __getattr__(self, name: str) -> list[int]:  # called only for a slot not yet set
        if name not in ("starts", "lines"):
            raise AttributeError(name)
        self.starts, self.lines, line = [], [], 1
        for match in _TOKEN.finditer(self.source_map.source):
            text = match[1]
            if text and text[0] != "\n" and not text.startswith("/*"):
                self.starts.append(match.start(1))
                self.lines.append(line)
            line += text.count("\n")
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.texts)  # while the parser runs, its end sentinel counts too

    def span(self, i: int) -> SourceSpan:
        """The span of token ``i``; past the last token, the end of input:
        the point where the last token ends, or 1:1 when there is none."""
        starts = self.starts
        if i < len(starts):
            return self.source_map.span(starts[i], starts[i] + len(self.texts[i]))
        point = self.span(len(starts) - 1)[3:] if starts else (1, 1)
        return SourceSpan(self.source_map.file, *point, *point)


class _Kinds(dict):
    """The kind of each item text of one file, None for an item that is no
    token: the fixed texts preset, the others found on their first miss."""

    def __missing__(self, text: str) -> str | None:
        head = text[0]
        if head == "\n" or (head == "/" and len(text) > 3 and text.endswith("*/")):
            kind = None  # a line break or a block comment over lines
        elif head == '"' and _CLOSED_STRING.fullmatch(text):
            kind = "string-literal"
        elif head.isalpha() or head == "_":
            kind = "identifier"
        elif head.isdecimal():
            kind = "float-literal" if "." in text else "int-literal"
        else:  # an unclosed comment or string, or an illegal character (`²` may start a word)
            raise KeyError(text)
        self[text] = kind
        return kind


def tokenize(source: str, file: str = "<input>") -> Tokens:
    """Convert source text to its tokens; raises LexError with a span."""
    source_map = SourceMap(file, source)
    items = _TOKEN.findall(source)
    try:
        kinds = list(map(_Kinds(_FIXED_KINDS).__getitem__, items))
    except KeyError as exc:  # the first item that is no token, so the first with its text
        text = exc.args[0]
        start = next(islice(_TOKEN.finditer(source), items.index(text), None)).start(1)
        if text[0] in '/"':
            what = "block comment" if text[0] == "/" else "string literal"
            raise LexError(f"unterminated {what}", source_map.span(start, start + len(text))) from None
        raise LexError(f"illegal character {text[0]!r}", source_map.span(start, start + 1)) from None
    # a token opens a line when the item before it holds a newline
    line_count = sum(map(contains, compress(chain(("\n",), items), kinds), repeat("\n")))
    texts = list(map(sys.intern, compress(items, kinds)))
    return Tokens(list(filter(None, kinds)), texts, line_count, source_map)
