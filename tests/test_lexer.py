import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import LexError, tokenize
from minicog.lexer import KEYWORDS, OPERATORS, PUNCTUATION, SourceMap
from minicog.generator import generate

from conftest import corpus_names, fixture_source


def kinds(text):
    return tokenize(text).kinds


def texts(text):
    return tokenize(text).texts


def test_minimal_statement():
    toks = tokenize("a=1;")
    assert list(zip(toks.kinds, toks.texts)) == [
        ("identifier", "a"), ("operator", "="), ("int-literal", "1"), ("punctuation", ";"),
    ]


def test_squaring_line_has_six_tokens_one_star():
    toks = tokenize("square=userInput*userInput;")
    assert len(toks) == 6
    assert [text for kind, text in zip(toks.kinds, toks.texts) if kind == "operator"] == ["=", "*"]


def test_comment_elision():
    assert texts("/*x*/ y") == ["y"]
    assert texts("a // trailing\nb") == ["a", "b"]


def test_compound_tokens_are_single():
    assert texts("a<=b ++ -- :: != &&") == ["a", "<=", "b", "++", "--", "::", "!=", "&&"]


def test_keywords_vs_identifiers():
    toks = tokenize("while whilex int intx true")
    assert toks.kinds == ["keyword", "identifier", "keyword", "identifier", "keyword"]


def test_numeric_literals():
    assert kinds("12 3.5") == ["int-literal", "float-literal"]
    # `12.` without digits is an int followed by punctuation
    assert kinds("12.") == ["int-literal", "punctuation"]


def test_string_literal_with_escape():
    toks = tokenize(r'print("a\"b");')
    assert toks.kinds[2] == "string-literal"
    assert toks.texts[2] == r'"a\"b"'


def test_spans_are_one_based():
    span = tokenize("  ab\n cd").span(1)
    assert (span.line_start, span.col_start) == (2, 2)


def span_tuple(span):
    return (span.line_start, span.col_start, span.line_end, span.col_end)


# Source -> (message, (line_start, col_start, line_end, col_end)). An unclosed
# comment runs to end of input; an unclosed string ends at the newline, or at
# end of input after a trailing backslash.
LEX_ERRORS = {
    "@": ("illegal character '@'", (1, 1, 1, 1)),
    "int $x;": ("illegal character '$'", (1, 5, 1, 5)),
    '"unterminated': ("unterminated string literal", (1, 1, 1, 13)),
    "/* open": ("unterminated block comment", (1, 1, 1, 7)),
    '"line\nbreak"': ("unterminated string literal", (1, 1, 1, 5)),
    "a /* x\n y \n": ("unterminated block comment", (1, 3, 3, 1)),
    'x = "a\\': ("unterminated string literal", (1, 5, 1, 7)),
    'a\n  "b\\\n': ("unterminated string literal", (2, 3, 3, 1)),
    # Only space, tab, CR and LF are whitespace.
    "\f": ("illegal character '\\x0c'", (1, 1, 1, 1)),
    "a\xa0b": ("illegal character '\\xa0'", (1, 2, 1, 2)),
    "a\u2028b": ("illegal character '\\u2028'", (1, 2, 1, 2)),
    # Numeric characters that are not decimal digits start no token.
    "½": ("illegal character '½'", (1, 1, 1, 1)),
    "int a[²];": ("illegal character '²'", (1, 7, 1, 7)),
}


@pytest.mark.parametrize("bad", LEX_ERRORS)
def test_lex_errors_carry_spans(bad):
    with pytest.raises(LexError) as err:
        tokenize(bad)
    assert (str(err.value), span_tuple(err.value.span)) == LEX_ERRORS[bad]


@pytest.mark.parametrize("source, expected", [
    ('x="a\\\nb";', [
        ("identifier", "x", (1, 1, 1, 1)),
        ("operator", "=", (1, 2, 1, 2)),
        ("string-literal", '"a\\\nb"', (1, 3, 2, 2)),
        ("punctuation", ";", (2, 3, 2, 3)),
    ]),
    ("é", [("identifier", "é", (1, 1, 1, 1))]),
    ("x²", [("identifier", "x²", (1, 1, 1, 2))]),
    ("٣", [("int-literal", "٣", (1, 1, 1, 1))]),
])
def test_token_kinds_texts_and_spans(source, expected):
    toks = tokenize(source)
    assert [(toks.kinds[i], toks.texts[i], span_tuple(toks.span(i))) for i in range(len(toks))] == expected


def _significant(source: str) -> str:
    """Independent comment/whitespace stripper used as the concatenation oracle."""
    out = []
    i, n = 0, len(source)
    while i < n:
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            i = source.index("*/", i) + 2
            continue
        ch = source[i]
        if ch == '"':
            j = i + 1
            while source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            out.append(source[i:j + 1])
            i = j + 1
            continue
        if not ch.isspace():
            out.append(ch)
        i += 1
    return "".join(out)


@pytest.mark.parametrize("source", [
    *(pytest.param(fixture_source(name), id=name) for name in corpus_names()),
    *(pytest.param(generate(seed), id=f"generate-{seed}") for seed in range(50)),
])
def test_concatenation_reproduces_significant_content(source):
    assert "".join(tokenize(source).texts) == _significant(source)


@given(st.lists(st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True), min_size=1, max_size=20))
def test_identifier_soup_roundtrip(words):
    assert tokenize(" ".join(words)).texts == words


# MiniC's characters, a few multi-character pieces that open or close comments
# and strings, and some non-ASCII letters, digits and spaces.
_PIECES = [
    *"azAZ_09+-*/%<>=!&|;,(){}[]:.\"\\ \t\r\n@$",
    "/*", "*/", "//", "\\\n", "int", "12.5", "<=", "::",
    "é", "²", "٣", "½", "\xa0", "\u2028", "\f",
]


@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_tokens_are_source_slices_or_lex_error(source):
    try:
        toks = tokenize(source)
    except LexError as err:
        assert err.span is not None
        return
    line_offsets = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for i, text in enumerate(toks.texts):
        span = toks.span(i)
        begin = line_offsets[span.line_start - 1] + span.col_start - 1
        end = line_offsets[span.line_end - 1] + span.col_end
        assert source[begin:end] == text
        assert (toks.starts[i], toks.lines[i]) == (begin, span.line_start)


# ------------------------------------------------ the token pattern against the one-token-per-match lexer
#
# The lexer before its alternatives were put in frequency order and the
# spaces before a token became part of its match: one alternative per match,
# a whitespace run being a match of its own, `number` before `word`. Kept as
# the oracle of `tokenize`.

_ONE_PER_MATCH = re.compile(
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


def _reference_tokenize(source: str):
    """(kinds, texts, starts, lines, the number of lines that hold a token) of
    ``source``, or the LexError's (message, span)."""
    source_map = SourceMap("<input>", source)
    kinds, texts, starts, lines = [], [], [], []
    line, end = 1, 0
    for match in _ONE_PER_MATCH.finditer(source):
        kind, text = match.lastgroup, match.group()
        start, end = end, end + len(text)
        if kind == "skip":
            line += source.count("\n", start, end)
            continue
        if kind == "word":
            if text in KEYWORDS:
                kind = "keyword"
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
            return f"unterminated {what}", source_map.span(start, end)
        if kind == "illegal":
            return f"illegal character {text[0]!r}", source_map.span(start, start + 1)
        kinds.append(kind)
        texts.append(text)
        starts.append(start)
        lines.append(line)
        line += text.count("\n") if kind == "string-literal" else 0
    return kinds, texts, starts, lines, len(set(lines))


def _lexed(source: str):
    try:
        toks = tokenize(source)
    except LexError as err:
        return str(err), err.span
    return toks.kinds, toks.texts, toks.starts, toks.lines, toks.line_count


# MiniC's characters; keywords, names, numbers and digits followed by letters;
# comments, strings and backslash-newlines, closed and unclosed; the shapes
# that the token pattern tells apart (an empty comment, a `/*/` that does not
# close, a comment over lines between tokens, a string that ends in an
# escaped quote or backslash, a token on the last line of a string); and
# non-ASCII letters, digits and numerics.
_DIFFERENTIAL_PIECES = [
    *"azAZ_09+-*/%<>=!&|;,(){}[]:.\"\\ \t\r\n@$",
    "int", "while", "x1", "_y", "12", "12.5", "3.", "7abc", "0x1F", "1e5",
    "//", "// c\n", "/*", "*/", "/* c */", "/* a\nb */", "\"s\"", "\"a\\\"b\"", "\"a\\\nb\"",
    "/**/", "/*/", "x /* a\nb */ y", "\"a\\\"", "\"a\\\\\"", "\"a\\\nb\" c",
    "\\\n", "  ", "\t\t", "\r\n", "\n\n",
    "é", "²", "½", "٣", "x²", "٣x", "\xa0", " ", "\f",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_DIFFERENTIAL_PIECES), max_size=30).map("".join))
def test_tokenize_matches_the_one_token_per_match_lexer(source):
    assert _lexed(source) == _reference_tokenize(source)


@pytest.mark.parametrize("source", [
    *(pytest.param(fixture_source(name), id=name) for name in corpus_names()),
    *(pytest.param(generate(seed), id=f"generate-{seed}") for seed in range(20)),
    "", " ", "x ", "x  \t\r", "\n", "a\n", "  /* open", "x ²", "  @", "\"a\\\n  b\"  c",
    "/**/", "/*/", "x /* a\nb */ y", "x //", "x \"a\\\"", "x \"a\\\\\"", "x\n\"a\\\nb\" c\nd",
])
def test_tokenize_matches_the_one_token_per_match_lexer_on_programs(source):
    assert _lexed(source) == _reference_tokenize(source)
