"""Diagnostic spans: their exact values on many broken inputs, and the rule
that a successful analysis builds no ``SourceSpan`` at all."""

import hashlib
import json
import random

from minicog import cli, lexer
from minicog.analysis import analyze_source
from minicog.cli import report_obj
from minicog.errors import AnalysisError
from minicog.generator import generate
from minicog.ledger import SiMode

from conftest import corpus_pairs, reference_granule_obj, reference_ledger_rows

# Inserted once at a seeded position and once at the end of each source: an
# illegal character, an unclosed string, an unclosed comment, a non-decimal
# digit, a string continued by a backslash-newline, a global reference and a
# stray brace.
PIECES = ("$", '"', "/*", "²", '"a\\\n', "::q", "}")


def _sources() -> list[tuple[str, str]]:
    return corpus_pairs() + [(f"generate-{seed}.mc", generate(seed)) for seed in range(40)]


def _mutations(name: str, source: str):
    rng = random.Random(name)
    for cut in range(0, len(source), 7):
        yield source[:cut]
    k = rng.randrange(len(source))
    yield source[:k] + source[k + 1:]
    for piece in PIECES:
        k = rng.randrange(len(source) + 1)
        yield source[:k] + piece + source[k:]
        yield source + piece


def _outcome(source: str, file: str):
    """None for a report, else [exception class, message, five span fields]."""
    try:
        analyze_source(source, file)
    except AnalysisError as exc:
        return [type(exc).__name__, str(exc), *(exc.span or [None] * 5)]
    return None


def test_diagnostics_on_mutated_sources_are_pinned():
    outcomes = [_outcome(text, name) for name, source in _sources()
                for text in _mutations(name, source)]
    diagnostics = [o for o in outcomes if o is not None]
    assert len(outcomes) == 3690 and len(diagnostics) == 3637

    # the edge cases of the offset-to-span rule that the pin must cover
    def some(message: str, where) -> bool:
        return any(o[1] == message and where(*o[3:]) for o in diagnostics)

    assert some("expected ';', found end of input", lambda ls, cs, le, ce: (ls, cs) == (le, ce))
    assert some("unterminated block comment", lambda ls, cs, le, ce: le > ls and ce == 1)
    assert some("unterminated string literal", lambda ls, cs, le, ce: le > ls and ce == 1)
    assert some("unterminated string literal", lambda ls, cs, le, ce: le > ls and ce > 1)
    assert any(o[0] == "EmptyProgram" for o in diagnostics)

    # measured before node spans became offsets, with the switch crash mended;
    # `int²` in unit.mc lexes as one name, so that outcome is the return-type
    # diagnostic "unknown type 'int²'" at 1:1-1:4
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "80e545227f99d2813b01591941de891ac194cc7e7515c711c3ca0a0dbecf7257"


def _analyze_and_report_everything() -> None:
    """Analyze the fixtures and 50 generated programs, and build every report
    and section the CLI can write for each."""
    for name, source in corpus_pairs() + [(f"generate-{s}.mc", generate(s)) for s in range(50)]:
        analysis = analyze_source(source, name)
        for mode in SiMode:
            report_obj(analysis, mode, None)
        reference_ledger_rows(analysis)
        [reference_granule_obj(root) for gt in analysis.granules for root in gt.roots]
        for as_json in (True, False):  # and what `--emit ledger,granules` writes
            cli._sections(analysis, {"ledger", "granules"}, as_json, 0)


def test_successful_analysis_builds_no_source_span(monkeypatch):
    built = []
    real = lexer.SourceSpan

    def counting(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(lexer, "SourceSpan", counting)
    _analyze_and_report_everything()
    assert built == []
    # the counter sees the spans a diagnostic builds
    assert _outcome("int main() { x = 1; }", "bad.mc")[2:] == ["bad.mc", 1, 14, 1, 14]
    assert built == [("bad.mc", 1, 14, 1, 14)]


class _ScanCounter:
    """Stands in for the lexer's token pattern and counts the scans that find
    token offsets, which only its ``finditer`` makes."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.scans = 0

    def findall(self, source):
        return self.pattern.findall(source)

    def finditer(self, source):
        self.scans += 1
        return self.pattern.finditer(source)


def test_successful_analysis_never_scans_for_token_offsets(monkeypatch):
    counter = _ScanCounter(lexer._TOKEN)
    monkeypatch.setattr(lexer, "_TOKEN", counter)
    _analyze_and_report_everything()
    assert counter.scans == 0
    # the counter sees the scan that a diagnostic's span makes
    assert _outcome("int main() { x = 1; }", "bad.mc")[2:] == ["bad.mc", 1, 14, 1, 14]
    assert counter.scans == 1
