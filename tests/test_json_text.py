"""The CLI's JSON writers against their oracle, ``json.dumps(obj, indent=2)``:
``_diagnostic_json`` on random diagnostics and ``_report_json`` on every
fixture report, both at every depth up to 4, then the report shapes the
section tests leave out (the totals, the Weyuker matrix) through
``cli.main``."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (CORPUS, FULL_GRAMMAR, analyzed, corpus_names, corpus_pairs, fixture_source,
                      reference_analyze_output, reference_diagnostic_obj, reference_report_obj)
from minicog import analyze_source, cli
from minicog.errors import AnalysisError, EmptyProgram
from minicog.generator import generate
from minicog.ledger import SiMode
from minicog.lexer import SourceSpan
from minicog.weyuker import run_matrix

EVERY_SECTION = set(cli.EMIT_CHOICES)

# non-ASCII, control characters, quote, backslash, U+2028 and an astral character
_AWKWARD = st.sampled_from(["é", "ß", "\x00", "\x1f", "\n", "\t", '"', "\\", "\u2028", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(), _AWKWARD), max_size=6)
_SPANS = st.builds(SourceSpan, _TEXT, *[st.integers(0, 10 ** 12)] * 4)
_ERRORS = st.one_of(st.builds(AnalysisError, _TEXT, st.one_of(st.none(), _SPANS)),
                    st.builds(EmptyProgram, _TEXT))


def _nested(value, text: str, depth: int) -> tuple[str, str]:
    """`json.dumps(indent=2)` of `value` inside `depth` one-item lists, and the
    same document with `text` written as the innermost item."""
    wrapped = value
    for _ in range(depth):
        wrapped = [wrapped]
    opening = "".join("[" + cli._newline(level + 1) for level in range(depth))
    closing = "".join(cli._newline(level) + "]" for level in reversed(range(depth)))
    return json.dumps(wrapped, indent=2), opening + text + closing


@settings(max_examples=400, deadline=None)
@given(_TEXT, st.sampled_from(list(SiMode)), _ERRORS, st.integers(0, 4))
@example("", SiMode.DELTA, EmptyProgram("no countable lines of code"), 0)
@example("a.mc", SiMode.ABSOLUTE, AnalysisError("", SourceSpan("", 0, 0, 0, 0)), 2)
@example("\U0001f600\n", SiMode.MINMAX, AnalysisError("\"\\", SourceSpan("é", 1, 2, 3, 4)), 4)
def test_writer_is_json_dumps_indent_2(file, mode, error, depth):
    rep = reference_diagnostic_obj(file, mode, error)
    expected, written = _nested(rep, cli._diagnostic_json(file, mode, error, depth), depth)
    assert written == expected


@pytest.mark.parametrize("value", [
    Fraction(1, 2),
    [Fraction(1, 2)],
    {"a": [1], "b": Fraction(1, 2)},
    {"a": [[Fraction(1, 2)]]},
    {(1, 2): [1]},  # a key json does not take
])
def test_writer_rejects_what_json_rejects(value):
    # in each text slot of a diagnostic report but its message, which is
    # always `str(exc)`: its file and its span's file
    cases = [(value, EmptyProgram("m")), ("f", AnalysisError("m", SourceSpan(value, 1, 1, 1, 1)))]
    for file, exc in cases:
        with pytest.raises(TypeError):
            json.dumps(reference_diagnostic_obj(file, SiMode.DELTA, exc), indent=2)
        for depth in (0, 2):
            with pytest.raises(TypeError):
                cli._diagnostic_json(file, SiMode.DELTA, exc, depth)


@pytest.mark.parametrize("mode", list(SiMode))
@pytest.mark.parametrize("name", corpus_names())
def test_writer_on_every_fixture_report_with_every_section(name, mode):
    analysis = analyzed(name)
    obj = reference_report_obj(f"corpus/{name}", analysis, mode, EVERY_SECTION)
    for depth in range(5):  # a single file's report is at depth 0, one in a corpus payload at 2
        text = cli._report_json(f"corpus/{name}", mode, cli.report_obj(analysis, mode, None),
                                cli._sections(analysis, EVERY_SECTION, True, depth), depth)
        expected, written = _nested(obj, text, depth)
        assert written == expected


def test_writer_on_a_diagnostic_without_a_span(tmp_path, capsys):
    path = tmp_path / "empty.mc"
    path.write_text("// no top-level items\n")
    assert cli.main(["analyze", str(path), "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["diagnostics"][0]["span"] is None
    assert out == reference_analyze_output([str(path)], "json", SiMode.DELTA, {"metrics"},
                                           corpus=False)


def test_writer_on_a_corpus_payload_with_totals(tmp_path, capsys):
    for name in corpus_names()[:4]:
        (tmp_path / name).write_bytes((CORPUS / name).read_bytes())
    (tmp_path / "broken.mc").write_text("int main() { int x = 1 }\n")
    code = cli.main(["analyze", str(tmp_path), "--corpus", "--format", "json",
                     "--emit", ",".join(cli.EMIT_CHOICES)])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["totals"]["files"] == 5 and payload["totals"]["analyzed"] == 4
    assert payload["files"][0]["diagnostics"][0]["span"] is not None
    assert out == json.dumps(payload, indent=2) + "\n"


def test_writer_on_a_weyuker_matrix_with_source_text_witnesses(capsys):
    assert cli.main(["weyuker", "--corpus", str(CORPUS), "--seed", "5", "--count", "12",
                     "--format", "json"]) == 0
    out = capsys.readouterr().out
    obj = cli._matrix_obj(run_matrix(corpus_pairs(), seed=5, n_generated=12))
    witnesses = [row[m]["witness"] for row in obj["rows"] for m in obj["modes"]
                 if "witness" in row[m]]
    assert any("\n" in w["p"]["text"] for w in witnesses)
    assert any("\n" in w.get("permuted", "") for w in witnesses)
    assert out == json.dumps(obj, indent=2) + "\n"


# ------------------------------------------------ the `%d` slots
#
# A `%d` slot writes any real number truncated: `'%d' % Fraction(1, 2)` is
# `0`, `'%d' % 1.5` is `1` and `'%d' % True` is `1`, where `json.dumps`
# raises, writes `1.5` or writes `true`. So every value the templates write
# through one must be exactly an `int`.

def _report_int_slots(analysis, mode) -> list:
    """What the report templates write through `%d`: the head's `loc`, `i_l`
    and `escim`, each function's `escim`, each leaf row's numbers, and each
    ledger row's scope, delta, ICN and SICN."""
    rep = cli.report_obj(analysis, mode, None)
    values = [rep.loc, rep.i_l, rep.escim]
    for fn in rep.functions:
        values.append(fn.escim)
        for row in fn.leaves:
            values += [row.weight, row.si, row.ancestor_product, row.term]
    led, variables = analysis.ledger, analysis.resolution.variables
    values += [variables[vid].scope for vid in analysis.resolution.occurrences.variable]
    return values + led.delta + led.icn_after + led.sicn_after


def _broken(text: str) -> list[str]:
    """``text`` with a lexical, two syntax and a name error: a `$` put in, one
    `;` or the last `}` cut, and an assignment to an undeclared name put in."""
    cut = text.index(";", len(text) // 2)
    brace = text.rindex("}")
    return [text[:cut] + "$" + text[cut:], text[:cut] + text[cut + 1:],
            text[:brace] + text[brace + 1:], text[:cut + 1] + " zz_undeclared = 1;" + text[cut + 1:]]


def test_every_value_written_through_a_d_slot_is_an_int():
    sources = [fixture_source(name) for name in corpus_names()]
    sources += [generate(seed) for seed in range(100)] + [FULL_GRAMMAR]
    checked = 0
    for source in sources:
        analysis = analyze_source(source)
        for mode in SiMode:
            values = _report_int_slots(analysis, mode)
            assert all(type(v) is int for v in values), [v for v in values if type(v) is not int]
            checked += len(values)
    broken = [text for source in sources for text in _broken(source)]
    spans = 0
    for text in broken:
        try:
            analyze_source(text)
        except AnalysisError as exc:
            span = exc.span
            if span is not None:
                slots = [span.line_start, span.col_start, span.line_end, span.col_end]
                assert all(type(v) is int for v in slots), slots
                spans += 1
    # every broken text ends in a diagnostic with a span
    assert checked > 40_000 and spans == len(broken) > 400, (checked, spans, len(broken))
