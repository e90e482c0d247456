"""The JSON report writer against its oracle, ``json.dumps(obj, indent=2)``:
random nested values, then every report shape the CLI prints."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, analyzed, corpus_names, corpus_pairs, reference_report_obj
from minicog import cli
from minicog.errors import EmptyProgram
from minicog.ledger import SiMode
from minicog.weyuker import run_matrix

EVERY_SECTION = set(cli.EMIT_CHOICES)

# non-ASCII, control characters, quote, backslash, U+2028 and an astral character
_AWKWARD = st.sampled_from(["é", "ß", "\x00", "\x1f", "\n", "\t", '"', "\\", " ", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(), _AWKWARD), max_size=6)
_KEYS = st.one_of(_TEXT, st.integers(-5, 5), st.none(), st.booleans())
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT, st.floats(),
    st.integers(), st.sampled_from([-(10 ** 40), 10 ** 40, -1, 0]),
)


def _values(depth: int):
    if depth == 0:
        return _SCALARS
    inner = _values(depth - 1)
    return st.one_of(
        _SCALARS,
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=2).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=3),
    )


@settings(max_examples=400, deadline=None)
@given(_values(6))
@example({})
@example([])
@example({"k": {}})
@example([[]])
@example([[[[[[1]]]]]])
@example({"a": [{"b": {"c": [{"d": {"e": [" \U0001f600"]}}]}}]})
def test_writer_is_json_dumps_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2),
    [Fraction(1, 2)],  # inside a container the C encoder writes whole
    {"a": [1], "b": Fraction(1, 2)},  # a scalar of a container the writer walks
    {"a": [[Fraction(1, 2)]]},
    {(1, 2): [1]},  # a key json does not take
])
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("mode", list(SiMode))
@pytest.mark.parametrize("name", corpus_names())
def test_writer_on_every_fixture_report_with_every_section(name, mode):
    obj = reference_report_obj(analyzed(name), mode, EVERY_SECTION)
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


def test_writer_on_a_diagnostic_without_a_span():
    obj = cli.diagnostic_obj("empty.mc", SiMode.DELTA, EmptyProgram("no top-level items"))
    assert obj["diagnostics"][0]["span"] is None
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


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


def test_writer_on_a_weyuker_matrix_with_source_text_witnesses():
    obj = cli._matrix_obj(run_matrix(corpus_pairs(), seed=5, n_generated=12))
    witnesses = [row[m]["witness"] for row in obj["rows"] for m in obj["modes"]
                 if "witness" in row[m]]
    assert any("\n" in w["p"]["text"] for w in witnesses)
    assert any("\n" in w.get("permuted", "") for w in witnesses)
    assert cli._json_text(obj) == json.dumps(obj, indent=2)
