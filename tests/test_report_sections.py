"""The ledger and granule sections of ``analyze`` are written from the analysis
by fixed templates. Their output is checked byte for byte against the
oracle, which builds each row and granule as a dict and prints the report
with ``json.dumps(obj, indent=2)`` or the old text lines
(``conftest.reference_analyze_output``)."""

import json
import sys
from itertools import combinations

import pytest

from conftest import CORPUS, corpus_names, reference_analyze_output, run_cli
from minicog import cli
from minicog.ledger import SiMode

EMIT_SUBSETS = [",".join(subset) for n in range(len(cli.EMIT_CHOICES) + 1)
                for subset in combinations(cli.EMIT_CHOICES, n)]

# programs that reach each edge of the templates
EDGE_PROGRAMS = {
    # a record member's row shows `p.x`
    "member.mc": "struct Point { int x; }; int main() { Point p; p.x = 1; return p.x; }\n",
    # JSON escapes a non-ASCII name; text prints it as it is
    "non_ascii.mc": "int é = 1; int main() { return é; }\n",
    # an empty ledger, and a function with no granules
    "empty_main.mc": "int main() { }\n",
    # a header-carrying empty leaf is inserted, with `"stmts": []`
    "empty_leaf.mc": "int main() { int x = 1; while (x) { if (x) { } } return x; }\n",
    # no function at all: `"functions": []` and `"granule_trees": []`
    "globals_only.mc": "int x = 1; int y = 2;\n",
    # JSON escapes a non-ASCII function name in the head and the granule trees
    "non_ascii_function.mc": "int fé() { return 1; } int main() { return fé(); }\n",
}


def _cli_output(capsys, path, fmt: str, mode: str, emit: str) -> str:
    code = cli.main(["analyze", str(path), "--format", fmt, "--si-mode", mode, "--emit", emit])
    assert code == 0
    return capsys.readouterr().out


def _assert_equals_oracle(capsys, path, fmt: str) -> None:
    for mode in SiMode:
        for emit in EMIT_SUBSETS:
            expected = reference_analyze_output([str(path)], fmt, mode,
                                                set(filter(None, emit.split(","))), corpus=False)
            assert _cli_output(capsys, path, fmt, mode.value, emit) == expected, (mode, emit)


def test_every_subset_of_sections_is_listed():
    assert len(EMIT_SUBSETS) == 16 and len(set(EMIT_SUBSETS)) == 16


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", corpus_names())
def test_fixture_report_equals_the_oracle_for_every_mode_and_sections(name, fmt, capsys):
    _assert_equals_oracle(capsys, CORPUS / name, fmt)


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("edges")
    for name, text in EDGE_PROGRAMS.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_program_report_equals_the_oracle(edge_files, name, fmt, capsys):
    _assert_equals_oracle(capsys, edge_files / name, fmt)


def test_edge_programs_reach_their_edges(edge_files, capsys):
    def report(name, fmt="json"):
        out = _cli_output(capsys, edge_files / name, fmt, "delta", "ledger,granules")
        return json.loads(out) if fmt == "json" else out

    assert "p.x" in {row["variable"] for row in report("member.mc")["ledger"]}
    assert '"variable": "\\u00e9"' in _cli_output(capsys, edge_files / "non_ascii.mc",
                                                  "json", "delta", "ledger")
    assert " é " in report("non_ascii.mc", "text")
    empty = report("empty_main.mc")
    assert empty["ledger"] == []
    assert empty["granule_trees"] == [{"function": "main", "recursive": False, "granules": []}]
    globals_only = report("globals_only.mc")
    assert globals_only["functions"] == [] and globals_only["granule_trees"] == []
    assert [fn["name"] for fn in report("non_ascii_function.mc")["functions"]] == ["fé", "main"]
    assert '"name": "f\\u00e9"' in _cli_output(capsys, edge_files / "non_ascii_function.mc",
                                                 "json", "delta", "metrics")
    granules = [g for gt in report("empty_leaf.mc")["granule_trees"] for g in gt["granules"]]
    for g in granules:  # grows as it goes: every granule, subtrees included
        granules += g["children"]
    assert any(g["stmts"] == [] and not g["children"] for g in granules)


def test_text_granule_lines_print_stmts_as_a_list(tmp_path, capsys):
    # `Granule.stmts` is a tuple; the text line shows the list `[n]`, not `(n,)`
    path = tmp_path / "one.mc"
    path.write_text("int main() { return 0; }\n")
    out = _cli_output(capsys, path, "text", "delta", "granules")
    (line,) = [line for line in out.splitlines() if "stmts=" in line]
    assert line.endswith("G1 [linear] stmts=[3]"), line
    assert out == reference_analyze_output([str(path)], "text", SiMode.DELTA, {"granules"},
                                           corpus=False)


NESTING = 320


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("shape", ["brace-less", "blocks"])
def test_deeply_nested_granules_are_written(tmp_path, shape, fmt):
    opening, closing = ("if (x) ", "") if shape == "brace-less" else ("if (x) { ", "} ")
    path = tmp_path / "deep.mc"
    path.write_text("int main() { int x = 1; " + opening * NESTING + "x = 2; "
                    + closing * NESTING + "return x; }\n")
    # the CLI in a fresh process, as a user runs it: pytest's own frames would
    # take part of the stack that the recursive parser and decomposer need
    result = run_cli("analyze", str(path), "--format", fmt, "--emit", "granules")
    assert result.returncode == 0, result.stderr.decode()[-300:]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # for the oracle's recursive dicts and json.dumps
    try:
        expected = reference_analyze_output([str(path)], fmt, SiMode.DELTA, {"granules"},
                                            corpus=False)
    finally:
        sys.setrecursionlimit(limit)
    assert result.stdout.decode() == expected
    assert expected.count("[if]" if fmt == "text" else '"kind": "if"') == NESTING
