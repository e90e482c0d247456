import json
from fractions import Fraction

import pytest

from minicog import (
    EmptyProgram, InconsistentInput, analyze_source, coding_efficiency,
    cyclomatic, escim, loc, tokenize,
)
from minicog.ledger import SiMode
from minicog.metrics import DEFAULT_WEIGHTS, WeightTable

from conftest import analyzed, corpus_names, fixture_source


def test_unit_program_measures_one_in_every_mode():
    analysis = analyzed("unit.mc")
    for mode in SiMode:
        assert analysis.escim_value(mode) == 1


def test_empty_function_measures_zero():
    analysis = analyze_source("int main() { }")
    for mode in SiMode:
        assert analysis.escim_value(mode) == 0


def test_example6_default_delta_value():
    rep = analyzed("example6.mc").report()
    assert rep.escim == 14
    assert [(r.label, r.term) for r in rep.functions[0].leaves] == [
        ("G1", 2), ("G(2,1)", 3), ("G(2,2,1)", 0), ("G(2,3)", 9),
    ]


def test_recursion_multiplier_applies_per_function():
    rep = analyzed("recursion.mc").report(SiMode.ABSOLUTE)
    by_name = {fn.name: fn for fn in rep.functions}
    assert by_name["fact"].recursive
    assert by_name["fact"].escim == sum(r.term for r in by_name["fact"].leaves) * 3


def test_call_weight_applies_per_call_expression():
    rep = analyzed("recursion.mc").report()
    main = next(fn for fn in rep.functions if fn.name == "main")
    row = main.leaves[0]
    assert row.weight == 2  # one user call in the leaf
    assert row.term == row.si * row.weight * row.ancestor_product


# ----------------------------------------------------------------- loc

def test_loc_examples():
    assert loc(tokenize(fixture_source("example1.mc"))) == 7
    assert loc(tokenize(fixture_source("unit.mc"))) == 3
    with pytest.raises(EmptyProgram):
        analyze_source("// nothing\n/* still\nnothing */\n\n")


def test_loc_counts_code_sharing_a_line_with_comments():
    assert loc(tokenize("int main() { } // trailing\n")) == 1
    assert loc(tokenize('/* a */ int main() { print("x // y"); }\n')) == 1


@pytest.mark.parametrize(
    "src",
    [
        "int main() {\r int a; a = 1; }\n",         # a lone carriage return between tokens
        'int main() { print("a\u2028b"); }\n',      # line separators inside a string
        'int main() { print("a\x85b"); }\n',
        'int main() { print("a\vb"); }\n',
    ],
)
def test_loc_breaks_lines_only_at_newline(src):
    tokens = tokenize(src)
    assert {tokens.span(i).line_start for i in range(len(tokens))} == set(tokens.lines) == {1}
    assert loc(tokens) == 1
    assert analyze_source(src).report().loc == 1


# ----------------------------------------------------------------- efficiency

@pytest.mark.parametrize(
    "e, lines, expected",
    [(14, 14, Fraction(1)), (1, 3, Fraction(1, 3)), (0, 5, Fraction(0))],
)
def test_coding_efficiency(e, lines, expected):
    assert coding_efficiency(e, lines) == expected


# ----------------------------------------------------------------- cyclomatic

def test_cyclomatic_examples():
    assert cyclomatic(analyze_source("int main() { int a = 1; print(a); }").tree) == 1
    assert cyclomatic(analyzed("example6.mc").tree) == 3
    assert cyclomatic(analyze_source("int main() { int a = 1; if (a > 0) a = 2; else a = 3; }").tree) == 2
    assert cyclomatic(analyze_source(
        "int main() { int a = 1; if (a > 0 && a < 9) a = 2; switch (a) { case 1: ; case 2: ; default: ; } }"
    ).tree) == 5


# ----------------------------------------------------------------- weights

def test_weight_table_defaults_and_validation():
    table = WeightTable.default()
    assert table.as_dict() == DEFAULT_WEIGHTS
    with pytest.raises(ValueError):
        WeightTable({"linear": 0})
    with pytest.raises(ValueError):
        WeightTable({"spaghetti": 2})
    with pytest.raises(ValueError):
        WeightTable({"if": 2.5})  # type: ignore[dict-item]
    with pytest.raises(ValueError):
        WeightTable({"if": True})  # JSON true is not a weight


def test_weight_table_from_file(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"while": 4}))
    table = WeightTable.from_file(path)
    assert table["while"] == 4 and table["if"] == 2
    analysis = analyzed("example6.mc")
    assert analysis.escim_value(SiMode.DELTA, table) == 2 + 1 * 4 + 0 + 3 * 4


@pytest.mark.parametrize("kind", sorted(DEFAULT_WEIGHTS))
def test_weight_monotonicity(kind):
    base = WeightTable.default()
    bumped = WeightTable({kind: DEFAULT_WEIGHTS[kind] + 1})
    for name in ("example3.mc", "example6.mc", "recursion.mc", "sum_loop.mc"):
        analysis = analyzed(name)
        for mode in SiMode:
            assert analysis.escim_value(mode, bumped) >= analysis.escim_value(mode, base)


def test_goto_weight_scales_leaves_containing_gotos():
    src = "int main() { int a = 1; lab: a = a + 1; goto lab; }"
    analysis = analyze_source(src)
    assert analysis.escim_value() == 3
    assert analysis.escim_value(SiMode.DELTA, WeightTable({"goto": 2})) == 6


# ----------------------------------------------------------------- misc

def test_inconsistent_input_rejected():
    a = analyzed("unit.mc")
    b = analyze_source("int main() { int z; z = 4; }")
    with pytest.raises(InconsistentInput):
        escim(b.granules, a.ledger)


def test_program_escim_sums_functions():
    rep = analyzed("recursion.mc").report()
    assert rep.escim == sum(fn.escim for fn in rep.functions)


@pytest.mark.parametrize("name", corpus_names())
def test_nonnegative_everywhere(name):
    analysis = analyzed(name)
    for mode in SiMode:
        assert analysis.escim_value(mode) >= 0


def test_delta_additivity_for_disjoint_programs():
    p = analyze_source(fixture_source("p6_p.mc"))
    q = analyze_source(fixture_source("p6_q.mc"))
    from minicog import parse_source
    from minicog.weyuker import compose

    combined = compose(parse_source(fixture_source("p6_p.mc")), parse_source(fixture_source("p6_q.mc")))
    assert combined.escim_value() == p.escim_value() + q.escim_value() == 2
