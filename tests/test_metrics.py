import json
from fractions import Fraction

import pytest

from minicog import (
    EmptyProgram, InconsistentInput, analyze_source, coding_efficiency, escim, loc, tokenize,
)
from minicog.granules import BcsKind
from minicog.ledger import SiMode
from minicog.metrics import DEFAULT_WEIGHTS, WeightTable

from conftest import analyzed, corpus_names, fixture_source, info_icn, ordinals_of, reference_si, whole


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


# ----------------------------------------------------------------- weights

def test_weight_table_defaults_and_validation():
    table = WeightTable()
    assert {kind.value: weight for kind, weight in table.by_kind.items()} == DEFAULT_WEIGHTS
    with pytest.raises(ValueError):
        WeightTable({"linear": 0})
    with pytest.raises(ValueError):
        WeightTable({"spaghetti": 2})
    with pytest.raises(ValueError):
        WeightTable({"if": 2.5})  # type: ignore[dict-item]
    with pytest.raises(ValueError):
        WeightTable({"if": True})  # JSON true is not a weight


def test_weight_table_by_kind_is_built_once():
    """The kind-keyed weights are built with the table, and scoring reads that
    map rather than building its own from the names."""
    table = WeightTable({"while": 4})
    by_kind = table.by_kind
    by_name = {kind.value: weight for kind, weight in by_kind.items()}
    assert by_name == {**DEFAULT_WEIGHTS, "while": 4}
    assert by_kind[BcsKind.WHILE] == 4 and by_kind[BcsKind.IF] == DEFAULT_WEIGHTS["if"]
    analysis = analyzed("example6.mc")
    assert analysis.escim_value(SiMode.DELTA, table) == 2 + 1 * 4 + 0 + 3 * 4
    assert table.by_kind is by_kind
    table.by_kind = {**by_kind, BcsKind.WHILE: 5}
    assert analysis.escim_value(SiMode.DELTA, table) == 2 + 1 * 5 + 0 + 3 * 5


def test_weight_table_from_file(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"while": 4}))
    table = WeightTable.from_file(path)
    assert table.by_kind[BcsKind.WHILE] == 4 and table.by_kind[BcsKind.IF] == 2
    analysis = analyzed("example6.mc")
    assert analysis.escim_value(SiMode.DELTA, table) == 2 + 1 * 4 + 0 + 3 * 4


@pytest.mark.parametrize("kind", sorted(DEFAULT_WEIGHTS))
def test_weight_monotonicity(kind):
    base = WeightTable()
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


# ----------------------------------------------------------------- shared work

def _reference_escim(analysis, weights, mode):
    """ESCIM the long way: a recursive walk of every granule tree that finds each
    leaf's region, calls and gotos afresh, with the reference SI and I(L)."""
    import minicog.ast as ast
    from minicog.erm import serialize_erm
    from minicog.granules import BcsKind

    led, by_kind = analysis.ledger, weights.by_kind
    functions = []
    for gt in analysis.granules:
        rows = []

        def visit(g, product, parent):
            if not g.children:
                region = set(g.stmts)
                if parent is not None and parent.header_carrier() is g:
                    region.add(parent.stmts[0])
                si = reference_si(led, ordinals_of(analysis, region), mode)
                calls = sum(led.resolution.calls_by_anchor.get(nid, 0) for nid in region)
                gotos = sum(1 for nid in g.stmts if isinstance(analysis.tree.nodes[nid], ast.GotoStmt))
                weight = by_kind[BcsKind.LINEAR] * by_kind[BcsKind.CALL] ** calls \
                    * by_kind[BcsKind.GOTO] ** gotos
                rows.append((g.label, g.kind.value, weight, si, product, si * weight * product))
                return
            for child in g.children:
                visit(child, product * by_kind[g.kind], g)

        for root in gt.roots:
            visit(root, 1, None)
        total = sum(row[5] for row in rows)
        if gt.recursive:
            total *= by_kind[BcsKind.RECURSION]
        functions.append((gt.function, gt.recursive, total, rows, serialize_erm(gt)))
    return functions, sum(f[2] for f in functions), info_icn(led, whole(led))


def _fields(report):
    functions = [(f.name, f.recursive, f.escim,
                  [(r.label, r.kind, r.weight, r.si, r.ancestor_product, r.term) for r in f.leaves],
                  f.erm)
                 for f in report.functions]
    return functions, report.escim, report.i_l


_TABLES = [WeightTable(), WeightTable({"call": 3, "if": 5, "recursion": 2})]


def _assert_reports_match_reference(analysis):
    orders = [list(SiMode), list(SiMode)[::-1]]
    for weights, modes in zip(_TABLES + _TABLES[::-1], orders + orders):
        for mode in modes:
            rep = analysis.report(mode, weights)
            assert _fields(rep) == _reference_escim(analysis, weights, mode), (mode, weights.by_kind)


@pytest.mark.parametrize("name", corpus_names())
def test_reports_match_reference_on_fixtures(name):
    _assert_reports_match_reference(analyze_source(fixture_source(name)))


_EDGE_PROGRAMS = [
    # calls in loop, do-while and switch headers, carried by the first or last child leaf
    "int f(int a) { return a - 1; }\n"
    "int main() { int x = 3; while (f(x) > 0) { x = f(x); } do { x = x + 1; } while (f(x) < 5);"
    " switch (f(x)) { case 1: x = 2; break; default: ; } }",
    # a leaf that starts by assigning and then reading x, after a structured granule
    "int main() { int x = 1; if (x) x = 2; else { x = x + 1; print(x); } x = x + 1; print(x); }",
    # gotos and labels, and a call inside a goto-carrying leaf
    "int g() { return 1; } int main() { int a = 1; lab: a = a + g(); if (a < 9) goto lab; goto end; end: ; }",
]


@pytest.mark.parametrize("source", _EDGE_PROGRAMS)
def test_reports_match_reference_on_edge_programs(source):
    _assert_reports_match_reference(analyze_source(source))


def test_reports_match_reference_on_generated_programs():
    from minicog.generator import generate

    for seed in range(500):
        _assert_reports_match_reference(analyze_source(generate(seed)))


def test_all_modes_share_the_mode_independent_work(monkeypatch):
    import minicog.erm
    import minicog.granules
    from minicog.ledger import OccurrenceLedger

    calls = {"serialize_erm": 0, "si": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(minicog.granules, "serialize_erm",
                        counted("serialize_erm", minicog.erm.serialize_erm))
    monkeypatch.setattr(OccurrenceLedger, "si", counted("si", OccurrenceLedger.si))
    analysis = analyze_source(fixture_source("recursion.mc"))
    trees = len(analysis.granules)
    assert trees > 1 and calls["serialize_erm"] == trees
    for weights in _TABLES:
        for mode in SiMode:
            analysis.report(mode, weights)
    leaves = sum(len(gt.leaves) for gt in analysis.granules)
    assert calls == {"serialize_erm": trees, "si": 2 * 3 * leaves}
    # I(L) is read off the ledger's final counts; it equals the long-way sum of ICN maxima
    led = analysis.ledger
    assert analysis.report().i_l == info_icn(led, whole(led))
