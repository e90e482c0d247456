import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import ast
from minicog.ast import fingerprint
from minicog.generator import generate
from minicog.parser import parse_source
from minicog.printer import pretty_print

from conftest import CORPUS, FULL_GRAMMAR, corpus_names, fixture_source

SWITCH_FIXTURE = """int main()
{
    int mode = read();
    switch (mode)
    {
        case 1:
            print(1);
            break;
        case 2:
        default:
            print(0);
    }
}
"""


def roundtrips(source: str) -> bool:
    tree = parse_source(source)
    return fingerprint(parse_source(pretty_print(tree))) == fingerprint(tree)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_roundtrip(name):
    assert roundtrips(fixture_source(name))


def test_switch_fixture_roundtrip():
    assert roundtrips(SWITCH_FIXTURE)


@pytest.mark.parametrize(
    "source",
    [
        "int main() { int a = -(-3); }",
        "int main() { int a = 1; a = a - -a; }",
        "int main() { int a = (1 + 2) * 3 - 4 / (5 % 2); }",
        "int main() { int a = 1; if (!(a < 2) && a != 3 || true) a++; }",
        "int main() { int a = 1; a = a = a + 1; }",
        "int main() { for (;;) break; }",
        "int main() { do ; while (true); }",
        "int g = 2;\nint main() { print(::g); }",
        "struct P { int x; };\nint main() { P p; p.x = 1; print(p.x); }",
        "int main() { int k[3]; k[1] = 2; k[1] += k[1]; }",
        "int main() { lab: goto lab; }",
        FULL_GRAMMAR,
    ],
)
def test_construct_roundtrip(source):
    assert roundtrips(source)


def test_output_is_deterministic():
    tree = parse_source(fixture_source("example3.mc"))
    assert pretty_print(tree) == pretty_print(tree)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_program_roundtrip(seed):
    assert roundtrips(generate(seed))


@pytest.mark.parametrize("statement", ["x = {};", "print({});", "{};"],
                         ids=["assignment", "print-argument", "bare"])
def test_ten_thousand_term_chain_prints_and_roundtrips(statement):
    # a left-associative chain is as deep as it is long
    terms = " + ".join(["x"] * 10_000)
    tree = parse_source("int main() { int x = 1; " + statement.format(terms) + " }")
    text = pretty_print(tree)
    assert "    " + statement.format(terms) + "\n" in text
    again = parse_source(text)
    assert fingerprint(again) == fingerprint(tree)
    assert fingerprint(again) != fingerprint(parse_source(
        "int main() { int x = 1; " + statement.format(terms + " + x") + " }"))


@pytest.mark.parametrize("left, right", [
    ("x = x + x + x;", "x = x + (x + x);"),
    ("x = x * x + x;", "x = x * (x + x);"),
    ("{ print(1); } print(2);", "{ print(1); print(2); }"),
    ("print(x, x);", "print(x); print(x);"),
])
def test_fingerprint_tells_structures_apart(left, right):
    def tree(body):
        return parse_source("int main() { int x = 1; " + body + " }")
    assert fingerprint(tree(left)) == fingerprint(tree(left))
    assert fingerprint(tree(left)) != fingerprint(tree(right))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_printed_bytes_are_pinned():
    # records, labels, `goto`, `::` and `{…}` lists, and every fixture
    assert _sha256(pretty_print(parse_source(FULL_GRAMMAR))) == (
        "70e8bb56fe4e506609277e1d1d164498024519acd1c27d2cedccdefe289d703a")
    fixtures = "".join(pretty_print(parse_source(path.read_text()))
                       for path in sorted(CORPUS.glob("*.mc")))
    assert _sha256(fixtures) == "fcced992b09f81bd04113fd464478c684f3f9a8e04015ef465cdb47b66061041"


@pytest.mark.parametrize("source, printed", [
    ("- -a", "-(-a)"),
    ("-(-(-a))", "-(-(-a))"),
    ("-!-a", "-!-a"),
    ("!-(-a)", "!-(-a)"),
    ("- -a[- -1]", "-(-a[-(-1)])"),
    ("-(a = 1)", "-(a = 1)"),
])
def test_unary_minus_never_prints_a_decrement(source, printed):
    text = pretty_print(parse_source("int main() { " + source + "; }"))
    assert text == "int main()\n{\n    " + printed + ";\n}\n"


def test_array_markers_print_where_the_parser_reads_them():
    source = ("struct R { int[3] xs; };\n"
              "int[] f(int[] a, bool[2] b) { int c[2] = {1, 2}; float d[] = {0.5}; return a; }\n")
    text = pretty_print(parse_source(source))
    assert "    int[3] xs;\n" in text
    assert "int[] f(int[] a, bool[2] b)\n" in text
    assert "    int c[2] = {1, 2};\n    float d[] = {0.5};\n" in text
    assert roundtrips(source)


def test_local_record_arrays_and_an_assigning_for_init_print_and_roundtrip():
    source = ("struct P { int a; };\n"
              "int main() { int i; P[3] ps; P[] qs; for (i = 0; i < 3; i++) ps[i].a = i; }\n")
    text = pretty_print(parse_source(source))
    assert "    P ps[3];\n    P qs[];\n" in text
    assert "    for (i = 0; i < 3; i++)\n" in text
    assert roundtrips(source)


def test_empty_program_prints_one_newline():
    assert pretty_print(ast.SyntaxTree([])) == "\n"


def test_five_thousand_nested_statements_print_indented():
    # each `while` has a block body, so statements nest 5,000 deep
    depth = 2_500
    stmt = ast.ExprStmt(ast.Assign(ast.VarRef("x"), ast.Literal("1")))
    for _ in range(depth):
        stmt = ast.WhileStmt(ast.VarRef("x"), ast.Block([stmt]))
    main = ast.FuncDef(ast.TypeRef("int"), "main", [], ast.Block([stmt]))
    lines = ["int main()", "{"]
    for level in range(1, depth + 1):
        lines += ["    " * level + "while (x)", "    " * level + "{"]
    lines.append("    " * (depth + 1) + "x = 1;")
    lines += ["    " * level + "}" for level in range(depth, 0, -1)]
    lines.append("}")
    assert pretty_print(ast.SyntaxTree([main])) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("tree, message", [
    (ast.SyntaxTree([ast.Param(ast.TypeRef("int"), "p")]), "unprintable Param"),
    (ast.SyntaxTree([ast.FuncDef(ast.TypeRef("int"), "main", [],
                                 ast.Block([ast.ExprStmt(ast.TypeRef("int"))]))]),
     "unprintable expression TypeRef"),
], ids=["item", "expression"])
def test_a_node_out_of_place_is_a_type_error(tree, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        pretty_print(tree)
