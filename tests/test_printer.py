import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicog import parse_source, pretty_print
from minicog.ast import fingerprint
from minicog.generator import generate

from conftest import corpus_names, fixture_source

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
