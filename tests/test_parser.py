import gc
import inspect
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minicog import ast
from minicog.analysis import analyze_source
from minicog.errors import AnalysisError, ParseError
from minicog.generator import generate
from minicog.lexer import KEYWORDS, OPERATORS, PUNCTUATION, tokenize
from minicog.parser import node_span, parse, parse_source

from conftest import (
    FULL_GRAMMAR, analyzed, corpus_names, fixture_source, parents_of, reference_string_literal_error,
)


def main_stmts(tree):
    for item in tree.items:
        if isinstance(item, ast.FuncDef) and item.name == "main":
            return item.body.stmts
    raise AssertionError("no main")


def test_example1_statement_mix():
    stmts = main_stmts(analyzed("example1.mc").tree)
    decls = [s for s in stmts if isinstance(s, ast.DeclStmt)]
    assigns = [s for s in stmts if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Assign)]
    calls = [s for s in stmts if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call)]
    assert (len(decls), len(assigns), len(calls)) == (2, 2, 1)
    assert len(stmts) == 5


def test_unit_fixture_two_statements():
    assert len(main_stmts(analyzed("unit.mc").tree)) == 2


def test_example6_while_contains_if():
    stmts = main_stmts(analyzed("example6.mc").tree)
    whiles = [s for s in stmts if isinstance(s, ast.WhileStmt)]
    assert len(whiles) == 1
    body = whiles[0].body.stmts
    assert len(body) == 5
    assert sum(isinstance(s, ast.IfStmt) for s in body) == 1


@pytest.mark.parametrize("name", corpus_names())
def test_child_spans_nest_in_parents(name):
    tree = analyzed(name).tree
    for nid, parent_id in parents_of(tree).items():
        child, parent = tree.nodes[nid], tree.nodes[parent_id]
        cspan, pspan = node_span(tree, child), node_span(tree, parent)
        assert (pspan.line_start, pspan.col_start) <= (cspan.line_start, cspan.col_start)
        assert (cspan.line_end, cspan.col_end) <= (pspan.line_end, pspan.col_end)


def test_a_leaf_spans_exactly_its_own_text():
    # spans come from re-parsing the item that holds the node
    tree = parse_source(FULL_GRAMMAR)
    lines = FULL_GRAMMAR.split("\n")
    leaves = [node for node in tree.nodes if isinstance(node, (ast.VarRef, ast.Literal))]
    assert len(leaves) > 50
    for node in leaves:
        span = node_span(tree, node)
        assert span.line_start == span.line_end
        text = lines[span.line_start - 1][span.col_start - 1:span.col_end]
        assert text == (node.name if isinstance(node, ast.VarRef) else node.text)


def test_a_tree_the_parser_did_not_make_has_no_spans():
    tree = ast.SyntaxTree([ast.RecordDef("P", [])]).finalize()
    assert node_span(tree, tree.nodes[0]) is None


def test_nodes_store_only_their_id():
    # beyond the fields its `__init__` takes, a node has one slot, its id, and no `__dict__`
    assert ast.Node.__slots__ == ("nid",)
    for node in {type(node): node for node in parse_source(FULL_GRAMMAR).nodes}.values():
        cls = type(node)
        slots = [name for c in cls.__mro__ for name in vars(c).get("__slots__", ())]
        assert sorted(slots) == sorted(["nid", *inspect.signature(cls).parameters]), cls.__name__
        assert not hasattr(node, "__dict__"), cls.__name__


def test_each_fact_of_a_node_is_stored_once():
    # a class's field names are its slots, with no second table; a literal's kind follows from its text
    assert not hasattr(ast, "NODE_FIELDS")
    assert ast.Literal.__slots__ == ("text",)


def test_a_tree_keeps_only_its_items_source_map_and_nodes():
    # a span is built by re-parsing, so the tree holds no index for it
    assert ast.SyntaxTree.__slots__ == ("items", "source_map", "nodes", "__weakref__")
    assert not hasattr(parse_source(FULL_GRAMMAR), "__dict__")


def test_a_parsed_tree_holds_under_150_bytes_a_node():
    # what stays allocated once the tokens are dropped: the nodes, their
    # lists and their interned names, and no source offsets
    source = "\n".join(generate(seed) for seed in range(60))
    gc.collect()
    tracemalloc.start()
    try:
        tokens = tokenize(source)
        tree = parse(tokens)
        del tokens
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tree.nodes) > 4000
    assert held / len(tree.nodes) < 150, (held, len(tree.nodes))


@pytest.mark.parametrize("name", corpus_names())
def test_node_ids_unique_and_dense(name):
    tree = analyzed(name).tree
    assert sorted(node.nid for node in tree.nodes) == list(range(len(tree.nodes)))
    assert all(tree.nodes[k].nid == k for k in range(len(tree.nodes)))


def test_parse_is_deterministic():
    src = "int main() { int a = 1; a += 2; }"
    assert ast.fingerprint(parse_source(src)) == ast.fingerprint(parse_source(src))


def test_array_declaration_forms_normalize():
    a = parse_source("int main() { int a[10]; }")
    b = parse_source("int main() { int[10] a; }")
    assert ast.fingerprint(a) == ast.fingerprint(b)
    c = main_stmts(parse_source("int main() { int a[] = {1, 2}; }"))[0]
    assert c.type.is_array and c.type.array_size is None
    assert [e.text for e in c.init_list] == ["1", "2"]


@pytest.mark.parametrize("form", ["int a[{}];", "int[{}] a;"])
def test_array_size_digits_are_bounded(form):
    # a size of up to 4,300 digits parses, with or without the interpreter's
    # own limit on converting digits; one digit more is a diagnostic at the size
    size = "9" * 4300
    (decl,) = main_stmts(parse_source("int main() { " + form.format(size) + " }"))
    assert decl.type.array_size == 10 ** 4300 - 1
    source = "int main() { " + form.format("0" + size) + " }"
    with pytest.raises(ParseError, match="array size longer than 4300 digits") as err:
        parse_source(source)
    # the span runs from the first digit to the last
    assert err.value.span[1:] == (1, source.index("0") + 1, 1, source.index("0") + 4301)


def test_for_statement_variants():
    parse_source("int main() { for (;;) print(1); }")
    parse_source("int main() { int i; for (i = 0; i < 3; i++) print(i); }")
    tree = parse_source("int main() { for (int i = 0; i < 3; i++) print(i); }")
    for_stmt = main_stmts(tree)[0]
    assert isinstance(for_stmt.init, ast.DeclStmt)


def test_switch_and_labels_and_goto():
    tree = parse_source(
        "int main() { int a = 1; start: switch (a) { case 1: a = 2; break; default: goto start; } }"
    )
    labeled = main_stmts(tree)[1]
    assert isinstance(labeled, ast.LabeledStmt)
    switch = labeled.stmt
    assert [arm.label for arm in switch.arms] == ["1", None]


def test_do_while_and_record():
    tree = parse_source(
        "struct Point { int x; int y; };\n"
        "int main() { Point p; do p.x = p.x + 1; while (p.x < 3); }"
    )
    assert isinstance(tree.items[0], ast.RecordDef)
    assert isinstance(main_stmts(tree)[1], ast.DoWhileStmt)


def test_global_ref_and_member_chain():
    tree = parse_source("int g = 1;\nint main() { ::g = ::g + 1; }")
    assign = main_stmts(tree)[0].expr
    assert isinstance(assign.target, ast.GlobalRef)


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("int main() { a = 1 }", "expected ';'"),
        ("int main() { 1 = a; }", "invalid assignment target"),
        ("int main() { read() = 1; }", "invalid assignment target"),
        ("int main() { if a > 1) print(a); }", "expected '('"),
        ("int main() { switch (1) { what: ; } }", "expected 'case' or 'default'"),
        ("int main() { int a = \"text\"; }", "string literal"),
        ("int main() { x.y().z; }", "call target"),
        ("int main() { int[2] a[3]; }", "duplicate array marker"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_source(source)
    assert fragment in str(err.value)
    assert err.value.span is not None


# C's levels, written out here rather than read from minicog.ast: a wrong
# table that the parser and printer shared would still round-trip.
BINARY_LEVELS = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
EXPR_PREFIX = "int main() { "


def parse_expr_stmt(text):
    """The tree of a `main` holding the expression statement ``text``, and its expression."""
    tree = parse_source(f"{EXPR_PREFIX}{text}; }}")
    return tree, main_stmts(tree)[0].expr


def span_of(tree, node):
    return node_span(tree, node)[1:]  # (line_start, col_start, line_end, col_end)


@pytest.mark.parametrize("op2", BINARY_LEVELS)
@pytest.mark.parametrize("op1", BINARY_LEVELS)
def test_binary_operators_nest_by_c_precedence(op1, op2):
    text = f"a {op1} b {op2} c"
    tree, expr = parse_expr_stmt(text)

    def col(name):
        return len(EXPR_PREFIX) + text.index(name) + 1

    if BINARY_LEVELS[op1] >= BINARY_LEVELS[op2]:  # left-associative at equal levels
        inner = expr.lhs
        assert (expr.op, inner.op) == (op2, op1)
        assert [inner.lhs.name, inner.rhs.name, expr.rhs.name] == ["a", "b", "c"]
        assert span_of(tree, inner) == (1, col("a"), 1, col("b"))
    else:
        inner = expr.rhs
        assert (expr.op, inner.op) == (op1, op2)
        assert [expr.lhs.name, inner.lhs.name, inner.rhs.name] == ["a", "b", "c"]
        assert span_of(tree, inner) == (1, col("b"), 1, col("c"))
    assert span_of(tree, expr) == (1, col("a"), 1, col("c"))


def test_assignment_is_right_associative_and_parentheses_add_no_node():
    _, expr = parse_expr_stmt("a = b += c")
    assert isinstance(expr, ast.Assign) and isinstance(expr.value, ast.CompoundAssign)
    assert (expr.target.name, expr.value.op, expr.value.target.name, expr.value.value.name) == \
        ("a", "+=", "b", "c")
    plain = parse_source("int main() { x = a + b; }")
    wrapped = parse_source("int main() { x = (a + b); }")
    assert ast.fingerprint(plain) == ast.fingerprint(wrapped)
    assert len(plain.nodes) == len(wrapped.nodes)
    assert span_of(wrapped, main_stmts(wrapped)[0].expr.value) == (1, 19, 1, 23)


def test_parse_error_reports_expected_set():
    """The expected set and the token found are in the message, and the span
    is the token found."""
    with pytest.raises(ParseError) as err:
        parse_source("int main() { a = 1 }")
    assert str(err.value) == "expected ';', found '}'"
    span = err.value.span
    assert (span.line_start, span.col_start, span.line_end, span.col_end) == (1, 20, 1, 20)


_TOKEN_POOL = sorted(KEYWORDS) + list(OPERATORS) + list(PUNCTUATION) + [
    "main", "x", "y", "print", "read", "0", "7", "2.5", '"s"',
]


@given(st.lists(st.sampled_from(_TOKEN_POOL), max_size=60))
@example("int main ( ) { int x = 1 ; switch ( x ) {".split())
def test_any_token_sequence_analyzes_or_gives_a_diagnostic(tokens):
    try:
        analyze_source(" ".join(tokens))
    except AnalysisError:
        pass


# ------------------------------------------------ the string-literal rule

def _parse_outcome(source: str):
    try:
        parse_source(source)
    except ParseError as exc:
        return str(exc), exc.span
    return None


_MISPLACED = "string literal only allowed as a print argument"


@pytest.mark.parametrize(
    "body, misplaced",
    [
        ('print("s");', None),
        ('print(("s"));', None),
        ('print("a", 1, "b");', None),
        ('print(print("s"));', None),
        ('print("a" + "b");', '"a"'),
        ('print(f("s"));', '"s"'),
        ('print(-"s");', '"s"'),
        ('print("s"[0]);', '"s"'),
        ('int x = "s";', '"s"'),
        ('x = 1; print(1); x = "late";', '"late"'),
        ('switch (x) { case 1: print("t"); }', None),
    ],
)
def test_string_literal_rule_matches_reference(body, misplaced):
    source = f"int f(int a) {{ return a; }}\nint main() {{ int x = 0; {body} }}"
    outcome = _parse_outcome(source)
    assert outcome == reference_string_literal_error(source)
    if misplaced is None:
        assert outcome is None
    else:
        message, span = outcome
        assert message == _MISPLACED
        start = source.index(misplaced)
        assert (span.line_start, span.col_start) == (2, start - source.index("\n"))


def test_syntax_error_after_a_misplaced_string_wins():
    source = 'int main() { int x = "s"; }\nint g(  { }'
    message, span = _parse_outcome(source)
    assert message != _MISPLACED and span.line_start == 2
    assert (message, span) == reference_string_literal_error(source)


@pytest.mark.parametrize("name", corpus_names())
def test_string_literal_rule_matches_reference_on_fixtures(name):
    source = fixture_source(name)
    assert _parse_outcome(source) == reference_string_literal_error(source) is None


def test_string_literal_rule_matches_reference_on_spliced_programs():
    """A string spliced over a random identifier or number token of each
    generated program: allowed, misplaced or a syntax error, the parser and
    the reference agree on message and span."""
    import random

    from minicog.generator import generate

    seen = {"allowed": 0, "misplaced": 0, "syntax": 0}
    for seed in range(500):
        source = generate(seed)
        tokens = tokenize(source)
        slots = [i for i, kind in enumerate(tokens.kinds) if kind in ("identifier", "int-literal")]
        rng = random.Random(seed)
        for i in rng.sample(slots, min(3, len(slots))):
            start = tokens.starts[i]
            spliced = source[:start] + '"s"' + source[start + len(tokens.texts[i]):]
            outcome = _parse_outcome(spliced)
            assert outcome == reference_string_literal_error(spliced), (seed, start)
            kind = "allowed" if outcome is None else "misplaced" if outcome[0] == _MISPLACED else "syntax"
            seen[kind] += 1
    assert min(seen.values()) > 0, seen



@pytest.mark.parametrize("source, where", [
    ("int main() { return 0; }", None),
    ("int main() { x = ; }", "<input>:1:18"),       # a syntax error mid-file
    ("int main() { return 0;", "<input>:1:22"),     # one at end of input
    ('int main() { print(1); } int y = "s";', "<input>:1:34"),  # found after the parse
    ("", None),
])
def test_parse_leaves_the_token_lists_as_the_lexer_made_them(source, where):
    # the end sentinel goes on the token lists themselves, only while parsing runs
    tokens = tokenize(source)
    made = (list(tokens.kinds), list(tokens.texts), len(tokens))
    try:
        parse(tokens)
        found = None
    except ParseError as exc:
        found = str(exc.span)
    assert found == where
    assert (tokens.kinds, tokens.texts, len(tokens)) == made
