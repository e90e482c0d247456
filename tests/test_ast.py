"""The table-driven, explicit-stack tree walks of ``minicog.ast``, and the
resolver's operator counts, against recursive reference walks that reflect
over each node class's ``__slots__`` and ``__init__`` signature."""

import functools
import inspect

import pytest

from minicog import ast, parse_source, tokenize
from minicog.errors import ComposeError
from minicog.generator import generate
from minicog.scopes import ROLE_TARGET, resolve
from minicog.weyuker import ValidatorPool, _permutations, compose

from conftest import (FULL_GRAMMAR, corpus_names, corpus_pairs, fixture_source, occurrence_nodes,
                      parents_of, reference_finalize)


def _node_classes() -> set[type]:
    found, todo = set(), [ast.Node]
    while todo:
        cls = todo.pop()
        # only the classes the module exports
        if getattr(ast, cls.__name__, None) is cls:
            found.add(cls)
            todo.extend(cls.__subclasses__())
    return found


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The slots a node class declares itself, without ``Node``'s ``nid``,
    which must be its ``__init__`` parameters in the same order."""
    own = tuple(name for name in vars(cls)["__slots__"] if name != "nid")
    assert own == tuple(inspect.signature(cls).parameters), cls.__name__
    return own


def _children(node) -> list:
    out = []
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.Node))
    return out


def _numbering(tree) -> tuple[list, dict[int, int], dict[int, int]]:
    """Pre-order nodes, parent links, and the end of each node's subtree
    (its nids are contiguous: from the node's own nid up to that end)."""
    order, parents, ends = [], {}, {}

    def visit(node, parent):
        nid = len(order)
        order.append(node)
        if parent is not None:
            parents[nid] = parent
        for child in _children(node):
            visit(child, nid)
        ends[nid] = len(order)

    for item in tree.items:
        visit(item, None)
    return order, parents, ends


def _fingerprint(node) -> tuple:
    """Flat pre-order: a node's class, then each field; a list as its length and elements."""
    if isinstance(node, ast.SyntaxTree):
        return ("program", len(node.items), *(p for i in node.items for p in _fingerprint(i)))
    parts = [type(node)]
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, list):
            parts.append(len(value))
            values = value
        else:
            values = [value]
        for v in values:
            parts.extend(_fingerprint(v) if isinstance(v, ast.Node) else (v,))
    return tuple(parts)


_OPERATORS = (ast.Unary, ast.Binary, ast.CompoundAssign, ast.Increment, ast.Decrement)


def _operator_count(node) -> int:
    return isinstance(node, _OPERATORS) + sum(_operator_count(c) for c in _children(node))


def _counting_units(order) -> list[tuple[ast.Node | None, list]]:
    """(declaration or None, clause expressions) of each counting unit."""
    units = []
    for node in order:
        if isinstance(node, ast.DeclStmt):
            exprs = node.init_list if node.init is None else [node.init]
            if exprs is not None:
                units.append((node, exprs))
        elif isinstance(node, ast.ExprStmt):
            units.append((None, [node.expr]))
        elif isinstance(node, (ast.IfStmt, ast.WhileStmt, ast.DoWhileStmt)):
            units.append((None, [node.cond]))
        elif isinstance(node, ast.SwitchStmt):
            units.append((None, [node.scrutinee]))
        elif isinstance(node, ast.ForStmt):
            units += [(None, [e]) for e in (node.cond, node.update) if e is not None]
        elif isinstance(node, ast.ReturnStmt) and node.value is not None:
            units.append((None, [node.value]))
    return units


def _assert_op_units_match_reference(tree, order, ends) -> None:
    """Each occurrence inside a clause's subtree, and each declaration's own
    target occurrence, carries the reference operator count of its unit;
    every other occurrence carries 0."""
    expected: dict[int, int] = {}
    declared: dict[int, int] = {}
    for decl, exprs in _counting_units(order):
        ops = sum(_operator_count(e) for e in exprs)
        for e in exprs:
            expected.update(dict.fromkeys(range(e.nid, ends[e.nid]), ops))
        if decl is not None:
            declared[decl.nid] = ops
    resolution = resolve(tree)
    occurrences = resolution.occurrences
    assert occurrences
    for occ in zip(occurrence_nodes(tree, resolution), occurrences.role, occurrences.op_unit):
        node, role, op_unit = occ
        if node in expected:
            assert op_unit == expected[node], occ
        elif role == ROLE_TARGET and node in declared:
            assert op_unit == declared[node], occ
        else:
            assert op_unit == 0, occ


def test_node_fields_table_is_dataclass_fields_without_span_and_nid():
    classes = _node_classes()
    assert len(classes) > 30
    assert set(ast.CHILD_FIELDS) == classes
    for cls in classes - {ast.Node}:  # `Node`'s one slot is `nid`, which no fingerprint reads
        assert ast._FIELDS_REVERSED[cls] == _field_names(cls)[::-1], cls.__name__


def _assert_walks_match_reference(source: str) -> None:
    tree = parse_source(source)
    order, parents, ends = _numbering(tree)
    assert len(tree.nodes) == len(order)
    assert all(tree.nodes[nid] is node and node.nid == nid for nid, node in enumerate(order))
    assert parents_of(tree) == parents
    assert ast.fingerprint(tree) == _fingerprint(tree)
    _assert_op_units_match_reference(tree, order, ends)


@pytest.mark.parametrize("name", corpus_names())
def test_walks_match_reference_on_fixtures(name):
    _assert_walks_match_reference(fixture_source(name))


# every kind of counting unit, with operators in more than one `{...}` element
_EVERY_UNIT_KIND = """
int g = 1;
int f(int n) { return -n + 1; }
int main() {
    int a[] = {1 + 2, g * 3, -g};
    int x = a[g + 1] + f(g - 1);
    x += a[x % 2] * 2;
    if (x > 2 || !(g == 1)) x = x - 1; else a[x + 1]--;
    for (int i = 0; i < x - 1; i++) { a[i + 1] = a[i] * 2; }
    for (x = 0 + 1; ; x = x + 1) { break; }
    do { x -= 1; } while (x * 2 > 1 && g != 0);
    switch (x + g) { case 1: x++; break; default: ; }
    while (::g < 3) ::g = ::g + f(2 * g);
    return x * 2;
}
"""


def test_walks_match_reference_on_every_kind_of_counting_unit():
    _assert_walks_match_reference(_EVERY_UNIT_KIND)


def test_walks_match_reference_on_generated_programs():
    for seed in range(300):
        _assert_walks_match_reference(generate(seed))


# ------------------------------------------------ the child tables

def _value_kind(value) -> str:
    if isinstance(value, ast.Node):
        return "node"
    if isinstance(value, list) and value and all(isinstance(v, ast.Node) for v in value):
        return "nodes"
    return "none" if value is None or value == [] else "scalar"


def test_child_table_is_every_node_holding_field_of_the_annotations():
    """Each class's child table lists exactly the fields that hold a node or
    a list of nodes on some tree of the fixtures, the full grammar and
    generated programs, in declaration order, flagging the lists; a child
    field holds only what its flag says or nothing (None or an empty list):
    a node field declared without its child entry fails here."""
    kinds: dict[tuple[type, str], set[str]] = {}
    sources = [fixture_source(name) for name in corpus_names()] + [FULL_GRAMMAR]
    for source in sources + [generate(seed) for seed in range(100)]:
        for node in parse_source(source).nodes:
            for name in _field_names(type(node)):
                kinds.setdefault((type(node), name), set()).add(_value_kind(getattr(node, name)))
    for cls in _node_classes():
        seen = {name: kinds.get((cls, name), set()) for name in _field_names(cls)}
        expected = tuple((name, "nodes" in held) for name, held in seen.items() if held & {"node", "nodes"})
        assert ast.CHILD_FIELDS[cls] == expected, cls.__name__
        for name, is_list in expected:
            assert seen[name] <= {"nodes" if is_list else "node", "none"}, (cls.__name__, name)
    assert ast.CHILD_FIELDS[ast.DeclStmt] == (("type", False), ("init", False), ("init_list", True))
    assert ast.CHILD_FIELDS[ast.VarRef] == ()


def test_full_grammar_program_holds_every_concrete_node_class():
    tree = parse_source(FULL_GRAMMAR)
    abstract = {ast.Node, ast.Expr, ast.Stmt}
    assert {type(node) for node in tree.nodes} == set(ast.CHILD_FIELDS) - abstract
    # a literal's kind is its token's kind; `true` and `false` are keywords
    assert {tokenize(node.text).kinds[0] for node in tree.nodes if type(node) is ast.Literal} == \
        {"int-literal", "float-literal", "string-literal", "keyword"}
    assert {node.name for node in tree.nodes if type(node) is ast.TypeRef} >= {"float", "bool", "Point"}


def _assert_numbering_is_reflective(tree) -> None:
    order = reference_finalize(tree)
    assert len(tree.nodes) == len(order)
    assert all(node is ref and node.nid == nid for nid, (node, ref) in enumerate(zip(tree.nodes, order)))
    assert all(ast.child_nodes(node) == _children(node) for node in order)


def test_numbering_matches_the_reflective_walk_on_fixtures_generated_and_full_grammar():
    sources = [fixture_source(name) for name in corpus_names()]
    sources += [generate(seed) for seed in range(200)] + [FULL_GRAMMAR]
    for source in sources:
        _assert_numbering_is_reflective(parse_source(source))


def test_numbering_matches_the_reflective_walk_on_compositions_and_permutations():
    pool = ValidatorPool(corpus_pairs(), n_generated=20 - len(corpus_names()))
    assert len(pool) == 20
    composed = 0
    for p in pool.entries:
        for q in pool.entries:
            try:
                _assert_numbering_is_reflective(compose(p.tree, q.tree).tree)
                composed += 1
            except ComposeError:
                pass
    permuted = 0
    for candidate in _permutations(pool):
        if candidate is not None:
            _assert_numbering_is_reflective(candidate[1].tree)
            permuted += 1
    assert composed > 200 and permuted > 10, (composed, permuted)
