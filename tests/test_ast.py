"""The table-driven, explicit-stack tree walks of ``minicog.ast`` against
recursive reference walks that reflect over ``dataclasses.fields``."""

import dataclasses

import pytest

from minicog import ast, parse_source
from minicog.generator import generate

from conftest import corpus_names, fixture_source


def _node_classes() -> set[type]:
    found, todo = set(), [ast.Node]
    while todo:
        cls = todo.pop()
        # only the classes the module exports (not any class `slots=True` replaced)
        if getattr(ast, cls.__name__, None) is cls:
            found.add(cls)
            todo.extend(cls.__subclasses__())
    return found


def _field_names(cls) -> tuple[str, ...]:
    # without the bookkeeping fields: the node's source offsets, source map and id
    return tuple(f.name for f in dataclasses.fields(cls)
                 if f.name not in ("start", "end", "source_map", "nid"))


def _children(node) -> list:
    out = []
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.Node))
    return out


def _numbering(tree) -> tuple[list, dict[int, int]]:
    order, parents = [], {}

    def visit(node, parent):
        nid = len(order)
        order.append(node)
        if parent is not None:
            parents[nid] = parent
        for child in _children(node):
            visit(child, nid)

    for item in tree.items:
        visit(item, None)
    return order, parents


def _fingerprint(node) -> tuple:
    if isinstance(node, ast.SyntaxTree):
        return ("program", tuple(_fingerprint(i) for i in node.items))
    parts = [type(node).__name__]
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            parts.append(_fingerprint(value))
        elif isinstance(value, list):
            parts.append(tuple(_fingerprint(v) if isinstance(v, ast.Node) else v for v in value))
        else:
            parts.append(value)
    return tuple(parts)


_OPERATORS = (ast.Unary, ast.Binary, ast.CompoundAssign, ast.Increment, ast.Decrement)


def _operator_count(node) -> int:
    return isinstance(node, _OPERATORS) + sum(_operator_count(c) for c in _children(node))


def test_node_fields_table_is_dataclass_fields_without_span_and_nid():
    classes = _node_classes()
    assert len(classes) > 30
    assert set(ast.NODE_FIELDS) == classes
    for cls in classes:
        assert ast.NODE_FIELDS[cls] == _field_names(cls), cls.__name__


def _assert_walks_match_reference(source: str) -> None:
    tree = parse_source(source)
    order, parents = _numbering(tree)
    assert len(tree.nodes) == len(order)
    assert all(tree.nodes[nid] is node and node.nid == nid for nid, node in enumerate(order))
    assert tree.parents == parents
    assert ast.fingerprint(tree) == _fingerprint(tree)
    for node in order:
        if isinstance(node, ast.Expr):
            assert ast.operator_count(node) == _operator_count(node)


@pytest.mark.parametrize("name", corpus_names())
def test_walks_match_reference_on_fixtures(name):
    _assert_walks_match_reference(fixture_source(name))


def test_walks_match_reference_on_generated_programs():
    for seed in range(300):
        _assert_walks_match_reference(generate(seed))
